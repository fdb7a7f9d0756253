#include "core/assess.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <tuple>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "stats/distributions.hpp"

namespace keybin2::core {
namespace {

/// A 1-D assessment scenario: one dimension, histogram over [0,1] with
/// `bins` bins, two modes at the given centres.
struct Scenario {
  std::vector<stats::Histogram> hists;
  std::vector<DimensionPartition> partitions;
  std::vector<Cell> cells;
};

Scenario make_bimodal(double c0, double c1, double sigma, std::uint64_t seed) {
  Scenario s;
  stats::Histogram h(0.0, 1.0, 64);
  Rng rng(seed);
  double mass0 = 0.0, mass1 = 0.0;
  for (int i = 0; i < 5000; ++i) {
    h.add(rng.normal(c0, sigma));
    mass0 += 1.0;
    h.add(rng.normal(c1, sigma));
    mass1 += 1.0;
  }
  s.hists.push_back(h);

  DimensionPartition p;
  p.bins = 64;
  p.cuts = {static_cast<std::size_t>((c0 + c1) / 2.0 * 64.0)};
  s.partitions.push_back(p);

  s.cells.push_back(Cell{{0}, mass0, -1});
  s.cells.push_back(Cell{{1}, mass1, -1});
  return s;
}

TEST(Assess, FewerThanTwoCellsScoresZero) {
  Scenario s = make_bimodal(0.3, 0.7, 0.05, 1);
  std::vector<Cell> one_cell{s.cells[0]};
  EXPECT_EQ(histogram_calinski_harabasz(s.hists, s.partitions, one_cell), 0.0);
  EXPECT_EQ(histogram_calinski_harabasz(s.hists, s.partitions, {}), 0.0);
}

TEST(Assess, SeparatedModesScoreHigherThanOverlapping) {
  const auto separated = make_bimodal(0.2, 0.8, 0.04, 2);
  const auto overlapping = make_bimodal(0.45, 0.55, 0.08, 3);
  const double s1 = histogram_calinski_harabasz(
      separated.hists, separated.partitions, separated.cells);
  const double s2 = histogram_calinski_harabasz(
      overlapping.hists, overlapping.partitions, overlapping.cells);
  EXPECT_GT(s1, s2 * 2.0);
}

TEST(Assess, TighterModesScoreHigher) {
  const auto tight = make_bimodal(0.25, 0.75, 0.02, 4);
  const auto loose = make_bimodal(0.25, 0.75, 0.10, 5);
  const double st = histogram_calinski_harabasz(tight.hists, tight.partitions,
                                                tight.cells);
  const double sl = histogram_calinski_harabasz(loose.hists, loose.partitions,
                                                loose.cells);
  EXPECT_GT(st, sl);
}

TEST(Assess, BreakdownReportsCentroidsAndCenter) {
  const auto s = make_bimodal(0.25, 0.75, 0.04, 6);
  AssessBreakdown breakdown;
  const double score = histogram_calinski_harabasz(s.hists, s.partitions,
                                                   s.cells, &breakdown);
  EXPECT_DOUBLE_EQ(score, breakdown.score);
  EXPECT_GT(breakdown.between, 0.0);
  EXPECT_GT(breakdown.within, 0.0);
  ASSERT_EQ(breakdown.centroids.size(), 2u);
  // Mode bins near 16 (0.25) and 48 (0.75).
  EXPECT_NEAR(static_cast<double>(breakdown.centroids[0][0]), 16.0, 4.0);
  EXPECT_NEAR(static_cast<double>(breakdown.centroids[1][0]), 48.0, 4.0);
  // Global centre = 50th percentile bin, between the two modes.
  ASSERT_EQ(breakdown.global_center.size(), 1u);
  EXPECT_GT(breakdown.global_center[0], 10u);
  EXPECT_LT(breakdown.global_center[0], 54u);
}

TEST(Assess, ArityMismatchThrows) {
  auto s = make_bimodal(0.3, 0.7, 0.05, 7);
  // 2-dim coords against a 1-dim partition set (two cells so the arity
  // check is reached past the |Q| < 2 early-out).
  std::vector<Cell> bad_cells{Cell{{0, 1}, 1.0, -1}, Cell{{1, 0}, 1.0, -1}};
  EXPECT_THROW(
      histogram_calinski_harabasz(s.hists, s.partitions, bad_cells), Error);
  std::vector<DimensionPartition> no_parts;
  EXPECT_THROW(histogram_calinski_harabasz(s.hists, no_parts, s.cells), Error);
}

TEST(Assess, TwoDimensionalCellsCombineDimensions) {
  // Two dims, each bimodal; four cells on the 2x2 primary grid.
  auto d0 = make_bimodal(0.25, 0.75, 0.04, 8);
  auto d1 = make_bimodal(0.3, 0.7, 0.04, 9);
  std::vector<stats::Histogram> hists{d0.hists[0], d1.hists[0]};
  std::vector<DimensionPartition> partitions{d0.partitions[0],
                                             d1.partitions[0]};
  std::vector<Cell> cells;
  for (std::uint32_t a = 0; a < 2; ++a) {
    for (std::uint32_t b = 0; b < 2; ++b) {
      cells.push_back(Cell{{a, b}, 2500.0, -1});
    }
  }
  const double score = histogram_calinski_harabasz(hists, partitions, cells);
  EXPECT_GT(score, 0.0);
}

TEST(Assess, MoreBinsThanCellsRequiredForPositiveScore) {
  // |Bins| == |Q| makes the dof factor zero.
  stats::Histogram h(0.0, 1.0, 2);
  h.add_to_bin(0, 10.0);
  h.add_to_bin(1, 10.0);
  DimensionPartition p;
  p.bins = 2;
  p.cuts = {1};
  std::vector<Cell> cells{Cell{{0}, 10.0, -1}, Cell{{1}, 10.0, -1}};
  EXPECT_EQ(histogram_calinski_harabasz({h}, {p}, cells), 0.0);
}

// ---- Exact-integer W_Q: with integral counts and a small enough bound,
// the index sums each (dimension, primary)'s dispersion once. The reference
// below is the per-cell, per-bin serial loop that every other candidate
// keeps; the two must agree bit for bit. ----

struct ReferenceScore {
  double within = 0.0;
  double score = 0.0;
};

ReferenceScore serial_loop_reference(
    const std::vector<stats::Histogram>& dim_hists,
    const std::vector<DimensionPartition>& partitions,
    const std::vector<Cell>& cells) {
  const std::size_t q_count = cells.size();
  const std::size_t dims = dim_hists.size();
  std::size_t total_bins = 0;
  for (const auto& h : dim_hists) total_bins += h.bins();
  double w_q = 0.0, b_q = 0.0;
  for (const auto& cell : cells) {
    for (std::size_t j = 0; j < dims; ++j) {
      const auto counts = dim_hists[j].counts();
      const auto [begin, end] = partitions[j].range_of(cell.coord[j]);
      std::size_t mode = begin;
      double mode_density = begin < end ? counts[begin] : 0.0;
      double mass = 0.0;
      for (std::size_t b = begin; b < end; ++b) {
        mass += counts[b];
        if (counts[b] > mode_density) {
          mode_density = counts[b];
          mode = b;
        }
      }
      for (std::size_t b = begin; b < end; ++b) {
        const double d = static_cast<double>(b) - static_cast<double>(mode);
        w_q += d * d * counts[b];
      }
      const double dc =
          static_cast<double>(mode) -
          static_cast<double>(stats::percentile_bin(counts, 50.0));
      b_q += dc * dc * mass;
    }
  }
  ReferenceScore out{w_q, 0.0};
  if (b_q > 0.0 && total_bins > q_count) {
    const double dof = static_cast<double>(total_bins - q_count) /
                       static_cast<double>(q_count - 1);
    out.score = (b_q / std::max(w_q, 1e-12)) * dof *
                std::max(1.0, std::log2(static_cast<double>(q_count - 1)));
  }
  return out;
}

/// A random candidate: 1-6 kept dimensions at depths 3-12 (uniform or per
/// dimension), integer counts with runs of empty bins, up to 8 cuts per
/// dimension and 2-300 cells on the primary grid.
Scenario random_candidate(Rng& rng) {
  Scenario s;
  const auto dims = 1 + rng.uniform_int(6);
  const bool uniform_depth = rng.uniform_int(2) == 0;
  const int depth0 = 3 + static_cast<int>(rng.uniform_int(10));
  for (std::size_t j = 0; j < dims; ++j) {
    const int depth =
        uniform_depth ? depth0 : 3 + static_cast<int>(rng.uniform_int(10));
    const std::size_t bins = std::size_t{1} << depth;
    stats::Histogram h(0.0, 1.0, bins);
    for (std::size_t b = 0; b < bins; ++b) {
      if (rng.uniform_int(4) != 0) {
        h.add_to_bin(b, static_cast<double>(rng.uniform_int(5000)));
      }
    }
    s.hists.push_back(std::move(h));
    DimensionPartition p;
    p.bins = bins;
    const auto n_cuts = rng.uniform_int(std::min<std::uint64_t>(9, bins - 1));
    for (std::uint64_t c = 0; c < n_cuts; ++c) {
      p.cuts.push_back(1 + rng.uniform_int(bins - 1));
    }
    std::sort(p.cuts.begin(), p.cuts.end());
    p.cuts.erase(std::unique(p.cuts.begin(), p.cuts.end()), p.cuts.end());
    s.partitions.push_back(std::move(p));
  }
  const auto q = 2 + rng.uniform_int(299);
  for (std::uint64_t i = 0; i < q; ++i) {
    Cell cell;
    for (const auto& p : s.partitions) {
      cell.coord.push_back(
          static_cast<std::uint32_t>(rng.uniform_int(p.primary_count())));
    }
    cell.density = 1.0;
    s.cells.push_back(std::move(cell));
  }
  return s;
}

/// Expect the index, with and without a breakdown, to equal the serial
/// loop's bits, W_Q included.
void expect_bits_of_serial_loop(const Scenario& s) {
  const auto ref = serial_loop_reference(s.hists, s.partitions, s.cells);
  AssessBreakdown breakdown;
  const double with =
      histogram_calinski_harabasz(s.hists, s.partitions, s.cells, &breakdown);
  const double without =
      histogram_calinski_harabasz(s.hists, s.partitions, s.cells);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(breakdown.within),
            std::bit_cast<std::uint64_t>(ref.within))
      << breakdown.within << " vs " << ref.within;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(with),
            std::bit_cast<std::uint64_t>(ref.score));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(without),
            std::bit_cast<std::uint64_t>(ref.score));
}

/// A bin inside the primary that cells[0] occupies in dimension 0, so the
/// serial loop reads it.
std::size_t occupied_bin(const Scenario& s, Rng& rng) {
  const auto [begin, end] = s.partitions[0].range_of(s.cells[0].coord[0]);
  return begin + rng.uniform_int(end - begin);
}

/// The exact-integer bound: sum over (cell, dimension) of bins^2 * mass.
double within_bound(const Scenario& s) {
  double bound = 0.0;
  for (const auto& cell : s.cells) {
    for (std::size_t j = 0; j < s.hists.size(); ++j) {
      const auto [begin, end] = s.partitions[j].range_of(cell.coord[j]);
      double mass = 0.0;
      for (std::size_t b = begin; b < end; ++b) mass += s.hists[j].count(b);
      const auto bins = static_cast<double>(s.partitions[j].bins);
      bound += bins * bins * mass;
    }
  }
  return bound;
}

TEST(AssessIntegralWithin, MatchesTheSerialLoopBitForBit) {
  Rng rng(20261020);
  int below_bound = 0;
  for (int i = 0; i < 400; ++i) {
    SCOPED_TRACE("candidate " + std::to_string(i));
    const auto s = random_candidate(rng);
    below_bound += within_bound(s) < 0x1p53 ? 1 : 0;
    expect_bits_of_serial_loop(s);
  }
  // Most candidates take the per-primary sum; the deepest ones with many
  // cells exceed the bound and keep the loop.
  EXPECT_GT(below_bound, 200);
}

TEST(AssessIntegralWithin, OneFractionalCountKeepsTheSerialLoop) {
  Rng rng(71);
  for (int i = 0; i < 400; ++i) {
    SCOPED_TRACE("candidate " + std::to_string(i));
    auto s = random_candidate(rng);
    s.hists[0].add_to_bin(occupied_bin(s, rng), 0.3);
    expect_bits_of_serial_loop(s);
  }
}

TEST(AssessIntegralWithin, BoundAt2To53KeepsTheSerialLoop) {
  // A count of 2^40 at depth 12 puts bins^2 * mass at 2^64 or more: the
  // serial loop's partial sums are no longer exact integers.
  Rng rng(53);
  int deep = 0;
  for (int i = 0; i < 400; ++i) {
    auto s = random_candidate(rng);
    if (s.hists[0].bins() != 4096) continue;
    ++deep;
    SCOPED_TRACE("candidate " + std::to_string(i));
    s.hists[0].add_to_bin(occupied_bin(s, rng), 0x1p40);
    expect_bits_of_serial_loop(s);
  }
  EXPECT_GT(deep, 10);
}

}  // namespace
}  // namespace keybin2::core
