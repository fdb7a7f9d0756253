// Property tests for the fused project→key→bin data plane (core/fused.hpp):
// the fused kernels must be BIT-IDENTICAL to the reference kernels (project,
// a range scan, compute_keys, build_histograms) at every level — individual
// keys, envelopes and histogram counts — across seeds and depths. Any FP
// reassociation in the fused inner loops shows up here as an exact-equality
// failure. Whole fits are pinned in test_pipeline (Equivalence.*) and swept
// across ranks, backends and comm modes in test_keybin2
// (DistributedEquivalence).
#include "core/fused.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "core/binner.hpp"
#include "core/keys.hpp"
#include "core/projection.hpp"

namespace keybin2::core {
namespace {

// ---- Kernel level: fused_key vs key_of ----

TEST(FusedKey, MatchesKeyOfOnRandomValuesAndEdges) {
  Rng rng(97);
  for (int d_max : {1, 3, 7, 12, 24}) {
    const Range range{-2.5, 7.25};
    const auto scale = make_bin_scale(range, d_max);
    // Random interior + outside values.
    for (int i = 0; i < 20000; ++i) {
      const double x = rng.uniform(range.lo - 2.0, range.hi + 2.0);
      ASSERT_EQ(fused_key(x, scale), key_of(x, range, d_max))
          << "x=" << x << " d_max=" << d_max;
    }
    // Exact edges and near-edges, including the bin boundaries themselves.
    const std::size_t bins = std::size_t{1} << static_cast<unsigned>(d_max);
    std::vector<double> probes{range.lo,
                               range.hi,
                               std::nextafter(range.lo, -1e300),
                               std::nextafter(range.lo, 1e300),
                               std::nextafter(range.hi, -1e300),
                               std::nextafter(range.hi, 1e300),
                               -0.0,
                               0.0,
                               -1e300,
                               1e300};
    for (std::size_t b = 0; b <= bins && b < 4096; ++b) {
      const double edge =
          range.lo + (range.hi - range.lo) * static_cast<double>(b) /
                         static_cast<double>(bins);
      probes.push_back(edge);
      probes.push_back(std::nextafter(edge, -1e300));
      probes.push_back(std::nextafter(edge, 1e300));
    }
    for (double x : probes) {
      ASSERT_EQ(fused_key(x, scale), key_of(x, range, d_max))
          << "x=" << x << " d_max=" << d_max;
    }
  }
}

TEST(FusedKey, SignedZeroRangeEdge) {
  // A range whose lower edge is -0.0: x = +0.0 compares == lo, so both paths
  // must take the "clamp to bin 0" branch.
  const Range range{-0.0, 1.0};
  const auto scale = make_bin_scale(range, 4);
  for (double x : {-0.0, 0.0, 1e-300}) {
    EXPECT_EQ(fused_key(x, scale), key_of(x, range, 4)) << x;
  }
}

// ---- Pass level: envelopes, keys, histograms ----

Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      m(i, j) = rng.normal(0.0, 3.0);
    }
  }
  return m;
}

TEST(FusedPasses, ProjectEnvelopeMatchesStagedProjectAndScan) {
  for (std::uint64_t seed : {11ULL, 12ULL, 13ULL}) {
    const auto points = random_matrix(4097, 12, seed);
    const auto projection = make_projection_matrix(12, 5, seed * 31 + 7);

    const auto reference = project(points, projection);
    std::vector<double> ref_lo(5, std::numeric_limits<double>::infinity());
    std::vector<double> ref_hi(5, -std::numeric_limits<double>::infinity());
    for (std::size_t i = 0; i < reference.rows(); ++i) {
      auto row = reference.row(i);
      for (std::size_t j = 0; j < 5; ++j) {
        ref_lo[j] = std::min(ref_lo[j], row[j]);
        ref_hi[j] = std::max(ref_hi[j], row[j]);
      }
    }

    FusedWorkspace ws;
    const auto& fused = fused_project_envelope(points, projection, 5, ws);
    ASSERT_EQ(fused.rows(), reference.rows());
    ASSERT_EQ(fused.cols(), reference.cols());
    for (std::size_t i = 0; i < reference.rows(); ++i) {
      for (std::size_t j = 0; j < 5; ++j) {
        ASSERT_EQ(fused(i, j), reference(i, j)) << i << "," << j;
      }
    }
    EXPECT_EQ(ws.env_lo, ref_lo);
    EXPECT_EQ(ws.env_hi, ref_hi);
  }
}

TEST(FusedPasses, ProjectEnvelopeMatchesProjectAtEveryWidth) {
  // The one projection kernel at every lane width — whole and partial lane
  // blocks, n_rp 1 to 12 — with one, several and leftover rows in flight,
  // on inputs holding exact zeros (one whole row of them) and negatives.
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (int n_rp = 1; n_rp <= 12; ++n_rp) {
    for (const std::size_t rows : {1u, 2u, 3u, 5u, 4097u}) {
      auto points = random_matrix(rows, 13, 100 + n_rp + rows);
      auto flat = points.flat();
      for (std::size_t i = 0; i < flat.size(); i += 3) flat[i] = 0.0;
      for (double& v : points.row(rows / 2)) v = 0.0;
      const auto projection =
          make_projection_matrix(13, n_rp, 7 * n_rp + rows);
      const auto dims = static_cast<std::size_t>(n_rp);

      const auto reference = project(points, projection);
      std::vector<double> ref_lo(dims, std::numeric_limits<double>::infinity());
      std::vector<double> ref_hi(dims,
                                 -std::numeric_limits<double>::infinity());
      for (std::size_t i = 0; i < rows; ++i) {
        for (std::size_t j = 0; j < dims; ++j) {
          ref_lo[j] = std::min(ref_lo[j], reference(i, j));
          ref_hi[j] = std::max(ref_hi[j], reference(i, j));
        }
      }

      FusedWorkspace ws;
      const auto& fused = fused_project_envelope(points, projection, dims, ws);
      ASSERT_EQ(fused.rows(), rows);
      ASSERT_EQ(fused.cols(), dims);
      for (std::size_t i = 0; i < rows; ++i) {
        for (std::size_t j = 0; j < dims; ++j) {
          ASSERT_EQ(bits(fused(i, j)), bits(reference(i, j)))
              << "n_rp " << n_rp << " rows " << rows << " at " << i << ","
              << j;
        }
      }
      ASSERT_EQ(ws.env_lo.size(), dims);
      for (std::size_t j = 0; j < dims; ++j) {
        EXPECT_EQ(bits(ws.env_lo[j]), bits(ref_lo[j])) << n_rp << "," << j;
        EXPECT_EQ(bits(ws.env_hi[j]), bits(ref_hi[j])) << n_rp << "," << j;
      }
    }
  }
}

TEST(FusedPasses, IdentityProjectionIsZeroCopyPassthrough) {
  const auto points = random_matrix(100, 4, 5);
  FusedWorkspace ws;
  const auto& out = fused_project_envelope(points, Matrix(), 4, ws);
  EXPECT_EQ(&out, &points);  // same object, not a copy
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_LE(ws.env_lo[j], ws.env_hi[j]);
  }
}

TEST(FusedPasses, EmptyShardStillReportsInfiniteEnvelopes) {
  // An empty rank must produce dims-sized ±inf envelopes so the group's
  // min/max allreduce has matching lengths on every rank.
  Matrix empty;
  FusedWorkspace ws;
  const auto& out = fused_project_envelope(empty, Matrix(), 3, ws);
  EXPECT_EQ(out.rows(), 0u);
  ASSERT_EQ(ws.env_lo.size(), 3u);
  ASSERT_EQ(ws.env_hi.size(), 3u);
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_TRUE(std::isinf(ws.env_lo[j]) && ws.env_lo[j] > 0.0);
    EXPECT_TRUE(std::isinf(ws.env_hi[j]) && ws.env_hi[j] < 0.0);
  }
}

TEST(FusedPasses, KeyBinMatchesComputeKeysAndBuildHistograms) {
  for (int d_max : {3, 7, 10}) {
    for (std::uint64_t seed : {21ULL, 22ULL}) {
      const auto projected = random_matrix(4096 + 33, 4, seed);
      std::vector<Range> ranges;
      for (std::size_t j = 0; j < 4; ++j) {
        double lo = projected(0, j), hi = projected(0, j);
        for (std::size_t i = 1; i < projected.rows(); ++i) {
          lo = std::min(lo, projected(i, j));
          hi = std::max(hi, projected(i, j));
        }
        ranges.push_back(Range{lo, hi});
      }

      const auto ref_keys = compute_keys(projected, ranges, d_max);
      const auto ref_hists = build_histograms(ref_keys, ranges);

      FusedWorkspace ws;
      const auto hists = fused_key_bin(projected, ranges, d_max, ws);

      ASSERT_EQ(ws.keys.points(), ref_keys.points());
      ASSERT_EQ(ws.keys.dims(), ref_keys.dims());
      for (std::size_t i = 0; i < ref_keys.points(); ++i) {
        for (std::size_t j = 0; j < ref_keys.dims(); ++j) {
          ASSERT_EQ(ws.keys.at(i, j), ref_keys.at(i, j)) << i << "," << j;
        }
      }
      ASSERT_EQ(hists.size(), ref_hists.size());
      for (std::size_t j = 0; j < hists.size(); ++j) {
        const auto got = hists[j].deepest_counts();
        const auto want = ref_hists[j].deepest_counts();
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t b = 0; b < got.size(); ++b) {
          ASSERT_EQ(got[b], want[b]) << "dim " << j << " bin " << b;
        }
      }
    }
  }
}

TEST(FusedPasses, KeysOnlyMatchComputeKeysAtEveryWidth) {
  // fused_keys keys the streaming reservoir: widths 4 and 8 take pass B's
  // vector key loops, the others the scalar fused_key loop. Probes at and
  // beyond the range edges ride along with the random rows.
  KeyTable keys;  // reused across calls, as a refit reuses it
  for (std::size_t dims = 1; dims <= 9; ++dims) {
    for (int d_max : {1, 7, 12}) {
      auto points = random_matrix(1000 + dims, dims, 40 + dims);
      std::vector<Range> ranges(dims, Range{-4.0, 5.5});
      points(0, 0) = -4.0;
      points(1, dims - 1) = 5.5;
      points(2, 0) = 1e300;
      points(3, dims - 1) = -0.0;
      const auto want = compute_keys(points, ranges, d_max);
      fused_keys(points, ranges, d_max, keys);
      ASSERT_EQ(keys.points(), want.points());
      ASSERT_EQ(keys.dims(), dims);
      ASSERT_EQ(keys.d_max(), d_max);
      for (std::size_t i = 0; i < want.points(); ++i) {
        for (std::size_t j = 0; j < dims; ++j) {
          ASSERT_EQ(keys.at(i, j), want.at(i, j))
              << "dims " << dims << " d_max " << d_max << " at " << i << ","
              << j;
        }
      }
    }
  }
}

TEST(FusedPasses, WorkspaceReuseAcrossShrinkingInputsStaysCorrect) {
  // Trial workspaces are reused across trials; a later smaller input must not
  // see stale rows/counts from an earlier larger one.
  FusedWorkspace ws;
  for (std::size_t rows : {5000u, 1200u, 7u}) {
    const auto projected = random_matrix(rows, 3, rows);
    std::vector<Range> ranges(3, Range{-12.0, 12.0});
    const auto ref_keys = compute_keys(projected, ranges, 6);
    const auto ref_hists = build_histograms(ref_keys, ranges);
    const auto hists = fused_key_bin(projected, ranges, 6, ws);
    ASSERT_EQ(ws.keys.points(), rows);
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(hists[j].total(), ref_hists[j].total());
      const auto got = hists[j].deepest_counts();
      const auto want = ref_hists[j].deepest_counts();
      for (std::size_t b = 0; b < got.size(); ++b) {
        ASSERT_EQ(got[b], want[b]);
      }
    }
  }
}

}  // namespace
}  // namespace keybin2::core
