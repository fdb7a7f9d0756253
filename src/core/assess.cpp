#include "core/assess.hpp"

#include <algorithm>
#include <cmath>
#include <tuple>

#include "common/error.hpp"
#include "stats/distributions.hpp"

namespace keybin2::core {

double histogram_calinski_harabasz(
    const std::vector<stats::Histogram>& dim_hists,
    const std::vector<DimensionPartition>& partitions,
    const std::vector<Cell>& cells, AssessBreakdown* breakdown) {
  KB2_CHECK_MSG(dim_hists.size() == partitions.size(),
                "one histogram per partitioned dimension required");
  const std::size_t q_count = cells.size();
  if (breakdown) *breakdown = AssessBreakdown{};
  if (q_count < 2) return 0.0;

  const std::size_t dims = dim_hists.size();
  std::size_t total_bins = 0;
  for (const auto& h : dim_hists) total_bins += h.bins();

  // Global centre: 50th percentile bin per dimension.
  std::vector<std::size_t> global_center(dims, 0);
  for (std::size_t j = 0; j < dims; ++j) {
    global_center[j] = stats::percentile_bin(dim_hists[j].counts(), 50.0);
  }

  // Per (dimension, primary): its bin range, the mode bin inside it (the
  // centroid) and its mass, found once rather than once per cell. The same
  // pass notes whether every count the index reads is a non-negative
  // integer.
  struct Primary {
    std::size_t begin = 0, end = 0, mode = 0;
    double mass = 0.0;
    double within = 0.0;  // sum of (b - mode)^2 * count, integral path only
  };
  std::vector<std::vector<Primary>> primaries(dims);
  bool integral = true;
  for (std::size_t j = 0; j < dims; ++j) {
    const auto counts = dim_hists[j].counts();
    primaries[j].resize(partitions[j].primary_count());
    for (std::size_t p = 0; p < primaries[j].size(); ++p) {
      auto& pr = primaries[j][p];
      std::tie(pr.begin, pr.end) = partitions[j].range_of(p);
      pr.mode = pr.begin;
      double mode_density = pr.begin < pr.end ? counts[pr.begin] : 0.0;
      for (std::size_t b = pr.begin; b < pr.end; ++b) {
        pr.mass += counts[b];
        integral = integral && counts[b] >= 0.0 &&
                   counts[b] == std::floor(counts[b]);
        if (counts[b] > mode_density) {
          mode_density = counts[b];
          pr.mode = b;
        }
      }
    }
  }

  // Between-cluster dispersion against the global centre, and the bound
  // on every partial sum of W_Q: each of its terms is (b - mode)^2 *
  // count <= bins^2 * count, so all of them together stay within
  // sum over (cell, dimension) of bins^2 * mass.
  double b_q = 0.0, bound = 0.0;
  if (breakdown) breakdown->centroids.reserve(q_count);
  for (const auto& cell : cells) {
    KB2_CHECK_MSG(cell.coord.size() == dims, "cell arity mismatch");
    for (std::size_t j = 0; j < dims; ++j) {
      KB2_CHECK_MSG(cell.coord[j] < primaries[j].size(),
                    "primary " << cell.coord[j] << " out of "
                               << primaries[j].size());
      const auto& pr = primaries[j][cell.coord[j]];
      const double dc = static_cast<double>(pr.mode) -
                        static_cast<double>(global_center[j]);
      b_q += dc * dc * pr.mass;
      const auto bins = static_cast<double>(partitions[j].bins);
      bound += bins * bins * pr.mass;
    }
    if (breakdown) {
      auto& centroid = breakdown->centroids.emplace_back(dims);
      for (std::size_t j = 0; j < dims; ++j) {
        centroid[j] = primaries[j][cell.coord[j]].mode;
      }
    }
  }

  // Within-cluster dispersion: (b - mode)^2 * count over a primary's bins,
  // added into `sum` in bin order. The loop adds it per (cell, dimension)
  // into one accumulator. With integral counts and the bound below 2^53
  // every partial sum of that loop is an exact integer, so each (dimension,
  // primary)'s dispersion can be summed once and added per cell with the
  // same bits. (A bound that reaches 2^53 cannot round back below it, so
  // the test is exact too.)
  const auto add_within = [&](double& sum, const Primary& pr, std::size_t j) {
    const auto counts = dim_hists[j].counts();
    for (std::size_t b = pr.begin; b < pr.end; ++b) {
      const double d = static_cast<double>(b) - static_cast<double>(pr.mode);
      sum += d * d * counts[b];
    }
  };
  double w_q = 0.0;
  if (integral && bound < 0x1p53) {
    for (std::size_t j = 0; j < dims; ++j) {
      for (auto& pr : primaries[j]) add_within(pr.within, pr, j);
    }
    for (const auto& cell : cells) {
      for (std::size_t j = 0; j < dims; ++j) {
        w_q += primaries[j][cell.coord[j]].within;
      }
    }
  } else {
    for (const auto& cell : cells) {
      for (std::size_t j = 0; j < dims; ++j) {
        add_within(w_q, primaries[j][cell.coord[j]], j);
      }
    }
  }

  double score = 0.0;
  if (b_q > 0.0 && total_bins > q_count) {
    const double w_safe = std::max(w_q, 1e-12);
    const double dof = static_cast<double>(total_bins - q_count) /
                       static_cast<double>(q_count - 1);
    const double spread_factor =
        std::max(1.0, std::log2(static_cast<double>(q_count - 1)));
    score = (b_q / w_safe) * dof * spread_factor;
  }

  if (breakdown) {
    breakdown->within = w_q;
    breakdown->between = b_q;
    breakdown->score = score;
    breakdown->global_center = std::move(global_center);
  }
  return score;
}

}  // namespace keybin2::core
