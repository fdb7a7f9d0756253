#include "core/partitioner.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "stats/kde.hpp"
#include "stats/smoothing.hpp"

namespace keybin2::core {

std::uint32_t DimensionPartition::primary_of(std::size_t b) const {
  KB2_CHECK_MSG(b < bins, "bin " << b << " out of " << bins);
  const auto it = std::upper_bound(cuts.begin(), cuts.end(), b);
  return static_cast<std::uint32_t>(it - cuts.begin());
}

std::pair<std::size_t, std::size_t> DimensionPartition::range_of(
    std::size_t p) const {
  KB2_CHECK_MSG(p < primary_count(), "primary " << p << " out of "
                                                << primary_count());
  const std::size_t begin = p == 0 ? 0 : cuts[p - 1];
  const std::size_t end = p == cuts.size() ? bins : cuts[p];
  return {begin, end};
}

void write_partitions(ByteWriter& w,
                      const std::vector<DimensionPartition>& partitions) {
  w.write<std::uint64_t>(partitions.size());
  for (const auto& p : partitions) {
    w.write<std::uint64_t>(p.bins);
    w.write_vec(p.cuts);
  }
}

std::vector<DimensionPartition> read_partitions(ByteReader& r) {
  const auto n = r.read<std::uint64_t>();
  // Each partition takes at least its two u64 prefixes, which bounds the
  // count before anything is allocated.
  KB2_CHECK_MSG(n <= r.remaining() / (2 * sizeof(std::uint64_t)),
                "partition count " << n << " exceeds the remaining "
                                   << r.remaining() << " bytes");
  std::vector<DimensionPartition> out(n);
  for (std::size_t k = 0; k < out.size(); ++k) {
    auto& p = out[k];
    p.bins = r.read<std::uint64_t>();
    p.cuts = r.read_vec<std::size_t>();
    std::size_t prev = 0;
    for (const std::size_t cut : p.cuts) {
      KB2_CHECK_MSG(cut > prev && cut < p.bins,
                    "partition " << k << ": cut " << cut << " after " << prev
                                 << " is not ascending inside (0, "
                                 << p.bins << ")");
      prev = cut;
    }
  }
  return out;
}

DimensionPartition partition_discrete_opt(std::span<const double> counts,
                                          double min_prominence,
                                          PartitionTrace* trace,
                                          Smoothing smoothing) {
  DimensionPartition out;
  out.bins = counts.size();
  if (counts.size() < 3) return out;

  const std::size_t w = stats::smoothing_window(counts.size());
  const auto smoothed =
      smoothing == Smoothing::kMovingAverage
          ? stats::moving_average(counts, w)
          : stats::kde_smooth(counts, stats::silverman_bandwidth(counts));
  const double peak = *std::max_element(smoothed.begin(), smoothed.end());
  if (peak <= 0.0) return out;

  const double prominence = min_prominence * peak;
  const auto modes = stats::prominent_maxima(smoothed, prominence);

  // The regression and its inflections are diagnostics: no cut reads them,
  // so only a trace pays for them.
  if (trace) {
    trace->smoothed = smoothed;
    trace->slope = stats::local_linear_slope(smoothed, w);
    trace->curvature = stats::first_difference(trace->slope);
    trace->modes = modes;
    trace->inflections = stats::sign_changes(trace->curvature);
  }

  // One cut per pair of consecutive modes, at the lowest smoothed density
  // between them (the inter-cluster separation maximizer). The cut is the
  // first bin of the right-hand primary cluster.
  for (std::size_t m = 0; m + 1 < modes.size(); ++m) {
    std::size_t argmin = modes[m];
    double best = smoothed[modes[m]];
    for (std::size_t b = modes[m] + 1; b <= modes[m + 1]; ++b) {
      if (smoothed[b] < best) {
        best = smoothed[b];
        argmin = b;
      }
    }
    // Empty primaries cannot happen: argmin lies strictly between two
    // distinct modes, but guard against duplicate cuts at plateaus.
    if (argmin > 0 && (out.cuts.empty() || out.cuts.back() < argmin)) {
      out.cuts.push_back(argmin);
    }
  }
  return out;
}

DimensionPartition partition_v1_threshold(std::span<const double> counts,
                                          double density_threshold) {
  DimensionPartition out;
  out.bins = counts.size();
  if (counts.empty()) return out;
  const double peak = *std::max_element(counts.begin(), counts.end());
  if (peak <= 0.0) return out;
  const double thresh = density_threshold * peak;

  // Find maximal dense runs.
  std::vector<std::pair<std::size_t, std::size_t>> runs;  // [begin, end)
  std::size_t i = 0;
  while (i < counts.size()) {
    if (counts[i] >= thresh) {
      std::size_t j = i;
      while (j < counts.size() && counts[j] >= thresh) ++j;
      runs.emplace_back(i, j);
      i = j;
    } else {
      ++i;
    }
  }
  // A cut between consecutive runs at the midpoint of the sparse gap.
  for (std::size_t r = 0; r + 1 < runs.size(); ++r) {
    const std::size_t cut = (runs[r].second + runs[r + 1].first + 1) / 2;
    if (cut > 0 && (out.cuts.empty() || out.cuts.back() < cut)) {
      out.cuts.push_back(cut);
    }
  }
  return out;
}

DimensionPartition partition(std::span<const double> counts,
                             const Params& params, PartitionTrace* trace) {
  if (params.use_discrete_opt) {
    return partition_discrete_opt(counts, params.min_prominence, trace,
                                  params.smoothing);
  }
  return partition_v1_threshold(counts, params.v1_density_threshold);
}

}  // namespace keybin2::core
