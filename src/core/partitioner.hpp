// Histogram partitioning (paper §3.2).
//
// A partition of one dimension is a set of "primary clusters": contiguous
// bin ranges separated by cuts. KeyBin2 finds the cuts by non-parametric
// discrete optimization entirely in histogram space:
//   1. smooth the merged histogram with a moving average (window = sqrt(B)),
//   2. modes = prominent maxima of the smoothed density; one cut at the
//      density minimum between each pair of consecutive modes.
// This maximizes inter-cluster separation (cuts sit at the lowest density
// between modes) while minimizing intra-cluster spread (every mode keeps its
// full basin), with no density threshold to tune.
//
// The paper's windowed local linear regression (slope, first derivative)
// and the inflection points of its first difference are diagnostics: no cut
// depends on them, so they are computed only into a PartitionTrace, which
// only tests and the Figure 2 bench read.
//
// The KeyBin-v1 heuristic (dense runs above a fixed fraction of the peak) is
// kept for the ablation benches.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/serialize.hpp"
#include "core/params.hpp"
#include "stats/histogram.hpp"

namespace keybin2::core {

/// A dimension's partition: cut positions and derived primary clusters.
struct DimensionPartition {
  /// Start bin of every primary cluster except the first (sorted,
  /// exclusive of 0); empty means the whole dimension is one cluster.
  std::vector<std::size_t> cuts;
  std::size_t bins = 0;

  std::size_t primary_count() const { return cuts.size() + 1; }

  /// Primary cluster index of bin b (0-based).
  std::uint32_t primary_of(std::size_t b) const;

  /// Bin range [begin, end) of primary cluster p.
  std::pair<std::size_t, std::size_t> range_of(std::size_t p) const;
};

/// Wire form of a partition list, shared by Model bytes and the partition
/// stage's cut exchange: a u64 count, then per partition a u64 `bins` and
/// the cuts as a length-prefixed u64 vector.
void write_partitions(ByteWriter& w,
                      const std::vector<DimensionPartition>& partitions);

/// Inverse of write_partitions. Throws keybin2::Error on a truncated list or
/// on cuts that are not strictly ascending inside (0, bins).
std::vector<DimensionPartition> read_partitions(ByteReader& r);

/// Diagnostic trace of the discrete optimization (exposed for tests and the
/// Figure 2 bench). Passing one is what makes the partitioner compute the
/// slope, curvature and inflections; the cuts are the same either way.
struct PartitionTrace {
  std::vector<double> smoothed;
  std::vector<double> slope;        // local-regression first derivative
  std::vector<double> curvature;    // first difference of slopes
  std::vector<std::size_t> modes;   // prominent maxima
  std::vector<std::size_t> inflections;
};

/// Discrete-optimization partitioner (KeyBin2). `min_prominence` is a
/// fraction of the smoothed peak density. `smoothing` selects the paper's
/// moving average or the KDE it benchmarks against (§3.2).
DimensionPartition partition_discrete_opt(
    std::span<const double> counts, double min_prominence,
    PartitionTrace* trace = nullptr,
    Smoothing smoothing = Smoothing::kMovingAverage);

/// KeyBin v1 heuristic: primary clusters are maximal runs of bins whose
/// density is at least `density_threshold` * peak; sparse gaps between runs
/// are split at their midpoint between the neighbouring runs.
DimensionPartition partition_v1_threshold(std::span<const double> counts,
                                          double density_threshold);

/// Dispatch on Params (used by the pipeline and ablation benches).
DimensionPartition partition(std::span<const double> counts,
                             const Params& params,
                             PartitionTrace* trace = nullptr);

}  // namespace keybin2::core
