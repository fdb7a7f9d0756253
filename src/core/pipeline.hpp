// The staged KeyBin2 pipeline (paper §3), shared by every clustering driver.
//
// The paper's scalability rests on this stage sequence:
//
//   project -> agree-ranges -> key/bin -> merge-histograms -> partition
//           -> assess
//
// Batch fit(), the streaming engine's refit(), the out-of-core driver, and
// the md::insitu analyzer all used to carry their own copy of this sequence;
// they now compose the stage functions below, each of which opens a tracer
// scope on the supplied runtime::Context (paths like "fit/trial0/bin") so
// wall time and communication volume are attributable per stage. Batch
// fit's project and key/bin stages are the fused kernels (core/fused.hpp),
// run under the kProject and kBin scopes.
//
// Collective discipline: stages marked [collective] must be entered by every
// rank of the context's communicator in the same order (SPMD), exactly like
// the MPI calls they wrap.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/cells.hpp"
#include "core/keys.hpp"
#include "core/model.hpp"
#include "core/params.hpp"
#include "core/partitioner.hpp"
#include "runtime/context.hpp"
#include "stats/histogram.hpp"

namespace keybin2::core {

/// Canonical tracer scope names for the pipeline stages. Every driver opens
/// its scopes through these constants, so trace consumers — the kb2_analyze
/// stage table, the HealthMonitor's EWMA baselines, the perf-regression
/// gate's per-stage metrics — match on one stable spelling instead of
/// string literals scattered across drivers.
namespace stage {
inline constexpr const char* kFit = "fit";
inline constexpr const char* kProject = "project";
inline constexpr const char* kAgreeRanges = "agree_ranges";
inline constexpr const char* kBin = "bin";
inline constexpr const char* kMergeHistograms = "merge_histograms";
inline constexpr const char* kCollapse = "collapse";
inline constexpr const char* kPartition = "partition";
inline constexpr const char* kAssess = "assess";
inline constexpr const char* kShareModel = "share_model";
inline constexpr const char* kLabel = "label";
inline constexpr const char* kRefit = "refit";
inline constexpr const char* kRebin = "rebin";
inline constexpr const char* kReservoirKeys = "reservoir_keys";
inline constexpr const char* kOutOfCore = "out_of_core";
inline constexpr const char* kPass1Histograms = "pass1_histograms";
inline constexpr const char* kPass2Label = "pass2_label";

/// Per-trial scope name "trial<i>"; fold_scope_path collapses every
/// instance onto the "trial*" baseline key.
inline std::string trial(int index) {
  return "trial" + std::to_string(index);
}
}  // namespace stage

/// Stage 2 [collective]: agree on per-dimension key ranges [r_min, r_max]
/// from this rank's per-dimension envelope (batch fit folds it into the
/// projection pass; the streaming engine tracks it incrementally) via
/// min/max allreduces. Dimensions for which no rank observed any value
/// (every shard empty) come back as the degenerate-but-valid range [0, 1)
/// instead of the +inf/-inf extremes the empty shards contributed.
std::vector<Range> stage_agree_ranges(runtime::Context& ctx,
                                      std::span<const double> local_lo,
                                      std::span<const double> local_hi);

/// kAuto comm-mode density rule: switch the merge to the coreset plane once
/// the previous merge's global non-zero count reaches this multiple of
/// `coreset_max_cells` — the regime where sparse encoding has re-densified
/// and per-rank traffic grows with occupancy instead of staying capped.
inline constexpr std::uint64_t kCoresetAutoDensityFactor = 4;

/// Stage 4 [collective]: merge per-dimension histograms across ranks
/// (elementwise sum of deepest-level counts); on return every rank holds
/// the global histograms. `params.comm_mode` selects the exchange
/// (DESIGN.md §9): kDense pins the binomial tree, kSparse is the adaptive
/// dense/sparse allreduce, kRing passes the sums around the ring (§3 step
/// 3), kCoreset ships capped weighted sketches (approximate, sum-only,
/// deterministic per seed), and kAuto upgrades sparse to coreset using the
/// density observed on the *previous* merge.
///
/// `integral_counts` declares that every count is an integer-valued double
/// (weight-1.0 binning, as in batch fit). Integer sums below 2^53 are exact
/// under any association, which frees the sparse plane to pick the
/// bandwidth-optimal recursive-halving allreduce with sparse segment
/// encoding for large payloads (comm::AllreduceAlgo::kAuto). Leave it false
/// for fractional counts (the streaming engine's rebinned reservoirs),
/// where re-associating the sum would perturb results by rounding: every
/// exact mode then takes the fixed binomial tree (kRing keeps its ring),
/// and kAuto never upgrades; only a forced kCoreset still sketches.
///
/// `observed_nnz` (optional) carries the kAuto density across calls: on
/// entry it is the last merge's global non-zero count (0 = unknown, stay
/// exact); on return it holds this merge's. Every rank computes it from the
/// identical merged vector, so the kAuto protocol choice needs no extra
/// communication and can never diverge across ranks. Records reduce_bytes
/// / reduce_algo_* / sparse_hits metrics.
void stage_merge_histograms(runtime::Context& ctx,
                            std::vector<stats::HierarchicalHistogram>& hists,
                            const Params& params, bool integral_counts,
                            std::uint64_t* observed_nnz = nullptr);

/// KS-based dimension collapsing on a mid-level histogram (§3.1): returns
/// the indices of dimensions showing multimodal structure. [local; input
/// histograms are already global, so all ranks agree.]
std::vector<int> collapse_dimensions(
    runtime::Context& ctx,
    const std::vector<stats::HierarchicalHistogram>& hists,
    const Params& params);

/// Depth candidates for the partition sweep: classic mode yields one
/// uniform-depth vector per depth in [min_depth, max_depth]; the
/// per-dimension extension yields the single combined candidate where every
/// kept dimension picked its own depth by 1-D histogram-space CH.
std::vector<std::vector<int>> depth_candidates(
    const std::vector<stats::HierarchicalHistogram>& hists,
    const std::vector<int>& kept_dims, const Params& params);

/// Stage 5 output: one depth candidate's partitions.
struct PartitionedCandidate {
  std::vector<int> depths;  // one per kept dimension
  std::vector<stats::Histogram> dim_hists;
  std::vector<DimensionPartition> partitions;
};

/// Stage 5 [local]: cut each kept dimension's global histogram at the given
/// depth with the discrete-optimization partitioner. Deterministic from the
/// merged histograms, so every rank computes identical partitions.
PartitionedCandidate stage_partition(
    runtime::Context& ctx,
    const std::vector<stats::HierarchicalHistogram>& hists,
    const std::vector<int>& kept_dims, std::vector<int> depths,
    const Params& params);

/// Stage 6 output: the candidate's occupied cells and histogram-space CH
/// score, valid at the root rank only (`scored` false elsewhere).
struct AssessedCandidate {
  bool scored = false;
  double score = 0.0;
  std::vector<Cell> cells;
};

/// Stage 6 [collective]: count this rank's occupied cells, gather and merge
/// at root, and rate the candidate with the histogram-space
/// Calinski–Harabasz index. `weight_per_point` scales local counts (the
/// streaming engine weighs its reservoir up to the stream's total mass).
/// Under `CommMode::kCoreset` a rank whose occupied-cell map exceeds
/// `coreset_max_cells` gathers a weighted coreset of it (cells.hpp
/// coreset_cells) instead of the full map, capping the assess-stage traffic
/// the same way the histogram merge is capped. Every other mode gathers
/// exact cells.
AssessedCandidate stage_assess(runtime::Context& ctx, const KeyTable& keys,
                               const std::vector<int>& kept_dims,
                               const PartitionedCandidate& candidate,
                               const Params& params,
                               double weight_per_point = 1.0);

/// Final stage [collective]: root serializes the winning model (plus any
/// driver extras via `write_extra`), broadcasts it, and every rank returns
/// the deserialized copy. `read_extra` runs on every rank after the model
/// bytes.
Model stage_share_model(
    runtime::Context& ctx, std::optional<Model> root_model,
    const std::function<void(ByteWriter&)>& write_extra = {},
    const std::function<void(ByteReader&)>& read_extra = {});

/// The recovery loop of fit() and refit() [collective] (DESIGN.md §7): run
/// `attempt` under params.comm_timeout_seconds, and after a recoverable
/// comm::CommError back off, shrink to the survivors and rerun the WHOLE
/// attempt. Ranks detect a failure at different points of the protocol, so
/// a per-stage retry would desynchronize them, while the survivor agreement
/// inside shrink_to_survivors() is a rendezvous of all live ranks and the
/// rerun starts from an agreed clean slate. Once params.max_shrink_retries
/// retries are spent the failure becomes a typed comm::FitAbortedError.
/// `name` ("fit", "refit") names the <name>_retry / <name>_abandoned events
/// and starts the abort message.
void run_with_recovery(runtime::Context& ctx, const Params& params,
                       std::string_view name,
                       const std::function<void()>& attempt);

}  // namespace keybin2::core
