// Tuning parameters for KeyBin2 (paper §3).
//
// KeyBin2 is non-parametric in the statistical sense — it is never told the
// number of clusters — but it has a small set of structural knobs, all with
// paper-faithful defaults. Ablation benches flip `use_projection` and
// `use_discrete_opt` to recover KeyBin-v1 behaviour.
#pragma once

#include <cstddef>
#include <cstdint>

#include "comm/recovery.hpp"

namespace keybin2::core {

/// Histogram smoothing used by the partitioner. The paper's method is the
/// moving average + local regression (§3.2); the Gaussian KDE it compares
/// against is available for the smoothing ablation ("our smoothing
/// technique is much faster" than KDE, with similar accuracy).
enum class Smoothing {
  kMovingAverage,
  kKernelDensity,
};

/// How ranks exchange histograms during the merge (DESIGN.md §9). Dense
/// ships every bin through the binomial tree; sparse lets the transport
/// pick per-block dense/sparse encodings (bit-identical to dense); ring
/// passes the histograms around the ranks with no central authority (§3
/// step 3: "the algorithm works as well for a ring topology"); coreset
/// ships a weighted, seeded sample of the occupied bins under a hard
/// per-message size cap (`coreset_max_cells`) — sublinear traffic, bounded
/// error. Auto starts on the sparse plane and switches to coreset once the
/// observed merged density shows sparse re-densifying.
enum class CommMode {
  kDense,
  kSparse,
  kRing,
  kCoreset,
  kAuto,
};

struct Params {
  /// Deepest key level d_max; depth d has 2^d bins. The partitioner sweeps
  /// depths [min_depth, max_depth] and the subspace assessment picks the
  /// winner (paper: "2 to 4 histograms per dimension suffice").
  int max_depth = 7;
  int min_depth = 3;

  /// Bootstrap trials t: independent random projections evaluated with the
  /// histogram-space Calinski–Harabasz index (§3.3).
  int bootstrap_trials = 8;

  /// Projected dimensionality N_rp; 0 selects the paper's rule
  /// max(2, round(1.5 * ln N)).
  int n_rp = 0;

  /// A projected dimension is collapsed when its histogram is statistically
  /// indistinguishable from a single Gaussian (no multimodal structure):
  /// KS distance below this threshold (§3.1's KS-based collapsing).
  double collapse_threshold = 0.08;

  /// Minimum mode/valley prominence for the discrete-optimization
  /// partitioner, as a fraction of the smoothed histogram's peak density.
  double min_prominence = 0.04;

  /// Cells holding fewer than this fraction of the points are absorbed into
  /// the nearest dense cell at assignment time (outlier absorption). Kept
  /// small so KeyBin2 still reports more clusters than ground truth, as in
  /// the paper's Tables 1-2.
  double min_cluster_fraction = 0.001;

  /// Base seed for projection matrices and bootstrapping.
  std::uint64_t seed = 42;

  /// Ablations: identity projection reproduces KeyBin v1's axis-aligned
  /// binning; disabling discrete optimization falls back to the v1 density
  /// threshold heuristic (with `v1_density_threshold`).
  bool use_projection = true;
  bool use_discrete_opt = true;
  double v1_density_threshold = 0.05;

  /// Partitioner smoothing (moving average is the paper's method).
  Smoothing smoothing = Smoothing::kMovingAverage;

  /// Extension: choose the key depth independently PER DIMENSION (each
  /// dimension keeps the depth whose partition maximizes its own 1-D
  /// histogram-space CH) instead of sweeping one global depth. The paper
  /// keeps "at most d_max binning histograms" per dimension and notes 2-4
  /// usually suffice — nothing forces all dimensions to agree.
  bool per_dimension_depth = false;

  /// Histogram-merge communication mode (DESIGN.md §9). kAuto is
  /// conservative: it reproduces the sparse plane bit-for-bit unless the
  /// previous trial's merged histogram was dense enough that sparse
  /// encoding has re-densified (global nnz >= 4 * coreset_max_cells), so
  /// default-parameter fits keep their pinned fingerprints.
  CommMode comm_mode = CommMode::kAuto;

  /// Coreset plane: hard cap on the number of weighted cells any single
  /// rank-to-rank message may carry. Every merge re-compresses to this cap
  /// before forwarding, so peak reduce traffic is O(coreset_max_cells) per
  /// hop regardless of histogram occupancy.
  std::size_t coreset_max_cells = 4096;

  /// Coreset plane accuracy knob: any bin holding at least
  /// `coreset_epsilon` of the total mass is carried through exactly (never
  /// sampled away). Internally clamped to 2/coreset_max_cells so the heavy
  /// set can occupy at most half the cap (size-cap proof, DESIGN.md §9).
  double coreset_epsilon = 0.001;

  /// Fault tolerance: deadline, in seconds, for any recv/barrier inside the
  /// distributed stages to make progress before throwing a TimeoutError
  /// (0 = wait forever, the classic MPI behaviour). A lost or dropped
  /// message then surfaces as a recoverable error instead of a hang.
  double comm_timeout_seconds = 0.0;

  /// Fault tolerance: how many times fit()/refit() may restart after a
  /// recoverable comm failure (rank death -> shrink to the survivors and
  /// rerun; transient corruption -> rerun over the same group) before the
  /// error propagates.
  int max_shrink_retries = 2;

  /// Fault tolerance: retry pacing and respawn budget for the recovery
  /// ladder (comm/recovery.hpp). fit()/refit() sleep a deterministic
  /// backoff-with-jitter between retries, and exhausting
  /// `max_shrink_retries` raises a typed FitAbortedError instead of the
  /// bare triggering failure.
  comm::RecoveryPolicy recovery;
};

}  // namespace keybin2::core
