// Streaming / in-situ KeyBin2 (paper §3: "extrapolates for data streams with
// M = 1"; §5's protein-folding analysis runs in this mode).
//
// A stream engine holds, per bootstrap trial, a fixed random projection and
// one hierarchical histogram per projected dimension. The trials' matrices
// are also kept side by side in one input_dims x (trials * n_rp) stacked
// matrix, derived state rebuilt on construction and restore, so push()
// projects a point once for every trial through the shared projection kernel
// (core/fused.hpp): input_dims * trials * n_rp multiply-adds in ymm lanes,
// then one histogram update per (trial, projected dimension) and one
// reservoir row copy per trial. No key is stored per point: when a value
// falls outside a histogram's current range the range doubles (pairs of
// deepest bins collapse), so early points never need re-keying.
//
// refit() rebuilds the model from the accumulated histograms — after a batch,
// or periodically for a stream, exactly as the paper communicates histograms
// "after a number of updates". Occupied-cell densities (which are not
// derivable from per-dimension marginals) are estimated from a bounded
// reservoir sample, scaled to the stream's total mass; the points themselves
// may be discarded, matching the paper's "the point can be either discarded
// or sent to secondary storage awaiting its final clustering assignment".
//
// The reservoir lives in each trial, already in that trial's projected space
// (identity trials hold the raw rows): push() stores the projection it
// computes for the histograms anyway, so a refit keys the sample directly
// instead of re-projecting raw rows. One algorithm-R draw per point picks
// the slot for every trial, so all trials hold the same sample. Memory is
// trials * n_rp * capacity doubles.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "comm/communicator.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "core/model.hpp"
#include "core/params.hpp"
#include "runtime/context.hpp"
#include "stats/histogram.hpp"

namespace keybin2::core {

class StreamingKeyBin2 {
 public:
  /// `input_dims` must be known up front (stream schema). Params are
  /// checked and the trials projected as in batch fit.
  explicit StreamingKeyBin2(std::size_t input_dims, Params params = {},
                            std::size_t reservoir_capacity = 4096);

  std::size_t input_dims() const { return input_dims_; }
  std::uint64_t points_seen() const { return points_seen_; }

  /// Ingest one point (O(input_dims * trials * n_rp), no allocation on the
  /// steady path). Throws keybin2::Error, leaving the engine unchanged, when a
  /// value is NaN or infinite or projects outside the double range.
  void push(std::span<const double> point);

  /// Ingest a batch of rows.
  void push_batch(const Matrix& batch);

  /// Rebuild the model from current histograms, merging state across the
  /// ranks of the context's communicator (every rank must call refit in
  /// step). Executes through the shared core/pipeline stages and batch
  /// fit's ModelSearch; merge and assess follow Params::comm_mode as in
  /// batch fit (the fractional counts keep every exact mode on the fixed
  /// tree or ring); the context's tracer accumulates per-stage time and
  /// traffic under "refit/trial{t}/{stage}" scopes. Recoverable comm
  /// failures restart the refit up to Params::max_shrink_retries times,
  /// shrinking to the survivors after a rank death (same recovery loop as
  /// core::fit; the re-run's rebinning pass is mass-conserving, so retrying
  /// is safe).
  const Model& refit(runtime::Context& ctx);

  /// Convenience: refit over a bare communicator (a fresh Context is built
  /// around it; its trace is discarded).
  const Model& refit(comm::Communicator& comm);

  /// Single-site refit.
  const Model& refit();

  /// True once refit() has produced a model.
  bool has_model() const { return model_.has_value(); }

  /// Last refit model; throws if refit was never called.
  const Model& model() const;

  /// Label one point with the current model.
  int label(std::span<const double> point) const;

  // ---- Checkpoint/restart (DESIGN.md §4b) ----
  //
  // serialize() captures the engine EXACTLY — doubling histograms, seen
  // envelopes, each trial's projected reservoir, the reservoir RNG's
  // internal state, the model if any — so a deserialized engine continues
  // the identical point stream bit-for-bit: a killed-then-resumed run
  // reproduces an uninterrupted run's model fingerprint.

  /// Append the full engine state to `w`.
  void serialize(ByteWriter& w) const;

  /// Restore state previously written by serialize(); the engine must have
  /// been constructed with the same input_dims and compatible Params. A
  /// block whose shape disagrees with the engine (projection, envelope,
  /// histograms, reservoir) throws keybin2::Error naming the field.
  void restore(ByteReader& r);

  /// Write the engine state to `path` as a versioned, CRC32-checked
  /// checkpoint file (see core/checkpoint.hpp).
  void save_checkpoint(const std::string& path) const;

  /// Rebuild an engine from a checkpoint written by save_checkpoint().
  /// `params` must match the ones the checkpointed engine was built with
  /// (the structural fields are validated against the payload).
  static StreamingKeyBin2 resume_from(const std::string& path,
                                      Params params = {},
                                      std::size_t reservoir_capacity = 4096);

 private:
  struct TrialState {
    Matrix projection;  // empty => identity
    std::vector<stats::HierarchicalHistogram> hists;  // lazily anchored
    std::vector<bool> anchored;
    // Tight per-dimension envelope of the values actually seen; refit
    // reconciles all ranks onto the global envelope (the doubling ranges of
    // the histograms overshoot and would waste bin resolution).
    std::vector<double> seen_lo, seen_hi;
    // Reservoir sample (algorithm R) for cell-density estimates, as rows in
    // this trial's projected space (n_rp columns, at most the engine's
    // capacity rows). Every trial holds the same points in the same slots.
    Matrix reservoir;
  };

  void ingest(TrialState& trial, std::span<const double> projected);
  /// Copy trial t's projection into its columns of stacked_.
  void stack_projection(std::size_t t);
  const Model& refit_once(runtime::Context& ctx);

  std::size_t input_dims_;
  Params params_;
  int n_rp_ = 0;
  std::vector<TrialState> trials_;
  std::uint64_t points_seen_ = 0;

  std::size_t reservoir_capacity_;
  Rng reservoir_rng_;  // one slot draw per point, shared by every trial

  std::optional<Model> model_;
  // Derived from the trials' projections (never serialized): input_dims x
  // (trials * n_rp), trial t's matrix in columns [t * n_rp, (t + 1) * n_rp).
  // Empty under the identity ablation.
  Matrix stacked_;
  std::vector<double> scratch_;  // one projected point, stacked_'s columns
};

}  // namespace keybin2::core
