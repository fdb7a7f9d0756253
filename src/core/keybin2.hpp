// KeyBin2: the full distributed clustering pipeline (paper §3).
//
// fit() is SPMD: every rank calls it with its local shard of the data; the
// sequence of collectives is identical on all ranks. The steps are exactly
// the paper's:
//   1. project into a lower space      (random projection, per trial)
//   2. assign keys per point/dimension (local, embarrassingly parallel)
//   3. communicate binning histograms  (allreduce — the only data that moves)
//   4. partition histograms            (discrete optimization, deterministic
//                                       from the merged histograms: each
//                                       candidate on one rank, cuts
//                                       allgathered)
//   5. perform clustering assignments  (local, via the broadcast model)
//   6. assess projected subspaces      (histogram-space Calinski–Harabasz,
//                                       bootstrapped over t trials x depths)
//
// A serial run is the same code over a single-rank SelfComm.
#pragma once

#include <vector>

#include "comm/communicator.hpp"
#include "common/matrix.hpp"
#include "core/model.hpp"
#include "core/params.hpp"
#include "runtime/context.hpp"

namespace keybin2::core {

/// Score of one (bootstrap trial, depth) candidate — kept for diagnostics
/// and the ablation benches.
struct TrialDiagnostics {
  int trial = 0;
  int depth = 0;
  int kept_dims = 0;
  int cells = 0;
  double score = 0.0;
};

struct FitResult {
  std::vector<int> labels;  // one per local point
  Model model;
  std::vector<TrialDiagnostics> trials;

  int n_clusters() const { return model.n_clusters(); }
};

/// Cluster `local_points` (this rank's shard) jointly with all other ranks
/// of the context's communicator, executing through the shared
/// core/pipeline stages. Every rank receives the same model and its own
/// local labels; the context's tracer accumulates per-stage wall time and
/// traffic under "fit/trial{t}/{stage}" scopes.
FitResult fit(runtime::Context& ctx, const Matrix& local_points,
              const Params& params = {});

/// Convenience: fit over a bare communicator (a fresh Context is built
/// around it; its trace is discarded).
FitResult fit(comm::Communicator& comm, const Matrix& local_points,
              const Params& params = {});

/// Serial convenience: fit over a single-rank communicator.
FitResult fit(const Matrix& points, const Params& params = {});

}  // namespace keybin2::core
