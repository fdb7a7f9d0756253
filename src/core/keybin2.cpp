#include "core/keybin2.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/fused.hpp"
#include "core/pipeline.hpp"
#include "core/projection.hpp"

namespace keybin2::core {

namespace {

/// The best candidate observed so far (root rank only).
struct BestCandidate {
  double score = -1.0;
  int trial = -1;
  std::vector<int> depths;  // one per kept dimension
  Matrix projection;        // empty for identity
  std::vector<int> kept_dims;
  std::vector<Range> ranges;
  std::vector<DimensionPartition> partitions;
  std::vector<Cell> cells;
};

FitResult fit_once(runtime::Context& ctx, const Matrix& local_points,
                   const Params& params) {
  KB2_CHECK_MSG(params.min_depth >= 1 && params.min_depth <= params.max_depth,
                "invalid depth range [" << params.min_depth << ", "
                                        << params.max_depth << "]");
  KB2_CHECK_MSG(params.bootstrap_trials >= 1, "need at least one trial");

  auto fit_scope = ctx.tracer().scope(stage::kFit);
  auto& comm = ctx.comm();
  const auto n_dims = static_cast<std::uint64_t>(local_points.cols());
  // All ranks must agree on the dimensionality (empty shards report the max).
  const auto global_dims = comm.allreduce(n_dims, comm::ReduceOp::kMax);
  KB2_CHECK_MSG(local_points.rows() == 0 || n_dims == global_dims,
                "rank " << comm.rank() << " has " << n_dims
                        << " dims, group agreed on " << global_dims);
  KB2_CHECK_MSG(global_dims >= 1, "dataset has no dimensions");

  // The point-count reduction also carries each rank's count of non-finite
  // values, so every rank sees the same total and throws the same error:
  // none is left waiting in a later collective, and no message is added.
  const auto flat = local_points.flat();
  const auto local_nonfinite = std::count_if(
      flat.begin(), flat.end(), [](double v) { return !std::isfinite(v); });
  const std::array<double, 2> local_counts = {
      static_cast<double>(local_points.rows()),
      static_cast<double>(local_nonfinite)};
  const auto counts = comm.allreduce(local_counts, comm::ReduceOp::kSum);
  const double total_points = counts[0];
  KB2_CHECK_MSG(counts[1] == 0.0, "dataset holds "
                                      << counts[1]
                                      << " NaN or infinite values");
  KB2_CHECK_MSG(total_points > 0.0, "dataset has no points");

  const bool is_root = ctx.is_root();
  const int n_rp =
      params.use_projection
          ? (params.n_rp > 0 ? params.n_rp : choose_n_rp(global_dims))
          : static_cast<int>(global_dims);
  const int trials = params.use_projection ? params.bootstrap_trials : 1;

  // Trial seeds are derived deterministically from params.seed, so every
  // rank builds the identical projection matrix without communication.
  Rng seed_stream(params.seed);
  std::vector<std::uint64_t> trial_seeds;
  trial_seeds.reserve(static_cast<std::size_t>(trials));
  for (int t = 0; t < trials; ++t) trial_seeds.push_back(seed_stream.fork_seed());

  // The trials' projection matrices are independent (each seeded by its own
  // fork), so generate them in parallel up front; the per-trial loop then
  // only pays the matmul. Empty matrices select the identity passthrough.
  std::vector<Matrix> projections(static_cast<std::size_t>(trials));
  if (params.use_projection) {
    global_pool().parallel_for(
        static_cast<std::size_t>(trials), [&](std::size_t b, std::size_t e) {
          for (std::size_t t = b; t < e; ++t) {
            projections[t] =
                make_projection_matrix(global_dims, n_rp, trial_seeds[t]);
          }
        });
  }

  BestCandidate best;
  std::vector<TrialDiagnostics> diagnostics;
  // Merged-histogram density carried across trials for the kAuto comm mode:
  // trial 0 merges exactly, later trials may switch to the coreset plane
  // once the previous merge re-densified. All ranks derive it from the
  // identical merged vector, so the protocol choice never diverges.
  std::uint64_t merged_nnz = 0;
  // Cross-trial scratch for the data plane (projected matrix, key table,
  // envelopes, count shards): allocated by the first trial, reused verbatim
  // by the rest.
  FusedWorkspace ws;

  for (int t = 0; t < trials; ++t) {
    auto trial_scope =
        ctx.tracer().scope(stage::trial(t));
    auto& trial_projection = projections[static_cast<std::size_t>(t)];

    // (1) Project into a lower space, folding the range envelope into the
    // same traversal.
    const Matrix* projected;
    {
      auto scope = ctx.tracer().scope(stage::kProject);
      projected = &fused_project_envelope(local_points, trial_projection,
                                          static_cast<std::size_t>(n_rp), ws);
    }
    // (2a) Agree on per-dimension key ranges [r_min, r_max].
    const auto ranges = stage_agree_ranges(ctx, ws.env_lo, ws.env_hi);
    // (2b) Assign keys and build all local histograms in one pass.
    std::vector<stats::HierarchicalHistogram> hists;
    {
      auto scope = ctx.tracer().scope(stage::kBin);
      hists = fused_key_bin(*projected, ranges, params.max_depth, ws);
      ctx.metrics().add("points_binned", projected->rows());
    }

    // (3) Communicate binning histograms. Batch-fit counts are integral
    // (weight-1.0 binning), so the merge may take the bandwidth-optimal
    // adaptive path without perturbing a single bit; the comm-mode dispatch
    // may further swap in the capped coreset plane (DESIGN.md §9).
    stage_merge_histograms(ctx, hists, params, /*integral_counts=*/true,
                           &merged_nnz);

    // KS-based dimension collapsing.
    const auto kept_dims = collapse_dimensions(ctx, hists, params);
    // Every dimension collapsed: this projection sees no multimodal
    // structure anywhere, i.e. a single cluster. Register a score-0
    // single-cluster candidate (adopted only if no trial ever finds
    // structure) and skip the depth sweep.
    if (kept_dims.empty()) {
      if (is_root) {
        diagnostics.push_back(TrialDiagnostics{t, 0, 0, 1, 0.0});
        if (best.trial < 0) {
          best.score = 0.0;
          best.trial = t;
          best.projection = trial_projection;
          best.ranges = ranges;
        }
      }
      continue;
    }

    // (4) + (6) Partition every candidate once across the ranks, then rate
    // each with the histogram-space CH index; the root tracks the best
    // model. Classic mode sweeps one global depth over [min_depth,
    // max_depth]; the per-dimension extension lets every kept dimension
    // pick its own depth first, then evaluates that single combined
    // candidate.
    for (auto& candidate :
         stage_partition(ctx, hists, kept_dims,
                         depth_candidates(hists, kept_dims, params), params)) {
      auto assessed = stage_assess(ctx, ws.keys, kept_dims, candidate, params);

      if (assessed.scored) {
        diagnostics.push_back(TrialDiagnostics{
            t, *std::max_element(candidate.depths.begin(),
                                 candidate.depths.end()),
            static_cast<int>(kept_dims.size()),
            static_cast<int>(assessed.cells.size()), assessed.score});
        // The initial sentinel score is -1, so the first candidate is always
        // adopted even when it scores 0 (a genuine one-cluster dataset).
        if (assessed.score > best.score) {
          best.score = assessed.score;
          best.trial = t;
          best.depths = candidate.depths;
          best.projection = trial_projection;
          best.kept_dims = kept_dims;
          best.ranges = ranges;
          best.partitions = std::move(candidate.partitions);
          best.cells = std::move(assessed.cells);
        }
      }
    }
  }

  // Root finalizes the model and broadcasts it; everyone labels locally (5).
  std::optional<Model> root_model;
  if (is_root) {
    // The all-collapsed fallback has no kept dims, hence no depths.
    if (best.depths.size() != best.kept_dims.size()) {
      best.depths.assign(best.kept_dims.size(), params.min_depth);
    }
    root_model.emplace(global_dims, std::move(best.projection),
                       std::move(best.depths), std::move(best.kept_dims),
                       std::move(best.ranges), std::move(best.partitions),
                       std::move(best.cells), best.score, total_points,
                       params.min_cluster_fraction);
  }

  FitResult result;
  result.model = stage_share_model(
      ctx, std::move(root_model),
      [&](ByteWriter& writer) {
        writer.write<std::uint64_t>(diagnostics.size());
        for (const auto& d : diagnostics) writer.write(d);
      },
      [&](ByteReader& reader) {
        const auto n_diag = reader.read<std::uint64_t>();
        result.trials.resize(n_diag);
        for (auto& d : result.trials) d = reader.read<TrialDiagnostics>();
      });
  {
    auto label_scope = ctx.tracer().scope(stage::kLabel);
    result.labels = result.model.predict(local_points);
  }
  return result;
}

}  // namespace

FitResult fit(runtime::Context& ctx, const Matrix& local_points,
              const Params& params) {
  // The stages are pure in their inputs, so rerunning them is safe; with
  // ranks lost the retry runs over the shrunken survivor group (the merged
  // histograms of the survivors remain a valid subsample — see DESIGN.md
  // §4b).
  FitResult result;
  run_with_recovery(ctx, params, "fit", [&] {
    result = fit_once(ctx, local_points, params);
  });
  return result;
}

FitResult fit(comm::Communicator& comm, const Matrix& local_points,
              const Params& params) {
  runtime::Context ctx(comm, params.seed);
  return fit(ctx, local_points, params);
}

FitResult fit(const Matrix& points, const Params& params) {
  runtime::Context ctx(params.seed);
  return fit(ctx, points, params);
}

}  // namespace keybin2::core
