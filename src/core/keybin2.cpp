#include "core/keybin2.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/error.hpp"
#include "core/fused.hpp"
#include "core/pipeline.hpp"
#include "core/projection.hpp"

namespace keybin2::core {

namespace {

FitResult fit_once(runtime::Context& ctx, const Matrix& local_points,
                   const Params& params) {
  check_search_params(params);

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

  const auto projections = trial_projections(params, global_dims);
  ModelSearch search(ctx, params);
  // Merged-histogram density carried across trials for the kAuto comm mode:
  // trial 0 merges exactly, later trials may switch to the coreset plane
  // once the previous merge re-densified. All ranks derive it from the
  // identical merged vector, so the protocol choice never diverges.
  std::uint64_t merged_nnz = 0;
  // Cross-trial scratch for the data plane (projected matrix, key table,
  // envelopes, count shards): allocated by the first trial, reused verbatim
  // by the rest.
  FusedWorkspace ws;

  for (std::size_t t = 0; t < projections.matrices.size(); ++t) {
    auto trial_scope = ctx.tracer().scope(stage::trial(static_cast<int>(t)));
    const Matrix& projection = projections.matrices[t];

    // (1) Project into a lower space, folding the range envelope into the
    // same traversal.
    const Matrix* projected;
    {
      auto scope = ctx.tracer().scope(stage::kProject);
      projected =
          &fused_project_envelope(local_points, projection,
                                  static_cast<std::size_t>(projections.n_rp),
                                  ws);
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

    // (4) + (6) KS collapsing, then the depth sweep over the local keys.
    search.sweep(static_cast<int>(t), projection, ranges, hists,
                 collapse_dimensions(ctx, hists, params), ws.keys);
  }

  // Root finalizes the model and broadcasts it; everyone labels locally (5).
  FitResult result;
  result.model = search.finish(global_dims, total_points, &result.trials);
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
