#include "core/streaming.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/error.hpp"
#include "common/serialize.hpp"
#include "core/checkpoint.hpp"
#include "core/pipeline.hpp"
#include "core/projection.hpp"

namespace keybin2::core {

StreamingKeyBin2::StreamingKeyBin2(std::size_t input_dims, Params params,
                                   std::size_t reservoir_capacity)
    : input_dims_(input_dims),
      params_(params),
      n_rp_(params.use_projection
                ? (params.n_rp > 0 ? params.n_rp : choose_n_rp(input_dims))
                : static_cast<int>(input_dims)),
      reservoir_capacity_(reservoir_capacity),
      reservoir_rng_(params.seed ^ 0x5eedbeefULL) {
  KB2_CHECK_MSG(input_dims >= 1, "stream schema needs >= 1 dimension");
  KB2_CHECK_MSG(reservoir_capacity >= 16,
                "reservoir capacity " << reservoir_capacity << " too small");
  KB2_CHECK_MSG(params_.bootstrap_trials >= 1, "need at least one trial");
  const int trials = params_.use_projection ? params_.bootstrap_trials : 1;
  Rng seed_stream(params_.seed);
  trials_.resize(static_cast<std::size_t>(trials));
  for (auto& trial : trials_) {
    if (params_.use_projection) {
      trial.projection =
          make_projection_matrix(input_dims, n_rp_, seed_stream.fork_seed());
    }
    trial.anchored.assign(static_cast<std::size_t>(n_rp_), false);
    trial.hists.resize(static_cast<std::size_t>(n_rp_));
    trial.seen_lo.assign(static_cast<std::size_t>(n_rp_),
                         std::numeric_limits<double>::infinity());
    trial.seen_hi.assign(static_cast<std::size_t>(n_rp_),
                         -std::numeric_limits<double>::infinity());
    trial.reservoir = Matrix(0, static_cast<std::size_t>(n_rp_));
  }
  if (params_.use_projection) {
    scratch_.resize(trials_.size() * static_cast<std::size_t>(n_rp_));
  }
}

void StreamingKeyBin2::ingest(TrialState& trial,
                              std::span<const double> projected) {
  for (std::size_t j = 0; j < projected.size(); ++j) {
    const double v = projected[j];
    trial.seen_lo[j] = std::min(trial.seen_lo[j], v);
    trial.seen_hi[j] = std::max(trial.seen_hi[j], v);
    if (!trial.anchored[j]) {
      // Anchor the key range on the first observed value; the unit-width
      // start range doubles as needed afterwards.
      const double base = std::floor(v);
      trial.hists[j] = stats::HierarchicalHistogram(base, base + 1.0,
                                                    params_.max_depth);
      trial.anchored[j] = true;
    }
    auto& h = trial.hists[j];
    // Grow the range geometrically until the value fits (amortized O(1)).
    while (v >= h.hi()) h.expand_right();
    while (v < h.lo()) h.expand_left();
    h.add(v);
  }
}

void StreamingKeyBin2::push(std::span<const double> point) {
  KB2_CHECK_MSG(point.size() == input_dims_,
                "point has " << point.size() << " dims, stream expects "
                             << input_dims_);
  // A non-finite value would never stop doubling a histogram's range (inf)
  // or has no bin at all (NaN). Every check runs before any state changes,
  // so a rejected point leaves the engine as it was.
  for (std::size_t i = 0; i < point.size(); ++i) {
    KB2_CHECK_MSG(std::isfinite(point[i]), "point value " << point[i]
                                               << " in dimension " << i
                                               << " is not finite");
  }
  const auto dims = static_cast<std::size_t>(n_rp_);
  if (params_.use_projection) {
    for (std::size_t t = 0; t < trials_.size(); ++t) {
      project_point(point, trials_[t].projection,
                    std::span<double>(scratch_).subspan(t * dims, dims));
    }
    KB2_CHECK_MSG(std::ranges::all_of(
                      scratch_, [](double v) { return std::isfinite(v); }),
                  "point projects outside the double range");
  }

  // Reservoir sampling (algorithm R): one draw per point picks the slot
  // that every trial's reservoir fills or overwrites.
  const std::size_t rows = trials_.front().reservoir.rows();
  const bool append = rows < reservoir_capacity_;
  const std::uint64_t slot =
      append ? rows : reservoir_rng_.uniform_int(points_seen_ + 1);

  for (std::size_t t = 0; t < trials_.size(); ++t) {
    auto& trial = trials_[t];
    const std::span<const double> projected =
        params_.use_projection
            ? std::span<const double>(scratch_).subspan(t * dims, dims)
            : point;
    ingest(trial, projected);
    if (append) {
      trial.reservoir.append_row(projected);
    } else if (slot < reservoir_capacity_) {
      std::ranges::copy(projected,
                        trial.reservoir.row(static_cast<std::size_t>(slot))
                            .begin());
    }
  }
  ++points_seen_;
}

void StreamingKeyBin2::push_batch(const Matrix& batch) {
  for (std::size_t i = 0; i < batch.rows(); ++i) push(batch.row(i));
}

const Model& StreamingKeyBin2::refit_once(runtime::Context& ctx) {
  auto refit_scope = ctx.tracer().scope(stage::kRefit);
  const bool is_root = ctx.is_root();
  const double total_points = ctx.comm().allreduce(
      static_cast<double>(points_seen_), comm::ReduceOp::kSum);
  KB2_CHECK_MSG(total_points > 0.0, "refit before any point was pushed");
  const std::size_t sample_rows = trials_.front().reservoir.rows();
  const double local_weight =
      sample_rows > 0 ? static_cast<double>(points_seen_) /
                            static_cast<double>(sample_rows)
                      : 0.0;

  struct Best {
    double score = -1.0;
    std::vector<int> depths;  // one per kept dimension
    Matrix projection;
    std::vector<int> kept_dims;
    std::vector<Range> ranges;
    std::vector<DimensionPartition> partitions;
    std::vector<Cell> cells;
  } best;

  const auto dims = static_cast<std::size_t>(n_rp_);
  for (std::size_t t = 0; t < trials_.size(); ++t) {
    auto& trial = trials_[t];
    auto trial_scope = ctx.tracer().scope(stage::trial(t));

    // (2a) Reconcile per-dimension ranges across ranks onto the tight global
    // envelope of observed values (same stage as batch fit, fed from the
    // incrementally tracked extremes instead of a point rescan).
    const auto ranges = stage_agree_ranges(ctx, trial.seen_lo, trial.seen_hi);

    // Ranks that saw different data anchored and expanded their doubling
    // histograms differently, so each rebins onto the common geometry
    // (placement error bounded by one source-bin width).
    std::vector<stats::HierarchicalHistogram> merged;
    merged.reserve(dims);
    {
      auto rebin_scope = ctx.tracer().scope(stage::kRebin);
      for (std::size_t j = 0; j < dims; ++j) {
        if (trial.anchored[j]) {
          if (trial.hists[j].lo() != ranges[j].lo ||
              trial.hists[j].hi() != ranges[j].hi) {
            trial.hists[j] = stats::rebin_hierarchy(trial.hists[j],
                                                    ranges[j].lo,
                                                    ranges[j].hi);
          }
        } else {
          trial.hists[j] = stats::HierarchicalHistogram(ranges[j].lo,
                                                        ranges[j].hi,
                                                        params_.max_depth);
          trial.anchored[j] = true;
        }
        merged.push_back(trial.hists[j]);
      }
    }

    // (3) Merge histograms across ranks. Rebinned counts are fractional,
    // so every exact mode keeps the fixed tree (or ring) order.
    stage_merge_histograms(ctx, merged, params_, /*integral_counts=*/false);

    // KS collapsing, as in batch fit.
    const auto kept_dims = collapse_dimensions(ctx, merged, params_);
    // No structure under this projection: single-cluster fallback candidate.
    if (kept_dims.empty()) {
      if (is_root && best.score < 0.0) {
        best.score = 0.0;
        best.projection = trial.projection;
        best.ranges = ranges;
      }
      continue;
    }

    // Reservoir keys under the merged ranges; push() already projected
    // the rows into this trial's space.
    KeyTable keys;
    {
      auto keys_scope = ctx.tracer().scope(stage::kReservoirKeys);
      keys = compute_keys(trial.reservoir, ranges, params_.max_depth);
    }

    // (4) + (6) Partition every depth candidate and rate it; the root
    // tracks the best model, with reservoir counts scaled to stream mass.
    for (const auto& depths : depth_candidates(merged, kept_dims, params_)) {
      auto candidate =
          stage_partition(ctx, merged, kept_dims, depths, params_);
      auto assessed = stage_assess(ctx, keys, kept_dims, candidate, params_,
                                   local_weight);
      if (assessed.scored && assessed.score > best.score) {
        best.score = assessed.score;
        best.depths = candidate.depths;
        best.projection = trial.projection;
        best.kept_dims = kept_dims;
        best.ranges = ranges;
        best.partitions = std::move(candidate.partitions);
        best.cells = std::move(assessed.cells);
      }
    }
  }

  std::optional<Model> root_model;
  if (is_root) {
    // The all-collapsed fallback has no kept dims, hence no depths.
    if (best.depths.size() != best.kept_dims.size()) {
      best.depths.assign(best.kept_dims.size(), params_.min_depth);
    }
    root_model.emplace(input_dims_, std::move(best.projection),
                       std::move(best.depths), std::move(best.kept_dims),
                       std::move(best.ranges), std::move(best.partitions),
                       std::move(best.cells), best.score, total_points,
                       params_.min_cluster_fraction);
  }
  model_ = stage_share_model(ctx, std::move(root_model));
  return *model_;
}

const Model& StreamingKeyBin2::refit(runtime::Context& ctx) {
  // A retried pass rebins each rank's doubling histograms onto the freshly
  // agreed ranges — rebinning conserves mass, so a second pass over
  // already-rebinned state is harmless.
  run_with_recovery(ctx, params_, "refit", [&] { refit_once(ctx); });
  return *model_;
}

const Model& StreamingKeyBin2::refit(comm::Communicator& comm) {
  runtime::Context ctx(comm, params_.seed);
  return refit(ctx);
}

const Model& StreamingKeyBin2::refit() {
  comm::SelfComm self;
  runtime::Context ctx(self, params_.seed);
  return refit(ctx);
}

const Model& StreamingKeyBin2::model() const {
  KB2_CHECK_MSG(model_.has_value(), "no model yet: call refit() first");
  return *model_;
}

int StreamingKeyBin2::label(std::span<const double> point) const {
  return model().predict(point);
}

void StreamingKeyBin2::serialize(ByteWriter& w) const {
  // Structural fields first, so restore() can reject a checkpoint taken
  // under incompatible Params before touching any state.
  w.write<std::uint64_t>(input_dims_);
  w.write<std::int32_t>(n_rp_);
  w.write<std::int32_t>(params_.max_depth);
  w.write<std::uint64_t>(params_.seed);
  w.write<std::uint64_t>(static_cast<std::uint64_t>(trials_.size()));
  w.write<std::uint64_t>(points_seen_);

  for (const auto& trial : trials_) {
    w.write<std::uint64_t>(trial.projection.rows());
    w.write<std::uint64_t>(trial.projection.cols());
    w.write_span(trial.projection.flat());
    w.write<std::uint64_t>(static_cast<std::uint64_t>(trial.anchored.size()));
    for (const bool a : trial.anchored) {
      w.write<std::uint8_t>(a ? std::uint8_t{1} : std::uint8_t{0});
    }
    w.write_vec(trial.seen_lo);
    w.write_vec(trial.seen_hi);
    w.write<std::uint64_t>(static_cast<std::uint64_t>(trial.hists.size()));
    for (const auto& h : trial.hists) {
      // Unanchored slots hold a default-constructed hierarchy: max_depth 0,
      // no bins. Writing (lo, hi, depth, counts) covers both cases.
      w.write<double>(h.lo());
      w.write<double>(h.hi());
      w.write<std::int32_t>(h.max_depth());
      w.write_span(h.deepest_counts());
    }
    w.write<std::uint64_t>(trial.reservoir.rows());
    w.write<std::uint64_t>(trial.reservoir.cols());
    w.write_span(trial.reservoir.flat());
  }

  // RNG state field by field — serializing the State struct wholesale would
  // embed padding bytes, which poisons the checkpoint CRC with garbage.
  const Rng::State rng_state = reservoir_rng_.state();
  for (const std::uint64_t s : rng_state.s) w.write<std::uint64_t>(s);
  w.write<std::uint8_t>(rng_state.has_spare ? std::uint8_t{1}
                                            : std::uint8_t{0});
  w.write<double>(rng_state.spare);

  w.write<std::uint8_t>(model_.has_value() ? std::uint8_t{1}
                                           : std::uint8_t{0});
  if (model_.has_value()) model_->serialize(w);
}

void StreamingKeyBin2::restore(ByteReader& r) {
  const auto dims = r.read<std::uint64_t>();
  KB2_CHECK_MSG(dims == input_dims_,
                "checkpoint was taken with input_dims=" << dims
                                                        << ", engine has "
                                                        << input_dims_);
  const auto n_rp = r.read<std::int32_t>();
  KB2_CHECK_MSG(n_rp == n_rp_, "checkpoint was taken with n_rp="
                                   << n_rp << ", engine has " << n_rp_);
  const auto max_depth = r.read<std::int32_t>();
  KB2_CHECK_MSG(max_depth == params_.max_depth,
                "checkpoint was taken with max_depth=" << max_depth
                                                       << ", engine has "
                                                       << params_.max_depth);
  const auto seed = r.read<std::uint64_t>();
  KB2_CHECK_MSG(seed == params_.seed,
                "checkpoint was taken with seed=" << seed << ", engine has "
                                                  << params_.seed);
  const auto n_trials = r.read<std::uint64_t>();
  KB2_CHECK_MSG(n_trials == trials_.size(),
                "checkpoint holds " << n_trials << " trials, engine has "
                                    << trials_.size());
  points_seen_ = r.read<std::uint64_t>();

  for (std::size_t t = 0; t < trials_.size(); ++t) {
    auto& trial = trials_[t];
    const auto prows = r.read<std::uint64_t>();
    const auto pcols = r.read<std::uint64_t>();
    auto pdata = r.read_vec<double>();
    // input_dims x n_rp, or empty under the identity projection.
    const std::uint64_t want_rows = params_.use_projection ? input_dims_ : 0;
    const std::uint64_t want_cols =
        params_.use_projection ? static_cast<std::uint64_t>(n_rp_) : 0;
    KB2_CHECK_MSG(prows == want_rows && pcols == want_cols,
                  "checkpoint trial " << t << " projection is " << prows
                                      << " x " << pcols << ", engine expects "
                                      << want_rows << " x " << want_cols);
    trial.projection = Matrix(static_cast<std::size_t>(prows),
                              static_cast<std::size_t>(pcols),
                              std::move(pdata));
    const auto n_anchored = r.read<std::uint64_t>();
    KB2_CHECK_MSG(n_anchored == static_cast<std::uint64_t>(n_rp_),
                  "checkpoint trial has " << n_anchored
                                          << " dimensions, engine has "
                                          << n_rp_);
    trial.anchored.assign(static_cast<std::size_t>(n_anchored), false);
    for (std::size_t j = 0; j < trial.anchored.size(); ++j) {
      trial.anchored[j] = r.read<std::uint8_t>() != 0;
    }
    trial.seen_lo = r.read_vec<double>();
    KB2_CHECK_MSG(trial.seen_lo.size() == n_anchored,
                  "checkpoint trial " << t << " seen_lo holds "
                                      << trial.seen_lo.size()
                                      << " values, engine has " << n_rp_
                                      << " dimensions");
    trial.seen_hi = r.read_vec<double>();
    KB2_CHECK_MSG(trial.seen_hi.size() == n_anchored,
                  "checkpoint trial " << t << " seen_hi holds "
                                      << trial.seen_hi.size()
                                      << " values, engine has " << n_rp_
                                      << " dimensions");
    const auto n_hists = r.read<std::uint64_t>();
    KB2_CHECK_MSG(n_hists == static_cast<std::uint64_t>(n_rp_),
                  "checkpoint trial has " << n_hists
                                          << " histograms, engine has "
                                          << n_rp_);
    trial.hists.clear();
    trial.hists.reserve(static_cast<std::size_t>(n_hists));
    for (std::uint64_t j = 0; j < n_hists; ++j) {
      const auto lo = r.read<double>();
      const auto hi = r.read<double>();
      const auto depth = r.read<std::int32_t>();
      auto counts = r.read_vec<double>();
      if (depth == 0) {
        KB2_CHECK_MSG(counts.empty(),
                      "unanchored histogram carries " << counts.size()
                                                      << " counts");
        trial.hists.emplace_back();
      } else {
        stats::HierarchicalHistogram h(lo, hi, depth);
        h.set_deepest_counts(std::move(counts));
        trial.hists.push_back(std::move(h));
      }
    }

    const auto rrows = r.read<std::uint64_t>();
    const auto rcols = r.read<std::uint64_t>();
    auto rdata = r.read_vec<double>();
    KB2_CHECK_MSG(rcols == static_cast<std::uint64_t>(n_rp_),
                  "checkpoint reservoir has " << rcols
                                              << " columns, engine has "
                                              << n_rp_);
    KB2_CHECK_MSG(rrows <= reservoir_capacity_,
                  "checkpoint reservoir holds "
                      << rrows << " rows, engine capacity is "
                      << reservoir_capacity_);
    KB2_CHECK_MSG(t == 0 || rrows == trials_.front().reservoir.rows(),
                  "checkpoint trial " << t << " reservoir holds " << rrows
                                      << " rows, trial 0 holds "
                                      << trials_.front().reservoir.rows());
    // The Matrix constructor rejects a length other than rows * cols.
    trial.reservoir = Matrix(static_cast<std::size_t>(rrows),
                             static_cast<std::size_t>(rcols),
                             std::move(rdata));
  }

  Rng::State rng_state;
  for (auto& s : rng_state.s) s = r.read<std::uint64_t>();
  rng_state.has_spare = r.read<std::uint8_t>() != 0;
  rng_state.spare = r.read<double>();
  reservoir_rng_.set_state(rng_state);

  if (r.read<std::uint8_t>() != 0) {
    model_ = Model::deserialize(r);
  } else {
    model_.reset();
  }
}

void StreamingKeyBin2::save_checkpoint(const std::string& path) const {
  ByteWriter w;
  serialize(w);
  write_checkpoint_file(path, w.bytes());
}

StreamingKeyBin2 StreamingKeyBin2::resume_from(const std::string& path,
                                               Params params,
                                               std::size_t reservoir_capacity) {
  // A corrupt or missing primary falls back to the ".prev" generation the
  // atomic writer demoted; only when both are unreadable does the typed
  // CheckpointError (naming the primary and its defect) propagate.
  const auto payload = read_checkpoint_file_or_previous(path);
  ByteReader peek(payload);
  const auto dims = peek.read<std::uint64_t>();
  StreamingKeyBin2 engine(static_cast<std::size_t>(dims), params,
                          reservoir_capacity);
  ByteReader r(payload);
  engine.restore(r);
  KB2_CHECK_MSG(r.exhausted(),
                "checkpoint " << path << " payload has " << r.remaining()
                              << " trailing bytes");
  return engine;
}

}  // namespace keybin2::core
