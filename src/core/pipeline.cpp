#include "core/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "comm/recovery.hpp"
#include "common/error.hpp"
#include "core/assess.hpp"
#include "core/binner.hpp"
#include "stats/ks_test.hpp"

namespace keybin2::core {

namespace {

/// 1-D histogram-space CH of a single dimension's partition (its primaries
/// act as the cells) — the per-dimension depth-selection criterion.
double single_dimension_score(const stats::Histogram& level,
                              const DimensionPartition& partition) {
  std::vector<Cell> cells;
  for (std::size_t p = 0; p < partition.primary_count(); ++p) {
    const auto [begin, end] = partition.range_of(p);
    double mass = 0.0;
    for (std::size_t b = begin; b < end; ++b) mass += level.count(b);
    if (mass > 0.0) {
      cells.push_back(Cell{{static_cast<std::uint32_t>(p)}, mass, -1});
    }
  }
  return histogram_calinski_harabasz({level}, {partition}, cells);
}

/// Coarse depth for the coreset merge's exact calibration pass: level-6
/// histograms are 64 bins per dimension — O(dims) doubles, negligible next
/// to the sketch — and shipping them exactly pins every derived level at or
/// above this depth to the exact answer.
constexpr int kCoresetCalibrationDepth = 6;

/// The coreset comm plane's histogram merge (DESIGN.md §9): a capped sketch
/// of the deepest level plus an exact allreduce of the tiny coarse level
/// (with one extra element carrying each rank's dropped mass), then a
/// per-block reconciliation so each coarse bin's children sum to the exact
/// coarse count:
///
///   * nothing dropped anywhere -> the sketch is exact; pass it through;
///   * mass was dropped -> inside each coarse block, only entries above the
///     heavy-hitter threshold (>= epsilon_eff * global mass, carried exactly
///     by the sampler's contract) keep their placement; the block's residual
///     exact mass spreads uniformly across the other children. Sampled light
///     entries have meaningful MASS but arbitrary placement, and leaving
///     them as spikes seeds phantom cuts in the deep-level partitioner.
///
/// Shallow levels (collapse, moderate partition depths) come out exact;
/// deep levels are exact at block granularity with genuine heavy structure
/// preserved bin-exact. Both collectives charge `profile->bytes`, so
/// reduce_bytes covers the calibration traffic too; `profile->algo` stays
/// kCoreset.
std::vector<double> coreset_merge_histograms(
    runtime::Context& ctx,
    const std::vector<stats::HierarchicalHistogram>& hists,
    std::span<const double> flat, const comm::coreset::Options& opts,
    comm::ReduceProfile* profile) {
  const double drops_before = profile->coreset_mass_dropped;
  auto merged = ctx.comm().coreset_allreduce(flat, opts, profile);
  if (hists.empty()) return merged;

  const int max_depth = hists[0].max_depth();
  const int coarse_depth = std::min(max_depth, kCoresetCalibrationDepth);
  std::vector<double> coarse_local;
  coarse_local.reserve((hists.size() << coarse_depth) + 1);
  for (const auto& h : hists) {
    const auto level = h.level(coarse_depth);
    coarse_local.insert(coarse_local.end(), level.counts().begin(),
                        level.counts().end());
  }
  // Every drop happens at exactly one rank (build or a tree-hop compress),
  // so the sum of the per-rank deltas is the global dropped mass.
  coarse_local.push_back(profile->coreset_mass_dropped - drops_before);
  comm::ReduceProfile calibration;
  const auto coarse =
      ctx.comm().allreduce(coarse_local, comm::ReduceOp::kSum,
                           comm::AllreduceAlgo::kTree, &calibration);
  profile->bytes += calibration.bytes;
  const double global_drops = coarse.back();
  if (global_drops == 0.0) return merged;  // sketch is exact end to end

  double global_mass = 0.0;
  for (std::size_t i = 0; i + 1 < coarse.size(); ++i) global_mass += coarse[i];
  const double heavy_threshold =
      std::clamp(opts.epsilon,
                 2.0 / static_cast<double>(std::max<std::size_t>(
                           opts.max_cells, 2)),
                 1.0) *
      global_mass;

  const std::size_t coarse_bins = std::size_t{1} << coarse_depth;
  const std::size_t children = std::size_t{1} << (max_depth - coarse_depth);
  std::size_t deep_off = 0;
  std::size_t coarse_off = 0;
  for (std::size_t j = 0; j < hists.size(); ++j) {
    for (std::size_t c = 0; c < coarse_bins; ++c) {
      const double exact = coarse[coarse_off + c];
      double* block = merged.data() + deep_off + c * children;
      double heavy_mass = 0.0;
      std::size_t heavy_count = 0;
      for (std::size_t k = 0; k < children; ++k) {
        if (block[k] >= heavy_threshold) {
          heavy_mass += block[k];
          ++heavy_count;
        }
      }
      if (heavy_count == children ||
          (heavy_mass >= exact && heavy_mass > 0.0)) {
        // Merged heavies overshoot the block (drops elsewhere): keep their
        // relative placement, scaled onto the exact block mass.
        const double scale = exact / heavy_mass;
        for (std::size_t k = 0; k < children; ++k) {
          block[k] = block[k] >= heavy_threshold ? block[k] * scale : 0.0;
        }
      } else {
        const double light_each =
            (exact - heavy_mass) /
            static_cast<double>(children - heavy_count);
        for (std::size_t k = 0; k < children; ++k) {
          if (block[k] < heavy_threshold) block[k] = light_each;
        }
      }
    }
    deep_off += hists[j].deepest_counts().size();
    coarse_off += coarse_bins;
  }
  return merged;
}

}  // namespace

std::vector<Range> stage_agree_ranges(runtime::Context& ctx,
                                      std::span<const double> local_lo,
                                      std::span<const double> local_hi) {
  KB2_CHECK_MSG(local_lo.size() == local_hi.size(),
                "agree_ranges envelope length mismatch: "
                    << local_lo.size() << " vs " << local_hi.size());
  auto scope = ctx.tracer().scope(stage::kAgreeRanges);
  const auto lo = ctx.comm().allreduce(local_lo, comm::ReduceOp::kMin);
  const auto hi = ctx.comm().allreduce(local_hi, comm::ReduceOp::kMax);
  std::vector<Range> ranges(lo.size());
  for (std::size_t j = 0; j < lo.size(); ++j) {
    if (!std::isfinite(lo[j]) || !std::isfinite(hi[j])) {
      // No rank observed any value in this dimension (every shard empty):
      // the +inf/-inf sentinels survived the allreduce. Clamp to a valid
      // degenerate range so keys and histograms stay well-defined.
      ranges[j] = Range{0.0, 1.0};
    } else {
      ranges[j] = Range{lo[j], hi[j] > lo[j] ? hi[j] : lo[j] + 1.0};
    }
  }
  return ranges;
}

void stage_merge_histograms(runtime::Context& ctx,
                            std::vector<stats::HierarchicalHistogram>& hists,
                            const Params& params, bool integral_counts,
                            std::uint64_t* observed_nnz) {
  auto scope = ctx.tracer().scope(stage::kMergeHistograms);
  // The only point-derived data that ever crosses ranks,
  // O(dims * 2^max_depth) doubles — through the tree allreduce (adaptive:
  // recursive halving with sparse segments once integral counts make
  // reordering exact and the payload is worth it), around a ring (§3
  // step 3), or through capped coreset sketches (DESIGN.md §9).
  const auto flat = flatten_counts(hists);
  comm::ReduceProfile profile;
  std::vector<double> merged;
  comm::coreset::Options copts;
  copts.max_cells = params.coreset_max_cells;
  copts.epsilon = params.coreset_epsilon;
  copts.seed = params.seed;
  // Non-integral (fractional) counts never take the adaptive
  // recursive-halving path: re-associating an FP sum would perturb
  // results by rounding. A *forced* kCoreset still runs (it is
  // approximate by contract); kAuto stays exact for fractional counts.
  const auto exact_algo = integral_counts ? comm::AllreduceAlgo::kAuto
                                          : comm::AllreduceAlgo::kTree;
  switch (params.comm_mode) {
    case CommMode::kDense:
      merged = ctx.comm().allreduce(flat, comm::ReduceOp::kSum,
                                    comm::AllreduceAlgo::kTree, &profile);
      break;
    case CommMode::kSparse:
      merged = ctx.comm().allreduce(flat, comm::ReduceOp::kSum, exact_algo,
                                    &profile);
      break;
    case CommMode::kRing: {
      const auto before = ctx.comm().stats();
      merged = ctx.comm().ring_allreduce(flat);
      // Ring traffic is not profiled; charge the stats delta instead (both
      // accountings count framed bytes, so they agree where they overlap).
      profile.bytes = (ctx.comm().stats() - before).bytes_sent;
      break;
    }
    case CommMode::kCoreset:
      merged = coreset_merge_histograms(ctx, hists, flat, copts, &profile);
      break;
    case CommMode::kAuto: {
      const bool dense_enough =
          observed_nnz != nullptr &&
          *observed_nnz >=
              kCoresetAutoDensityFactor *
                  static_cast<std::uint64_t>(params.coreset_max_cells);
      if (integral_counts && dense_enough) {
        merged = coreset_merge_histograms(ctx, hists, flat, copts, &profile);
      } else {
        merged = ctx.comm().allreduce(flat, comm::ReduceOp::kSum, exact_algo,
                                      &profile);
      }
      break;
    }
  }
  unflatten_counts(merged, hists);
  if (observed_nnz != nullptr) {
    std::uint64_t nnz = 0;
    for (const double v : merged) nnz += (v != 0.0) ? 1 : 0;
    *observed_nnz = nnz;
  }
  ctx.metrics().add("reduce_bytes", profile.bytes);
  if (params.comm_mode != CommMode::kRing) {
    if (profile.algo == comm::AllreduceAlgo::kCoreset) {
      ctx.metrics().add("reduce_algo_coreset");
      ctx.metrics().add("coreset_cells_sent", profile.coreset_cells);
      // Counters are integers; for integral histogram counts the rounded
      // dropped mass is exact.
      ctx.metrics().add("coreset_mass_dropped",
                        static_cast<std::uint64_t>(
                            std::llround(profile.coreset_mass_dropped)));
    } else {
      ctx.metrics().add(profile.algo == comm::AllreduceAlgo::kRecursiveHalving
                            ? "reduce_algo_rh"
                            : "reduce_algo_tree");
    }
    if (profile.sparse_blocks > 0) {
      ctx.metrics().add("sparse_hits", profile.sparse_blocks);
    }
  }
  ctx.metrics().add("histogram_merges");
}

std::vector<int> collapse_dimensions(
    runtime::Context& ctx,
    const std::vector<stats::HierarchicalHistogram>& hists,
    const Params& params) {
  auto scope = ctx.tracer().scope(stage::kCollapse);
  // KS-based dimension collapsing on a mid-level histogram (64 bins).
  const int collapse_depth = std::min(params.max_depth, 6);
  std::vector<int> kept_dims;
  for (std::size_t j = 0; j < hists.size(); ++j) {
    const auto level = hists[j].level(collapse_depth);
    const double ks =
        stats::ks_statistic_gaussian(level.counts(), level.lo(), level.hi());
    if (ks >= params.collapse_threshold) {
      kept_dims.push_back(static_cast<int>(j));
    }
  }
  return kept_dims;
}

std::vector<std::vector<int>> depth_candidates(
    const std::vector<stats::HierarchicalHistogram>& hists,
    const std::vector<int>& kept_dims, const Params& params) {
  std::vector<std::vector<int>> candidates;
  if (params.per_dimension_depth) {
    std::vector<int> chosen;
    chosen.reserve(kept_dims.size());
    for (int j : kept_dims) {
      int best_depth = params.min_depth;
      double best_dim_score = -1.0;
      for (int depth = params.min_depth; depth <= params.max_depth; ++depth) {
        const auto level = hists[static_cast<std::size_t>(j)].level(depth);
        const auto part = partition(level.counts(), params);
        const double s = single_dimension_score(level, part);
        if (s > best_dim_score) {
          best_dim_score = s;
          best_depth = depth;
        }
      }
      chosen.push_back(best_depth);
    }
    candidates.push_back(std::move(chosen));
  } else {
    for (int depth = params.min_depth; depth <= params.max_depth; ++depth) {
      candidates.emplace_back(kept_dims.size(), depth);
    }
  }
  return candidates;
}

int candidate_owner(std::size_t k, int ranks) {
  return ranks - 1 - static_cast<int>(k % static_cast<std::size_t>(ranks));
}

std::vector<PartitionedCandidate> stage_partition(
    runtime::Context& ctx,
    const std::vector<stats::HierarchicalHistogram>& hists,
    const std::vector<int>& kept_dims,
    std::vector<std::vector<int>> candidates, const Params& params) {
  auto scope = ctx.tracer().scope(stage::kPartition);
  const int ranks = ctx.comm().size();
  const int me = ctx.comm().rank();
  // Every rank checks every candidate, so a bad one throws on all ranks
  // alike rather than on its owner alone while the others enter the
  // exchange.
  for (std::size_t k = 0; k < candidates.size(); ++k) {
    KB2_CHECK_MSG(candidates[k].size() == kept_dims.size(),
                  "stage_partition: candidate " << k << " has "
                                                << candidates[k].size()
                                                << " depths for "
                                                << kept_dims.size()
                                                << " kept dims");
    for (std::size_t i = 0; i < kept_dims.size(); ++i) {
      const int max_depth =
          hists[static_cast<std::size_t>(kept_dims[i])].max_depth();
      KB2_CHECK_MSG(candidates[k][i] >= 1 && candidates[k][i] <= max_depth,
                    "stage_partition: candidate " << k << " depth "
                                                  << candidates[k][i]
                                                  << " out of [1, "
                                                  << max_depth << "]");
    }
  }
  std::vector<PartitionedCandidate> out(candidates.size());
  for (std::size_t k = 0; k < out.size(); ++k) {
    auto& c = out[k];
    c.depths = std::move(candidates[k]);
    const bool owner = candidate_owner(k, ranks) == me;
    if (!owner && !ctx.is_root()) continue;
    for (std::size_t i = 0; i < kept_dims.size(); ++i) {
      auto level =
          hists[static_cast<std::size_t>(kept_dims[i])].level(c.depths[i]);
      if (owner) c.partitions.push_back(partition(level.counts(), params));
      if (ctx.is_root()) c.dim_hists.push_back(std::move(level));
    }
  }
  ByteWriter mine;
  write_owned_cuts(mine, out, me, ranks);
  const auto blobs = ctx.comm().allgather(mine.bytes());
  for (int r = 0; r < ranks; ++r) {
    if (r == me) continue;
    ByteReader reader(blobs[static_cast<std::size_t>(r)]);
    read_owned_cuts(reader, out, r, ranks);
  }
  return out;
}

void write_owned_cuts(ByteWriter& w,
                      const std::vector<PartitionedCandidate>& candidates,
                      int rank, int ranks) {
  for (std::size_t k = 0; k < candidates.size(); ++k) {
    if (candidate_owner(k, ranks) != rank) continue;
    w.write<std::uint64_t>(k);
    write_partitions(w, candidates[k].partitions);
  }
}

void read_owned_cuts(ByteReader& r,
                     std::vector<PartitionedCandidate>& candidates,
                     int sender, int ranks) {
  for (std::size_t k = 0; k < candidates.size(); ++k) {
    if (candidate_owner(k, ranks) != sender) continue;
    const auto index = r.read<std::uint64_t>();
    KB2_CHECK_MSG(index == k, "rank " << sender << " sent candidate "
                                      << index << " where candidate " << k
                                      << " of " << candidates.size()
                                      << " was due");
    auto& c = candidates[k];
    auto partitions = read_partitions(r);
    KB2_CHECK_MSG(partitions.size() == c.depths.size(),
                  "rank " << sender << " sent " << partitions.size()
                          << " partitions for candidate " << k << "'s "
                          << c.depths.size() << " kept dims");
    for (std::size_t i = 0; i < partitions.size(); ++i) {
      const auto bins = std::uint64_t{1} << c.depths[i];
      KB2_CHECK_MSG(partitions[i].bins == bins,
                    "rank " << sender << " sent " << partitions[i].bins
                            << " bins for candidate " << k << ", dim " << i
                            << " at depth " << c.depths[i]);
    }
    c.partitions = std::move(partitions);
  }
  KB2_CHECK_MSG(r.exhausted(), "rank " << sender << " sent " << r.remaining()
                                       << " bytes past its cuts");
}

AssessedCandidate stage_assess(runtime::Context& ctx, const KeyTable& keys,
                               const std::vector<int>& kept_dims,
                               const PartitionedCandidate& candidate,
                               const Params& params, double weight_per_point) {
  auto scope = ctx.tracer().scope(stage::kAssess);
  // Occupied cells: local count, merged at the root.
  auto local_cells = count_cells(keys, kept_dims, candidate.partitions,
                                 candidate.depths, weight_per_point);
  if (params.comm_mode == CommMode::kCoreset &&
      local_cells.size() > params.coreset_max_cells) {
    // Forced coreset mode caps the assess gather too. kAuto deliberately
    // does not: cell maps are usually far smaller than deep histograms, and
    // keeping them exact preserves default-mode fingerprints.
    double dropped = 0.0;
    local_cells = coreset_cells(
        local_cells, params.coreset_max_cells, params.coreset_epsilon,
        comm::coreset::fork_seed(params.seed,
                                 static_cast<std::uint64_t>(ctx.comm().rank()),
                                 /*b=*/0x5eedULL),
        &dropped);
    ctx.metrics().add("cells_coreset");
    ctx.metrics().add("coreset_mass_dropped",
                      static_cast<std::uint64_t>(std::llround(dropped)));
  }
  ctx.metrics().add("cells_assessed", local_cells.size());
  auto gathered = ctx.comm().gather(serialize_cells(local_cells), /*root=*/0);

  AssessedCandidate out;
  if (ctx.is_root()) {
    CellMap global_cells;
    for (const auto& blob : gathered) merge_cells(global_cells, blob);
    out.cells = to_cell_vector(global_cells);
    out.score = histogram_calinski_harabasz(candidate.dim_hists,
                                            candidate.partitions, out.cells);
    out.scored = true;
  }
  return out;
}

Model stage_share_model(runtime::Context& ctx, std::optional<Model> root_model,
                        const std::function<void(ByteWriter&)>& write_extra,
                        const std::function<void(ByteReader&)>& read_extra) {
  KB2_CHECK_MSG(root_model.has_value() == ctx.is_root(),
                "stage_share_model: exactly the root supplies the model");
  auto scope = ctx.tracer().scope(stage::kShareModel);
  ByteWriter writer;
  if (root_model.has_value()) {
    root_model->serialize(writer);
    if (write_extra) write_extra(writer);
  }
  auto bytes = writer.take();
  ctx.comm().broadcast(bytes, /*root=*/0);
  ByteReader reader(bytes);
  Model model = Model::deserialize(reader);
  if (read_extra) read_extra(reader);
  return model;
}

void run_with_recovery(runtime::Context& ctx, const Params& params,
                       std::string_view name,
                       const std::function<void()>& attempt) {
  if (params.comm_timeout_seconds > 0.0) {
    ctx.comm().set_timeout(params.comm_timeout_seconds);
  }
  const std::string what(name);
  int retries = 0;
  bool recover = false;
  for (;;) {
    try {
      if (recover) {
        recover = false;
        // Deterministic backoff before re-entering the protocol: ranks that
        // detected the failure at different points pause comparably (same
        // policy, same attempt, rank-salted jitter), so nobody hammers the
        // rendezvous while stragglers are still unwinding.
        const double pause_ms = comm::backoff_ms(
            params.recovery, retries - 1,
            static_cast<std::uint64_t>(ctx.comm().rank()));
        if (pause_ms > 0.0) {
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(pause_ms));
        }
        ctx.shrink_to_survivors();
        if (ctx.is_root()) ctx.tracer().counter("fit_retries", 1.0);
      }
      attempt();
      return;
    } catch (const comm::FitAbortedError&) {
      throw;  // already the terminal rung; never re-wrapped or retried
    } catch (const comm::CommError& e) {
      if (retries >= params.max_shrink_retries) {
        ctx.event(runtime::LogLevel::kError, what + "_abandoned",
                  runtime::flight::EventType::kRecovery,
                  static_cast<std::uint64_t>(retries),
                  {{"kind", comm::error_kind(e)},
                   {"attempts", std::to_string(retries)}});
        throw comm::FitAbortedError(
            what + " aborted after " + std::to_string(retries) +
                " retries; last failure [" + comm::error_kind(e) +
                "]: " + e.what(),
            retries, comm::error_kind(e));
      }
      ++retries;
      recover = true;
      ctx.metrics().add("fit_retries");
      ctx.event(runtime::LogLevel::kWarn, what + "_retry",
                runtime::flight::EventType::kRecovery,
                static_cast<std::uint64_t>(retries),
                {{"kind", comm::error_kind(e)},
                 {"attempt", std::to_string(retries)},
                 {"what", e.what()}});
    }
  }
}

}  // namespace keybin2::core
