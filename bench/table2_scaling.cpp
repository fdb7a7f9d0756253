// Table 2: 1280-dimensional points, weak scaling 1 -> 16 ranks (80,000
// points per process in the paper; scaled-down by default).
//
// Shape to reproduce: KeyBin2's time grows mildly as ranks x data double
// (weak scaling near-flat up to communication), parallel-kmeans grows much
// faster, and pdsdbscan is catastrophically slow and collapses everything
// into one cluster at this dimensionality (distance concentration) — the
// paper only managed the 1-process entry before giving up; we do the same
// by default (its neighbour search is O(n^2 d)).
#include <cstdio>

#include "baselines/dbscan.hpp"
#include "baselines/parallel_kmeans.hpp"
#include "bench/bench_util.hpp"
#include "comm/launch.hpp"
#include "common/timer.hpp"
#include "core/keybin2.hpp"
#include "data/gaussian_mixture.hpp"
#include "data/partition.hpp"

namespace {

using namespace keybin2;

constexpr std::size_t kDims = 1280;

void run_scale(int ranks, const bench::Options& opt, bool include_dbscan) {
  bench::MethodSeries keybin2_row, parallel_row, dbscan_row;
  bench::Reporter::global().set_section("ranks=" + std::to_string(ranks));

  for (int run = 0; run < opt.runs; ++run) {
    const std::uint64_t run_seed = opt.seed + 1000 * run;
    const auto spec = data::make_paper_mixture(kDims, 4, run_seed);
    const auto total = opt.points_per_rank * static_cast<std::size_t>(ranks);
    const auto d = data::sample(spec, total, run_seed + 1);
    const auto shards = data::shard(d, ranks);
    const auto ranges = data::partition_rows(d.size(), ranks);

    {
      std::vector<int> combined(d.size());
      core::Params params;
      params.seed = run_seed;
      WallTimer timer;
      comm::run_ranks(ranks, [&](comm::Communicator& c) {
        const auto r = static_cast<std::size_t>(c.rank());
        runtime::Context ctx(c, params.seed);
        // Run 0 is the instrumented run: comm metrics feed the BENCH json's
        // traffic matrix and wait histograms. Uniform across ranks, so the
        // collectives below stay in step.
        if (run == 0) ctx.enable_comm_metrics();
        const auto result = core::fit(ctx, shards[r].points, params);
        std::copy(result.labels.begin(), result.labels.end(),
                  combined.begin() +
                      static_cast<std::ptrdiff_t>(ranges[r].begin));
        if (opt.trace && run == 0) {
          bench::print_trace("keybin2 per-stage, run 0", ctx.trace_report());
        }
        if (run == 0) {
          bench::Reporter::global().capture(
              ctx, "keybin2 ranks=" + std::to_string(ranks));
        }
      });
      keybin2_row.add(bench::score_labels(combined, d.labels),
                      timer.seconds());
    }

    {
      baselines::KMeansParams params;
      params.k = 4;
      params.seed = run_seed;
      std::vector<int> combined(d.size());
      WallTimer timer;
      comm::run_ranks(ranks, [&](comm::Communicator& c) {
        const auto r = static_cast<std::size_t>(c.rank());
        const auto result =
            baselines::parallel_kmeans(c, shards[r].points, params);
        std::copy(result.labels.begin(), result.labels.end(),
                  combined.begin() +
                      static_cast<std::ptrdiff_t>(ranges[r].begin));
      });
      parallel_row.add(bench::score_labels(combined, d.labels),
                       timer.seconds());
    }

    if (include_dbscan) {
      // "Optimal" parameters, as the paper granted: eps from the k-distance
      // heuristic. At 1280 dims distances concentrate and the heuristic eps
      // connects everything — reproducing the paper's 1-cluster outcome.
      const double eps =
          baselines::estimate_eps(d.points, 5, 256, run_seed) * 1.05;
      std::vector<int> combined(d.size());
      WallTimer timer;
      comm::run_ranks(ranks, [&](comm::Communicator& c) {
        const auto r = static_cast<std::size_t>(c.rank());
        const auto result = baselines::pdsdbscan(
            c, shards[r].points, {.eps = eps, .min_points = 5});
        std::copy(result.labels.begin(), result.labels.end(),
                  combined.begin() +
                      static_cast<std::ptrdiff_t>(ranges[r].begin));
      });
      dbscan_row.add(bench::score_labels(combined, d.labels),
                     timer.seconds());
    }
  }

  std::printf("\n== %d process%s (%zu data points) ==\n", ranks,
              ranks == 1 ? "" : "es",
              opt.points_per_rank * static_cast<std::size_t>(ranks));
  bench::print_header();
  keybin2_row.print_row("KeyBin2");
  parallel_row.print_row("parallel-kmeans");
  if (include_dbscan) {
    dbscan_row.print_row("pdsdbscan");
  } else {
    std::printf("%-18s %18s (skipped: O(n^2 d) neighbour search; run rank 1 "
                "or --full to wait it out)\n",
                "pdsdbscan", "--");
  }
}

// ---------------------------------------------------------------------------
// Comm-mode sweep: the accuracy-vs-bytes frontier of DESIGN.md §9.
//
// Fixed at 8 ranks and max_depth 12 — the regime where deep histograms
// re-densify and sparse encoding stops helping — the same fit runs under
// every comm mode. Emitted series (consumed by trace_check --bench and the
// perf gate): reduce_bytes_mode_{dense,sparse,coreset} (bytes-lower-better),
// coreset_vs_sparse_ratio, coreset_ari (labels vs the dense fit),
// coreset_cells_sent, coreset_mass_dropped, auto_picks_coreset.

struct SweepFit {
  std::vector<int> labels;
  double reduce_bytes = 0.0;
  double coreset_merges = 0.0;
  double coreset_cells = 0.0;
  double coreset_mass_dropped = 0.0;
};

constexpr int kSweepRanks = 8;
constexpr std::size_t kSweepDims = 32;
constexpr std::size_t kSweepInformativeDims = 8;
constexpr std::size_t kSweepClusters = 4;
constexpr int kSweepDepth = 12;
constexpr std::size_t kSweepCoresetCells = 1024;
// Tight informative-dim clusters: at depth 12 the occupied-cell count blows
// far past the coreset cap, which is the regime the sweep is meant to probe.
constexpr double kSweepClusterStd = 0.05;

SweepFit sweep_fit(const data::Dataset& d, core::CommMode mode,
                   std::uint64_t run_seed) {
  const auto shards = data::shard(d, kSweepRanks);
  const auto ranges = data::partition_rows(d.size(), kSweepRanks);
  SweepFit out;
  out.labels.resize(d.size());
  core::Params params;
  params.seed = run_seed;
  params.max_depth = kSweepDepth;
  params.bootstrap_trials = 4;
  params.comm_mode = mode;
  params.coreset_max_cells = kSweepCoresetCells;
  comm::run_ranks(kSweepRanks, [&](comm::Communicator& c) {
    const auto r = static_cast<std::size_t>(c.rank());
    runtime::Context ctx(c, params.seed);
    const auto result = core::fit(ctx, shards[r].points, params);
    std::copy(result.labels.begin(), result.labels.end(),
              out.labels.begin() +
                  static_cast<std::ptrdiff_t>(ranges[r].begin));
    const auto metrics = ctx.metrics_report();
    if (ctx.is_root()) {
      const auto get = [&](const char* key) {
        const auto it = metrics.counters.find(key);
        return it == metrics.counters.end() ? 0.0
                                            : static_cast<double>(it->second);
      };
      out.reduce_bytes = get("reduce_bytes");
      out.coreset_merges = get("reduce_algo_coreset");
      out.coreset_cells = get("coreset_cells_sent");
      out.coreset_mass_dropped = get("coreset_mass_dropped");
    }
  });
  return out;
}

bool run_comm_mode_sweep(const bench::Options& opt) {
  bench::Series dense_bytes, sparse_bytes, coreset_bytes, ratio, ari,
      cells_sent, mass_dropped, auto_picks;
  for (int run = 0; run < opt.runs; ++run) {
    const std::uint64_t run_seed = opt.seed + 1000 * run;
    auto spec = data::make_redundant_mixture(kSweepDims, kSweepInformativeDims,
                                             kSweepClusters, run_seed);
    for (auto& comp : spec.components)
      for (std::size_t j = 0; j < kSweepInformativeDims; ++j)
        comp.stddev[j] = kSweepClusterStd;
    const auto total =
        opt.points_per_rank * static_cast<std::size_t>(kSweepRanks);
    const auto d = data::sample(spec, total, run_seed + 1);

    const auto dense = sweep_fit(d, core::CommMode::kDense, run_seed);
    const auto sparse = sweep_fit(d, core::CommMode::kSparse, run_seed);
    const auto coreset = sweep_fit(d, core::CommMode::kCoreset, run_seed);
    const auto autom = sweep_fit(d, core::CommMode::kAuto, run_seed);

    std::printf("run %d clusters: dense %zu sparse %zu coreset %zu auto %zu\n",
                run, stats::distinct_labels(dense.labels),
                stats::distinct_labels(sparse.labels),
                stats::distinct_labels(coreset.labels),
                stats::distinct_labels(autom.labels));
    dense_bytes.add(dense.reduce_bytes);
    sparse_bytes.add(sparse.reduce_bytes);
    coreset_bytes.add(coreset.reduce_bytes);
    ratio.add(coreset.reduce_bytes > 0.0
                  ? sparse.reduce_bytes / coreset.reduce_bytes
                  : 0.0);
    ari.add(stats::adjusted_rand_index(coreset.labels, dense.labels));
    cells_sent.add(coreset.coreset_cells);
    mass_dropped.add(coreset.coreset_mass_dropped);
    auto_picks.add(autom.coreset_merges > 0.0 ? 1.0 : 0.0);
  }

  std::printf(
      "\n== comm-mode sweep (%d ranks, depth %d, %zu dims, %zu cell cap) ==\n",
      kSweepRanks, kSweepDepth, kSweepDims, kSweepCoresetCells);
  std::printf("%-10s %22s %18s\n", "Mode", "reduce bytes", "ARI vs dense");
  std::printf("%-10s %22s %18s\n", "dense", dense_bytes.str(0).c_str(), "1.000");
  std::printf("%-10s %22s %18s\n", "sparse", sparse_bytes.str(0).c_str(),
              "1.000");
  std::printf("%-10s %22s %18s\n", "coreset", coreset_bytes.str(0).c_str(),
              ari.str(3).c_str());
  std::printf("sparse/coreset byte ratio %s, coreset cells sent %s, mass "
              "dropped %s, auto picks coreset %s\n",
              ratio.str(1).c_str(), cells_sent.str(0).c_str(),
              mass_dropped.str(0).c_str(), auto_picks.str(2).c_str());

  auto& rep = bench::Reporter::global();
  rep.add_series("reduce_bytes_mode_dense", dense_bytes);
  rep.add_series("reduce_bytes_mode_sparse", sparse_bytes);
  rep.add_series("reduce_bytes_mode_coreset", coreset_bytes);
  rep.add_series("coreset_vs_sparse_ratio", ratio);
  rep.add_series("coreset_ari", ari);
  rep.add_series("coreset_cells_sent", cells_sent);
  rep.add_series("coreset_mass_dropped", mass_dropped);
  rep.add_series("auto_picks_coreset", auto_picks);

  // Acceptance bars — enforced at representative scale only (tiny smoke
  // shards have too few occupied cells for the density regime to exist).
  if (opt.points_per_rank < 1000) return true;
  bool ok = true;
  if (ratio.mean() < 5.0) {
    std::fprintf(stderr,
                 "FAIL: coreset sends only %.1fx fewer reduce bytes than "
                 "sparse (bar: >= 5x)\n",
                 ratio.mean());
    ok = false;
  }
  if (ari.mean() < 0.95) {
    std::fprintf(stderr, "FAIL: coreset ARI vs dense %.3f (bar: >= 0.95)\n",
                 ari.mean());
    ok = false;
  }
  if (auto_picks.mean() < 1.0) {
    std::fprintf(stderr,
                 "FAIL: kAuto did not pick the coreset plane in the dense "
                 "regime\n");
    ok = false;
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  auto opt = bench::Options::parse(argc, argv);
  if (!opt.full && opt.points_per_rank > 10000) {
    std::fprintf(stderr, "hint: large --points-per-rank without --full\n");
  }
  std::printf(
      "Table 2 reproduction: %zu-dimensional mixture, weak scaling with %zu "
      "points per rank, %d runs.\n",
      kDims, opt.points_per_rank, opt.runs);
  for (int ranks : {1, 2, 4, 8, 16}) {
    // pdsdbscan only for the 1-process row, like the paper.
    run_scale(ranks, opt, /*include_dbscan=*/ranks == 1);
  }
  const bool sweep_ok = run_comm_mode_sweep(opt);
  bench::Reporter::global().write(opt);
  return sweep_ok ? 0 : 1;
}
