// keybin2 — command-line clustering.
//
//   keybin2 cluster <input.csv> [--out labels.csv] [--algo keybin2|kmeans|
//       xmeans|dbscan] [--k K] [--eps E] [--min-points P] [--trials T]
//       [--seed S] [--timeout SEC] [--retries N] [--trace]
//       [--trace-json out.json] [--log events.jsonl]
//   keybin2 fit-file <input.bin> [--out labels.bin] [--chunk N]
//       [--checkpoint path] [--budget-chunks N] [--trials T] [--seed S]
//       [--trace] [--log events.jsonl]
//   keybin2 generate <output.csv> [--points N] [--dims D] [--k K] [--seed S]
//       [--binary]
//
// `cluster` reads a CSV (header row; an optional trailing `label` column is
// treated as ground truth and scored, never shown to the algorithm) and
// writes the input with a `cluster` column appended. `generate` emits a
// labelled Gaussian mixture for experimentation (`--binary` writes the
// out-of-core binary format instead of CSV).
//
// `--ranks N` (keybin2 only) shards the input across N simulated ranks and
// runs the distributed fit over the selected transport: `--backend thread`
// (default) simulates ranks with threads in this process, `--backend proc`
// forks one child process per rank talking through POSIX shared memory —
// real address-space isolation, the honest version of a cluster job. The
// KB2_BACKEND environment variable supplies the default. Every rank ships
// its labels, traffic counters, and timeline back to the parent as a
// serialized blob, so `--trace`, `--trace-json`, and `--log` produce the
// same merged reports on either backend; `--trace`
// prints the per-stage wall-time / traffic report merged across ranks, plus
// the metrics report (counters, recv/barrier wait latency quantiles, and the
// rank-by-rank comm heatmap). `--trace-json FILE` captures per-rank
// timelines — tracer scopes as spans, each send→recv as a flow-event pair —
// and writes Chrome trace-event JSON loadable in Perfetto or
// chrome://tracing. `--log FILE` appends one JSON line per structured
// runtime event (fit retries, survivor shrinks, checkpoint writes).
// `--timeout` bounds every blocking receive (a dead rank surfaces as a
// TimeoutError instead of a hang) and `--retries` caps how many times the
// fit restarts over the surviving ranks (DESIGN.md §4b).
//
// `fit-file` clusters a binary dataset out of core. With `--checkpoint` the
// histogram pass persists resumable state every few chunks: re-running the
// identical command after a crash continues from the last checkpoint and
// produces the same model bit for bit. `--budget-chunks` pauses the run
// after N chunks (exit 0, checkpoint left behind) for drain/restart drills.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "baselines/dbscan.hpp"
#include "baselines/kmeans.hpp"
#include "baselines/xmeans.hpp"
#include "comm/fault.hpp"
#include "comm/launch.hpp"
#include "common/error.hpp"
#include "common/serialize.hpp"
#include "common/timer.hpp"
#include "core/keybin2.hpp"
#include "core/out_of_core.hpp"
#include "data/gaussian_mixture.hpp"
#include "data/io.hpp"
#include "data/partition.hpp"
#include "runtime/flight/flight.hpp"
#include "runtime/log.hpp"
#include "runtime/segment.hpp"
#include "runtime/timeline.hpp"
#include "stats/metrics.hpp"

namespace {

using namespace keybin2;

struct CliArgs {
  std::string command;
  std::string input;
  std::string out;
  std::string algo = "keybin2";
  std::size_t k = 4;
  std::size_t points = 10000;
  std::size_t dims = 16;
  double eps = 0.0;  // 0 = auto (k-distance heuristic)
  std::size_t min_points = 5;
  int trials = 8;
  std::uint64_t seed = 42;
  int ranks = 1;
  bool trace = false;
  std::string trace_json;  // Chrome trace-event output path
  std::string log_path;    // JSONL event-log output path
  bool profile = false;           // continuous profiler (DESIGN.md §8)
  std::string profile_folded;     // collapsed-stack output path
  std::string telemetry;          // live telemetry shm segment name
  bool binary = false;
  double timeout = 0.0;  // comm deadline, 0 = wait forever
  int retries = 2;       // shrink-and-continue restarts
  comm::LaunchOptions launch;  // transport for --ranks > 1 (KB2_BACKEND)
  // Flight recorder (DESIGN.md §10): -1 = auto (on under --backend proc,
  // where ranks can die abruptly and the supervisor can dump; off under
  // thread, where an exception already carries the story), 0/1 = forced.
  int flight = -1;
  std::string flight_dump = "kb2_flight.dump";
  // Chaos flags for the post-mortem smoke (check_tier1.sh): kill one rank
  // when its comm-op count reaches --kill-at-op. Under --backend proc the
  // kill is a real SIGKILL; under thread it degrades to a thrown KilledError.
  int kill_rank = -1;
  std::uint64_t kill_at_op = 0;
  std::string checkpoint;
  std::size_t chunk = 8192;
  std::size_t budget_chunks = 0;
};

[[noreturn]] void usage(int code) {
  std::fprintf(
      stderr,
      "usage:\n"
      "  keybin2 cluster <input.csv> [--out labels.csv] [--algo keybin2|"
      "kmeans|xmeans|dbscan]\n"
      "                  [--k K] [--eps E] [--min-points P] [--trials T] "
      "[--seed S]\n"
      "                  [--ranks N] [--backend thread|proc] [--trace] "
      "[--trace-json out.json]\n"
      "                  [--log events.jsonl] [--timeout SEC] "
      "[--retries N] [--respawns N]\n"
      "                  [--profile] [--profile-folded out.folded] "
      "[--telemetry SEGMENT]\n"
      "                  [--flight-recorder | --no-flight-recorder] "
      "[--flight-dump PATH]\n"
      "  keybin2 fit-file <input.bin> [--out labels.bin] [--chunk N] "
      "[--checkpoint path]\n"
      "                  [--budget-chunks N] [--trials T] [--seed S] "
      "[--trace] [--log events.jsonl]\n"
      "  keybin2 generate <output.csv> [--points N] [--dims D] [--k K] "
      "[--seed S] [--binary]\n");
  std::exit(code);
}

CliArgs parse(int argc, char** argv) {
  if (argc < 3) usage(2);
  CliArgs a;
  a.launch = comm::LaunchOptions::from_env();  // KB2_BACKEND default
  a.command = argv[1];
  a.input = argv[2];
  for (int i = 3; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        usage(2);
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--out")) {
      a.out = next("--out");
    } else if (!std::strcmp(argv[i], "--algo")) {
      a.algo = next("--algo");
    } else if (!std::strcmp(argv[i], "--k")) {
      a.k = std::strtoull(next("--k"), nullptr, 10);
    } else if (!std::strcmp(argv[i], "--points")) {
      a.points = std::strtoull(next("--points"), nullptr, 10);
    } else if (!std::strcmp(argv[i], "--dims")) {
      a.dims = std::strtoull(next("--dims"), nullptr, 10);
    } else if (!std::strcmp(argv[i], "--eps")) {
      a.eps = std::strtod(next("--eps"), nullptr);
    } else if (!std::strcmp(argv[i], "--min-points")) {
      a.min_points = std::strtoull(next("--min-points"), nullptr, 10);
    } else if (!std::strcmp(argv[i], "--trials")) {
      a.trials = std::atoi(next("--trials"));
    } else if (!std::strcmp(argv[i], "--seed")) {
      a.seed = std::strtoull(next("--seed"), nullptr, 10);
    } else if (!std::strcmp(argv[i], "--ranks")) {
      a.ranks = std::atoi(next("--ranks"));
      if (a.ranks < 1) {
        std::fprintf(stderr, "--ranks must be >= 1\n");
        usage(2);
      }
    } else if (!std::strcmp(argv[i], "--backend")) {
      const std::string b = next("--backend");
      if (b == "thread") {
        a.launch.backend = comm::Backend::kThread;
      } else if (b == "proc" || b == "process") {
        a.launch.backend = comm::Backend::kProcess;
      } else {
        std::fprintf(stderr, "--backend must be 'thread' or 'proc'\n");
        usage(2);
      }
    } else if (!std::strcmp(argv[i], "--trace")) {
      a.trace = true;
    } else if (!std::strcmp(argv[i], "--trace-json")) {
      a.trace_json = next("--trace-json");
    } else if (!std::strcmp(argv[i], "--log")) {
      a.log_path = next("--log");
    } else if (!std::strcmp(argv[i], "--profile")) {
      a.profile = true;
    } else if (!std::strcmp(argv[i], "--profile-folded")) {
      a.profile_folded = next("--profile-folded");
      a.profile = true;
    } else if (!std::strcmp(argv[i], "--telemetry")) {
      a.telemetry = next("--telemetry");
      a.profile = true;  // publishes ride the profiler's scope callbacks
    } else if (!std::strcmp(argv[i], "--binary")) {
      a.binary = true;
    } else if (!std::strcmp(argv[i], "--timeout")) {
      a.timeout = std::strtod(next("--timeout"), nullptr);
    } else if (!std::strcmp(argv[i], "--retries")) {
      a.retries = std::atoi(next("--retries"));
    } else if (!std::strcmp(argv[i], "--respawns")) {
      a.launch.recovery.max_respawns = std::atoi(next("--respawns"));
    } else if (!std::strcmp(argv[i], "--flight-recorder")) {
      a.flight = 1;
    } else if (!std::strcmp(argv[i], "--no-flight-recorder")) {
      a.flight = 0;
    } else if (!std::strcmp(argv[i], "--flight-dump")) {
      a.flight_dump = next("--flight-dump");
      if (a.flight == -1) a.flight = 1;
    } else if (!std::strcmp(argv[i], "--kill-rank")) {
      a.kill_rank = std::atoi(next("--kill-rank"));
    } else if (!std::strcmp(argv[i], "--kill-at-op")) {
      a.kill_at_op = std::strtoull(next("--kill-at-op"), nullptr, 10);
    } else if (!std::strcmp(argv[i], "--checkpoint")) {
      a.checkpoint = next("--checkpoint");
    } else if (!std::strcmp(argv[i], "--chunk")) {
      a.chunk = std::strtoull(next("--chunk"), nullptr, 10);
    } else if (!std::strcmp(argv[i], "--budget-chunks")) {
      a.budget_chunks = std::strtoull(next("--budget-chunks"), nullptr, 10);
    } else if (!std::strcmp(argv[i], "--help")) {
      usage(0);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      usage(2);
    }
  }
  return a;
}

void write_trace_json(const std::string& path,
                      std::span<const runtime::Timeline> timelines) {
  std::ofstream out(path);
  KB2_CHECK_MSG(out.good(), "cannot open " << path << " for writing");
  out << runtime::chrome_trace_json(timelines);
  KB2_CHECK_MSG(out.good(), "write to " << path << " failed");
  std::printf("wrote Chrome trace-event JSON to %s\n", path.c_str());
}

/// Open the shared JSONL event sink (all ranks log into one file), or null
/// when --log was not given.
std::shared_ptr<runtime::JsonlFileSink> open_log_sink(const CliArgs& a) {
  if (a.log_path.empty()) return nullptr;
  auto sink = std::make_shared<runtime::JsonlFileSink>(a.log_path);
  KB2_CHECK_MSG(sink->ok(), "cannot open " << a.log_path << " for writing");
  return sink;
}

int run_generate(const CliArgs& a) {
  const auto spec = data::make_paper_mixture(a.dims, a.k, a.seed);
  const auto d = data::sample(spec, a.points, a.seed + 1);
  // Positional arg is the output path here.
  if (a.binary) {
    data::write_binary(d, a.input);
  } else {
    data::write_csv(d, a.input);
  }
  std::printf("wrote %zu labelled points (%zu dims, k=%zu) to %s\n", d.size(),
              d.dims(), a.k, a.input.c_str());
  return 0;
}

int run_fit_file(const CliArgs& a) {
  core::Params params;
  params.seed = a.seed;
  params.bootstrap_trials = a.trials;
  const std::string labels_path =
      a.out.empty() ? a.input + ".labels" : a.out;
  core::CheckpointOptions ckpt;
  ckpt.path = a.checkpoint;
  ckpt.max_chunks = a.budget_chunks;

  runtime::Context ctx(params.seed);
  if (a.trace) ctx.enable_comm_metrics();
  const auto sink = open_log_sink(a);
  if (sink != nullptr) ctx.log().set_sink(sink);

  WallTimer timer;
  const auto result =
      core::fit_from_file(ctx, a.input, labels_path, params, a.chunk, ckpt);
  if (a.trace) {
    std::fputs(ctx.trace_report().format().c_str(), stdout);
    std::fputs(ctx.metrics_report().format().c_str(), stdout);
  }
  if (!result.completed) {
    std::printf("paused after the chunk budget; resumable state saved to "
                "%s (rerun the same command to continue)\n",
                a.checkpoint.c_str());
    return 0;
  }
  std::printf("keybin2 fit-file: %d clusters (model score %.1f) over %llu "
              "points (%zu dims, %zu chunks) in %.3f s\n",
              result.model.n_clusters(), result.model.score(),
              static_cast<unsigned long long>(result.points), result.dims,
              result.chunks, timer.seconds());
  std::printf("wrote labels to %s\n", labels_path.c_str());
  return 0;
}

int run_cluster(const CliArgs& a) {
  auto d = data::read_csv(a.input);
  std::printf("%s: %zu points, %zu dims%s\n", a.input.c_str(), d.size(),
              d.dims(), d.labelled() ? " (ground-truth labels present)" : "");

  std::vector<int> labels;
  WallTimer timer;
  if (a.algo == "keybin2") {
    core::Params params;
    params.seed = a.seed;
    params.bootstrap_trials = a.trials;
    params.comm_timeout_seconds = a.timeout;
    params.max_shrink_retries = a.retries;
    params.recovery = a.launch.recovery;
    double score = 0.0;
    int n_clusters = 0;
    std::string trace_text, metrics_text;
    const auto sink = open_log_sink(a);
    if (a.ranks > 1) {
      // Shard contiguously across simulated ranks; labels concatenate back
      // in input order. Every rank — thread- or process-backed — returns
      // one serialized blob {labels, stats, timeline?, root extras}, the
      // only data path that crosses a process boundary; by-reference
      // capture mutation would silently vanish under --backend proc.
      // Under --backend proc the parent's truncating open above still did
      // useful work (reset the file, surfaced open errors pre-fork), but
      // each child re-opens the path append-mode for itself.
      const bool proc = a.launch.backend == comm::Backend::kProcess;
      const auto shards = data::shard(d, a.ranks);
      // One pre-fork segment carries both the telemetry slots and the
      // flight rings: under --backend proc every child (respawns included —
      // they fork from this parent) inherits the MAP_SHARED mapping, so
      // slot and ring pointers taken below stay valid in every address
      // space, and a SIGKILLed rank's ring stays readable from here. Named
      // for kb2_top with --telemetry (unlinked when run_cluster returns,
      // which is what ends an attached kb2_top), anonymous otherwise. The
      // flight recorder defaults on under --backend proc (a dead child
      // can't tell its own story), off under thread unless forced.
      const bool flight_on = a.flight == 1 || (a.flight == -1 && proc);
      std::unique_ptr<runtime::RankSegment> seg;
      if (flight_on || !a.telemetry.empty()) {
        seg = std::make_unique<runtime::RankSegment>(
            a.ranks, "cluster " + a.input, a.telemetry);
      }
      if (!a.telemetry.empty()) {
        std::printf("telemetry: %s (attach with kb2_top --segment %s)\n",
                    seg->name().c_str(), seg->name().c_str());
      }
      // Abnormal deaths (signal reaps, ladder exhaustion, rank throws) get
      // the death-moment snapshot: freeze every ring, write the cumulative
      // dump, re-arm so a respawned incarnation keeps recording. Under the
      // thread backend rank functions fail concurrently, hence the mutex.
      auto launch = a.launch;
      std::mutex flight_mu;
      std::vector<runtime::flight::FlightDeath> deaths;
      if (flight_on) {
        launch.on_abnormal_death = [&](int rank, int incarnation,
                                       const std::string& reason) {
          std::lock_guard lk(flight_mu);
          seg->freeze();
          deaths.push_back({rank, incarnation, reason});
          runtime::flight::write_flight_dump(a.flight_dump, *seg,
                                             "abnormal rank death", deaths);
          seg->unfreeze();
          std::fprintf(stderr,
                       "flight: rank %d (inc %d) died: %s — dump written to "
                       "%s (inspect with kb2_postmortem)\n",
                       rank, incarnation, reason.c_str(),
                       a.flight_dump.c_str());
        };
      }
      std::exception_ptr fit_error;
      const auto blobs = comm::run_ranks_collect_bytes(
          launch, a.ranks,
          [&](comm::Communicator& comm) -> std::vector<std::byte> {
            // Chaos injection for the post-mortem smoke: the designated rank
            // dies at its Nth comm op — SIGKILL under proc (FaultyComm
            // escalates when the transport is process-isolated), a thrown
            // KilledError under thread. Either way the flight ring keeps the
            // interrupted op's unmatched begin.
            std::optional<comm::fault::FaultyComm> faulty;
            comm::Communicator* endpoint = &comm;
            // Incarnation 0 only: the respawned replacement must survive, or
            // the kill would repeat until the ladder exhausts its budget.
            if (a.kill_rank == comm.rank() && a.kill_at_op > 0 &&
                comm.incarnation() == 0) {
              comm::fault::FaultSchedule chaos;
              chaos.kill_at_op = a.kill_at_op;
              chaos.hard_kill = true;
              faulty.emplace(comm, chaos);
              endpoint = &*faulty;
            }
            runtime::Context ctx(*endpoint, params.seed);
            if (flight_on) ctx.enable_flight_recorder(seg.get());
            if (a.trace) ctx.enable_comm_metrics();
            if (!a.trace_json.empty()) ctx.enable_timeline();
            if (a.profile) {
              ctx.enable_profiler({}, a.telemetry.empty()
                                          ? nullptr
                                          : seg->slot(comm.rank()));
            }
            if (proc && !a.log_path.empty()) {
              // This rank is a forked child: the parent's FILE* is useless
              // here, so append to the (parent-truncated) file directly.
              ctx.log().set_sink(std::make_shared<runtime::JsonlFileSink>(
                  a.log_path, /*append=*/true));
            } else if (sink != nullptr) {
              ctx.log().set_sink(sink);
            }
            auto result = core::fit(
                ctx, shards[static_cast<std::size_t>(comm.rank())].points,
                params);
            std::string folded;
            if (ctx.profiler() != nullptr) {
              // Stop before the report collectives so the profiler's gauges
              // and density counters are flushed into what they gather.
              ctx.profiler()->stop();
              folded = ctx.profiler()->folded_output();
            }
            ByteWriter w;
            w.write_vec(result.labels);
            std::string rank_trace, rank_metrics;
            comm::TrafficStats stats;
            if (a.trace) {
              // Snapshot stats before the trace gather, so the printed
              // totals cover exactly what the per-stage table attributes.
              stats = comm.stats();
              auto report = ctx.trace_report();     // collective
              auto metrics = ctx.metrics_report();  // collective
              if (ctx.is_root()) {
                rank_trace = report.format();
                rank_metrics = metrics.format();
              }
            }
            w.write<comm::TrafficStats>(stats);
            w.write<std::uint8_t>(ctx.is_root() ? 1 : 0);
            if (ctx.is_root()) {
              w.write<double>(result.model.score());
              w.write<std::int32_t>(result.n_clusters());
              w.write_string(rank_trace);
              w.write_string(rank_metrics);
            }
            const auto* tl = ctx.timeline();
            w.write<std::uint8_t>(tl != nullptr ? 1 : 0);
            if (tl != nullptr) tl->serialize(w);
            w.write_string(folded);
            return w.take();
          },
          nullptr, &fit_error);
      if (fit_error != nullptr) std::rethrow_exception(fit_error);

      // Merge the per-rank blobs (rank order = input order for labels).
      std::vector<comm::TrafficStats> rank_stats;
      std::vector<runtime::Timeline> timelines;
      std::map<std::string, std::uint64_t> folded_merged;
      for (const auto& blob : blobs) {
        KB2_CHECK_MSG(!blob.empty(), "a rank returned no result blob");
        ByteReader r(blob);
        const auto part = r.read_vec<int>();
        labels.insert(labels.end(), part.begin(), part.end());
        rank_stats.push_back(r.read<comm::TrafficStats>());
        if (r.read<std::uint8_t>() != 0) {
          score = r.read<double>();
          n_clusters = r.read<std::int32_t>();
          trace_text = r.read_string();
          metrics_text = r.read_string();
        }
        if (r.read<std::uint8_t>() != 0) {
          timelines.push_back(runtime::Timeline::deserialize(r));
        }
        // Sum per-rank collapsed stacks ("stack count" lines) into one
        // job-wide flamegraph input.
        const auto folded = r.read_string();
        for (std::size_t pos = 0; pos < folded.size();) {
          auto eol = folded.find('\n', pos);
          if (eol == std::string::npos) eol = folded.size();
          const std::string_view line(folded.data() + pos, eol - pos);
          const auto space = line.rfind(' ');
          if (space != std::string_view::npos) {
            folded_merged[std::string(line.substr(0, space))] +=
                std::strtoull(line.data() + space + 1, nullptr, 10);
          }
          pos = eol + 1;
        }
        KB2_CHECK_MSG(r.exhausted(), "trailing bytes in a rank result blob");
      }
      std::printf("keybin2: %d clusters (model score %.1f) on %d ranks "
                  "(%s backend) in %.3f s\n",
                  n_clusters, score, a.ranks,
                  comm::backend_name(a.launch.backend), timer.seconds());
      if (a.trace) {
        std::fputs(trace_text.c_str(), stdout);
        comm::TrafficStats totals;
        for (const auto& s : rank_stats) totals += s;
        std::printf("communicator totals: %llu msgs / %llu bytes sent, "
                    "%llu msgs / %llu bytes received\n",
                    static_cast<unsigned long long>(totals.messages_sent),
                    static_cast<unsigned long long>(totals.bytes_sent),
                    static_cast<unsigned long long>(totals.messages_received),
                    static_cast<unsigned long long>(totals.bytes_received));
        std::fputs(metrics_text.c_str(), stdout);
      }
      if (!a.trace_json.empty()) write_trace_json(a.trace_json, timelines);
      if (!a.profile_folded.empty()) {
        std::ofstream f(a.profile_folded);
        KB2_CHECK_MSG(f.good(),
                      "cannot open " << a.profile_folded << " for writing");
        std::uint64_t total = 0;
        for (const auto& [stack, count] : folded_merged) {
          f << stack << ' ' << count << '\n';
          total += count;
        }
        std::printf("wrote %zu collapsed stacks (%llu samples) to %s\n",
                    folded_merged.size(),
                    static_cast<unsigned long long>(total),
                    a.profile_folded.c_str());
      }
    } else {
      std::unique_ptr<runtime::RankSegment> seg;
      if (!a.telemetry.empty()) {
        seg = std::make_unique<runtime::RankSegment>(1, "cluster " + a.input,
                                                     a.telemetry);
        std::printf("telemetry: %s (attach with kb2_top --segment %s)\n",
                    seg->name().c_str(), seg->name().c_str());
      }
      runtime::Context ctx(params.seed);
      if (a.trace) ctx.enable_comm_metrics();
      if (!a.trace_json.empty()) ctx.enable_timeline();
      if (a.profile) {
        ctx.enable_profiler({}, seg != nullptr ? seg->slot(0) : nullptr);
      }
      if (sink != nullptr) ctx.log().set_sink(sink);
      auto result = core::fit(ctx, d.points, params);
      if (ctx.profiler() != nullptr) {
        ctx.profiler()->stop();
        if (!a.profile_folded.empty()) {
          std::ofstream f(a.profile_folded);
          KB2_CHECK_MSG(f.good(),
                        "cannot open " << a.profile_folded << " for writing");
          f << ctx.profiler()->folded_output();
          std::printf("wrote collapsed stacks (%llu samples) to %s\n",
                      static_cast<unsigned long long>(
                          ctx.profiler()->samples()),
                      a.profile_folded.c_str());
        }
      }
      labels = std::move(result.labels);
      score = result.model.score();
      n_clusters = result.n_clusters();
      std::printf("keybin2: %d clusters (model score %.1f) in %.3f s\n",
                  n_clusters, score, timer.seconds());
      if (a.trace) {
        std::fputs(ctx.trace_report().format().c_str(), stdout);
        std::fputs(ctx.metrics_report().format().c_str(), stdout);
      }
      if (!a.trace_json.empty()) {
        write_trace_json(a.trace_json, {ctx.timeline(), 1});
      }
    }
  } else if (a.algo == "kmeans") {
    baselines::KMeansParams params;
    params.k = a.k;
    params.seed = a.seed;
    params.n_init = 10;
    const auto result = baselines::kmeans(d.points, params);
    labels = result.labels;
    std::printf("kmeans: k=%zu, inertia %.1f, %d iterations in %.3f s\n", a.k,
                result.inertia, result.iterations, timer.seconds());
  } else if (a.algo == "xmeans") {
    baselines::XMeansParams params;
    params.k_max = std::max<std::size_t>(a.k, 32);
    params.seed = a.seed;
    const auto result = baselines::xmeans(d.points, params);
    labels = result.labels;
    std::printf("xmeans: found k=%zu (BIC %.1f) in %.3f s\n", result.k,
                result.bic, timer.seconds());
  } else if (a.algo == "dbscan") {
    const double eps =
        a.eps > 0.0 ? a.eps
                    : baselines::estimate_eps(d.points, a.min_points);
    const auto result = baselines::dbscan(
        d.points, {.eps = eps, .min_points = a.min_points});
    labels = result.labels;
    std::printf("dbscan: eps=%.4g, %zu clusters, %zu noise points in "
                "%.3f s\n",
                eps, result.clusters, result.noise_points, timer.seconds());
  } else {
    std::fprintf(stderr, "unknown algorithm '%s'\n", a.algo.c_str());
    usage(2);
  }

  if (d.labelled()) {
    const auto s = stats::pairwise_scores(labels, d.labels);
    std::printf("vs ground truth: precision %.3f, recall %.3f, F1 %.3f\n",
                s.precision, s.recall, s.f1);
  }

  if (!a.out.empty()) {
    data::Dataset out;
    out.points = d.points;
    out.labels = labels;  // written as the `label` column
    data::write_csv(out, a.out);
    std::printf("wrote cluster assignments to %s\n", a.out.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const auto args = parse(argc, argv);
    if (args.command == "cluster") return run_cluster(args);
    if (args.command == "fit-file") return run_fit_file(args);
    if (args.command == "generate") return run_generate(args);
    usage(2);
  } catch (const keybin2::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
