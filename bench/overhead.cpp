// Overhead benchmark: what the process transport and the always-on
// observability planes cost a distributed fit (DESIGN.md §6, §8, §10).
//
// Fit plane — one dataset, one Params, four variants of the same
// --ranks-rank fit, each measured against the same plain reference:
//   plain     thread backend, no plane (the reference)
//   proc      process backend: forked ranks over shared-memory rings
//   profiled  sampling profiler + perf counters + live telemetry slot
//   recorded  flight recorder streaming into the black-box rings
// profiled and recorded write into one anonymous RankSegment. One unrecorded
// warm-up pass runs every variant first (page faults, allocator growth and
// branch history belong to none of them); each run then times every
// variant, in reverse order on odd runs, so slow machine drift cancels out
// of the ratios instead of biasing one side. Every pass audits each
// variant's per-rank {model bytes, labels} against plain's: neither the
// transport nor an observer may change the math, and the bench exits 1
// naming the variant and rank on the first divergence.
//
// P2P plane — a 2-rank ping-pong of small frames over each backend: the raw
// per-message transport cost without any clustering work on top.
//
// Acceptance bars, on the mean per-run wall ratio to plain: proc < 2.0x,
// profiled < 1.05x, recorded < 1.05x. The bench writes its report first,
// then prints every missed bar and exits 1 if any was missed.
//
// Series written to BENCH_overhead.json (the *_seconds series are gated
// lower-is-better by the perf-regression comparison; the ratios are
// informational there because their inputs are gated directly):
//   {plain,proc,profiled,recorded}_fit_seconds,
//   {proc,profile,flight}_overhead_ratio,
//   thread_p2p_seconds, proc_p2p_seconds
#include <array>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/serialize.hpp"
#include "core/keybin2.hpp"
#include "runtime/context.hpp"
#include "runtime/segment.hpp"

#ifndef __linux__
int main() {
  std::fprintf(stderr,
               "overhead: the process backend and the rank segment require "
               "Linux; skipping\n");
  return 0;
}
#else

namespace keybin2 {
namespace {

using Blobs = std::vector<std::vector<std::byte>>;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

comm::LaunchOptions backend_options(comm::Backend b) {
  comm::LaunchOptions o;
  o.backend = b;
  return o;
}

enum class Plane { kNone, kProfiler, kFlightRecorder };

struct Variant {
  const char* name;  // series <name>_fit_seconds
  const char* cost;  // series <cost>_overhead_ratio: per-run wall / plain's
  comm::Backend backend;
  Plane plane;
  double bar;  // the mean ratio must stay below this
};

constexpr std::size_t kPlain = 0;  // the reference comes first
constexpr std::array<Variant, 4> kVariants = {{
    {"plain", nullptr, comm::Backend::kThread, Plane::kNone, 0.0},
    {"proc", "proc", comm::Backend::kProcess, Plane::kNone, 2.0},
    {"profiled", "profile", comm::Backend::kThread, Plane::kProfiler, 1.05},
    {"recorded", "flight", comm::Backend::kThread, Plane::kFlightRecorder,
     1.05},
}};

/// What every variant's fit shares.
struct FitSetup {
  std::vector<data::Dataset> shards;
  core::Params params;
  runtime::RankSegment* segment;  // the profiled and recorded variants' one
};

struct TimedFit {
  double seconds;
  Blobs blobs;  // each rank's {model bytes, labels}
};

TimedFit timed_fit(const Variant& v, const FitSetup& s) {
  const double t0 = now_seconds();
  auto blobs = comm::run_ranks_collect_bytes(
      backend_options(v.backend), static_cast<int>(s.shards.size()),
      [&](comm::Communicator& c) -> std::vector<std::byte> {
        runtime::Context ctx(c, s.params.seed);
        if (v.plane == Plane::kProfiler) {
          ctx.enable_profiler({}, s.segment->slot(c.rank()));
        } else if (v.plane == Plane::kFlightRecorder) {
          ctx.enable_flight_recorder(s.segment);
        }
        const auto result = core::fit(
            ctx, s.shards[static_cast<std::size_t>(c.rank())].points,
            s.params);
        ByteWriter w;
        result.model.serialize(w);
        w.write_vec(result.labels);
        return w.take();
      });
  return {now_seconds() - t0, std::move(blobs)};
}

/// Time every variant once (in reverse order when `reverse`) and audit each
/// against plain, exiting 1 on the first divergence.
std::array<double, kVariants.size()> run_variants(const FitSetup& s,
                                                  bool reverse) {
  std::array<double, kVariants.size()> seconds{};
  std::array<Blobs, kVariants.size()> blobs;
  for (std::size_t i = 0; i < kVariants.size(); ++i) {
    const std::size_t v = reverse ? kVariants.size() - 1 - i : i;
    auto fit = timed_fit(kVariants[v], s);
    seconds[v] = fit.seconds;
    blobs[v] = std::move(fit.blobs);
  }
  for (std::size_t v = kPlain + 1; v < kVariants.size(); ++v) {
    for (std::size_t r = 0; r < blobs[kPlain].size(); ++r) {
      if (blobs[v][r] != blobs[kPlain][r]) {
        std::fprintf(stderr,
                     "FATAL: %s fit fingerprint diverges from plain on rank "
                     "%zu\n",
                     kVariants[v].name, r);
        std::exit(1);
      }
    }
  }
  return seconds;
}

void bench_p2p_plane(const bench::Options& opt, bench::Series& thread_s,
                     bench::Series& proc_s) {
  // 2 ranks, ping-pong of small frames: latency-dominated, the worst case
  // for a transport that pays a futex wake per delivery.
  constexpr int kRoundTrips = 2000;
  constexpr std::size_t kBytes = 1024;
  const auto body = [](comm::Communicator& c) -> std::vector<std::byte> {
    std::vector<std::byte> payload(kBytes, std::byte{0x5a});
    for (int i = 0; i < kRoundTrips; ++i) {
      if (c.rank() == 0) {
        c.send(1, 1, payload);
        payload = c.recv(1, 2);
      } else {
        payload = c.recv(0, 1);
        c.send(0, 2, payload);
      }
    }
    return {};
  };
  std::printf("== p2p plane: %d round trips x %zu bytes ==\n", kRoundTrips,
              kBytes);
  for (int run = 0; run < opt.runs; ++run) {
    double t0 = now_seconds();
    comm::run_ranks_collect_bytes(backend_options(comm::Backend::kThread), 2,
                                  body);
    const double tt = now_seconds() - t0;
    t0 = now_seconds();
    comm::run_ranks_collect_bytes(backend_options(comm::Backend::kProcess), 2,
                                  body);
    const double tp = now_seconds() - t0;
    thread_s.add(tt);
    proc_s.add(tp);
    std::printf("run %d: thread %.3fs  proc %.3fs\n", run, tt, tp);
  }
  std::printf("thread %s s | proc %s s\n", thread_s.str().c_str(),
              proc_s.str().c_str());
}

int run_bench(const bench::Options& opt) {
  const auto spec = data::make_paper_mixture(8, 4, opt.seed);
  const auto d = data::sample(
      spec, opt.points_per_rank * static_cast<std::size_t>(opt.ranks),
      static_cast<unsigned>(opt.seed + 1));
  runtime::RankSegment segment(opt.ranks, "overhead bench");
  FitSetup setup{data::shard(d, opt.ranks), core::Params{}, &segment};
  setup.params.seed = opt.seed;

  std::printf("== fit plane: %d ranks x %zu points ==\n", opt.ranks,
              opt.points_per_rank);
  (void)run_variants(setup, /*reverse=*/false);  // warm-up, unrecorded
  std::array<bench::Series, kVariants.size()> fit_s, ratio_s;
  for (int run = 0; run < opt.runs; ++run) {
    const auto seconds = run_variants(setup, run % 2 == 1);
    std::printf("run %d:", run);
    for (std::size_t v = 0; v < kVariants.size(); ++v) {
      fit_s[v].add(seconds[v]);
      ratio_s[v].add(seconds[v] / seconds[kPlain]);
      std::printf("  %s %.3fs", kVariants[v].name, seconds[v]);
    }
    std::printf("\n");
  }
  for (std::size_t v = 0; v < kVariants.size(); ++v) {
    std::printf("%-9s %s s | ratio %s\n", kVariants[v].name,
                fit_s[v].str().c_str(), ratio_s[v].str(3).c_str());
  }

  bench::Series thread_p2p, proc_p2p;
  bench_p2p_plane(opt, thread_p2p, proc_p2p);

  auto& rep = bench::Reporter::global();
  for (std::size_t v = 0; v < kVariants.size(); ++v) {
    rep.add_series(std::string(kVariants[v].name) + "_fit_seconds", fit_s[v]);
  }
  for (std::size_t v = kPlain + 1; v < kVariants.size(); ++v) {
    rep.add_series(std::string(kVariants[v].cost) + "_overhead_ratio",
                   ratio_s[v]);
  }
  rep.add_series("thread_p2p_seconds", thread_p2p);
  rep.add_series("proc_p2p_seconds", proc_p2p);
  rep.write(opt);
  std::fflush(stdout);  // the report line before any miss on stderr

  int missed = 0;
  for (std::size_t v = kPlain + 1; v < kVariants.size(); ++v) {
    if (ratio_s[v].mean() < kVariants[v].bar) continue;
    std::fprintf(stderr,
                 "FAIL: %s fit overhead %.3fx >= %.2fx acceptance bar\n",
                 kVariants[v].name, ratio_s[v].mean(), kVariants[v].bar);
    ++missed;
  }
  if (missed > 0) return 1;
  std::printf("overhead: OK (every bar met, fingerprints bit-identical)\n");
  return 0;
}

}  // namespace
}  // namespace keybin2

int main(int argc, char** argv) {
  const auto opt = keybin2::bench::Options::parse(argc, argv);
  return keybin2::run_bench(opt);
}

#endif  // __linux__
