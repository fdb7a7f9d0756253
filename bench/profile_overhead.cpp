// Continuous-profiler overhead benchmark (DESIGN.md §8).
//
// Alternates plain and fully profiled distributed fits (sampling profiler
// at the default 2 ms cadence + perf counters when available + live
// telemetry publishing) over the thread backend and measures the wall-time
// ratio. Two guarantees are gated:
//   * overhead — the mean profiled/plain ratio must stay under 1.05: the
//     profiler is a production always-on facility, not a debug mode, so a
//     5% fit-time tax is the acceptance bar and the bench exits nonzero
//     beyond it;
//   * non-perturbation — every run's model bytes and labels must be
//     bit-identical between the plain and profiled fit. Profiling observes
//     the computation; it may never change it. The bench aborts on the
//     first divergence.
//
// Pair ordering alternates (plain-first on even runs, profiled-first on
// odd) so slow machine drift — thermal, cache warmup, a neighbour on the
// CI box — cancels out of the ratio instead of biasing one side.
//
// Series written to BENCH_profile_overhead.json (the *_seconds series are
// gated lower-is-better by the perf-regression comparison; the ratio is
// informational there because its inputs are gated directly):
//   plain_fit_seconds, profiled_fit_seconds, profile_overhead_ratio
#include <chrono>
#include <cstdio>
#include <unistd.h>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/serialize.hpp"
#include "core/keybin2.hpp"
#include "runtime/context.hpp"
#include "runtime/segment.hpp"

#ifndef __linux__
int main() {
  std::fprintf(
      stderr,
      "profile_overhead: the telemetry plane requires Linux; skipping\n");
  return 0;
}
#else

namespace keybin2 {
namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One distributed fit; `seg` non-null turns on the full profiler stack
/// (sampler + perf counters + telemetry publishing). Returns wall seconds
/// and fills `fingerprints` with each rank's {model bytes, labels} blob.
double timed_fit(const std::vector<data::Dataset>& shards,
                 const core::Params& params, runtime::RankSegment* seg,
                 std::vector<std::vector<std::byte>>& fingerprints) {
  const int ranks = static_cast<int>(shards.size());
  const double t0 = now_seconds();
  fingerprints = comm::run_ranks_collect_bytes(
      comm::LaunchOptions{}, ranks,
      [&](comm::Communicator& c) -> std::vector<std::byte> {
        const auto r = static_cast<std::size_t>(c.rank());
        runtime::Context ctx(c, params.seed);
        if (seg != nullptr) ctx.enable_profiler({}, seg->slot(c.rank()));
        const auto result = core::fit(ctx, shards[r].points, params);
        if (ctx.profiler() != nullptr) ctx.profiler()->stop();
        ByteWriter w;
        result.model.serialize(w);
        w.write_vec(result.labels);
        return w.take();
      });
  return now_seconds() - t0;
}

int run_bench(const bench::Options& opt) {
  const auto spec = data::make_paper_mixture(8, 4, opt.seed);
  const auto d = data::sample(
      spec, opt.points_per_rank * static_cast<std::size_t>(opt.ranks),
      static_cast<unsigned>(opt.seed + 1));
  const auto shards = data::shard(d, opt.ranks);
  core::Params params;
  params.seed = opt.seed;

  runtime::RankSegment seg(opt.ranks, "profile_overhead bench",
                           "kb2-profov-" + std::to_string(getpid()));

  bench::Series plain_s, profiled_s, ratio_s;
  std::printf("== profile overhead: %d ranks x %zu points ==\n", opt.ranks,
              opt.points_per_rank);
  // One unrecorded warmup pair: page faults, allocator growth, and branch
  // history belong to neither side of the ratio.
  std::vector<std::vector<std::byte>> plain_fp, profiled_fp;
  (void)timed_fit(shards, params, nullptr, plain_fp);
  (void)timed_fit(shards, params, &seg, profiled_fp);

  for (int run = 0; run < opt.runs; ++run) {
    double tp, tq;
    if (run % 2 == 0) {
      tp = timed_fit(shards, params, nullptr, plain_fp);
      tq = timed_fit(shards, params, &seg, profiled_fp);
    } else {
      tq = timed_fit(shards, params, &seg, profiled_fp);
      tp = timed_fit(shards, params, nullptr, plain_fp);
    }
    for (std::size_t r = 0; r < plain_fp.size(); ++r) {
      if (plain_fp[r] != profiled_fp[r]) {
        std::fprintf(stderr,
                     "FATAL: profiled fit fingerprint diverges from plain "
                     "on rank %zu — profiling perturbed the computation\n",
                     r);
        std::exit(1);
      }
    }
    plain_s.add(tp);
    profiled_s.add(tq);
    ratio_s.add(tq / tp);
    std::printf("run %d: plain %.3fs  profiled %.3fs  ratio %.3fx\n", run,
                tp, tq, tq / tp);
  }
  std::printf("plain %s s | profiled %s s | ratio %s\n",
              plain_s.str().c_str(), profiled_s.str().c_str(),
              ratio_s.str(3).c_str());

  auto& rep = bench::Reporter::global();
  rep.add_series("plain_fit_seconds", plain_s);
  rep.add_series("profiled_fit_seconds", profiled_s);
  rep.add_series("profile_overhead_ratio", ratio_s);
  rep.write(opt);

  if (ratio_s.mean() >= 1.05) {
    std::fprintf(stderr,
                 "FAIL: profiling overhead %.3fx >= 1.05x acceptance bar\n",
                 ratio_s.mean());
    return 1;
  }
  std::printf(
      "profile_overhead: OK (%.3fx < 1.05x, fingerprints bit-identical)\n",
      ratio_s.mean());
  return 0;
}

}  // namespace
}  // namespace keybin2

int main(int argc, char** argv) {
  const auto opt = keybin2::bench::Options::parse(argc, argv);
  return keybin2::run_bench(opt);
}

#endif  // __linux__
