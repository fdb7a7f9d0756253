// Flight-recorder overhead benchmark (DESIGN.md §10).
//
// Alternates plain and flight-recorded distributed fits (stage transitions,
// comm op begin/end, recovery events all streaming into the pre-created
// black-box rings) over the thread backend and measures the wall-time
// ratio. Two guarantees are gated:
//   * overhead — the mean recorded/plain ratio must stay under 1.05: the
//     flight recorder is an always-on crash-forensics facility (it is the
//     default under --backend proc), so a 5% fit-time tax is the acceptance
//     bar and the bench exits nonzero beyond it;
//   * non-perturbation — every run's model bytes and labels must be
//     bit-identical between the plain and recorded fit. The recorder
//     observes the computation; it may never change it. The bench aborts on
//     the first divergence.
//
// Pair ordering alternates (plain-first on even runs, recorded-first on
// odd) so slow machine drift cancels out of the ratio instead of biasing
// one side.
//
// Series written to BENCH_flight_overhead.json (the *_seconds series are
// gated lower-is-better by the perf-regression comparison; the ratio is
// informational there because its inputs are gated directly):
//   plain_fit_seconds, recorded_fit_seconds, flight_overhead_ratio
#include <chrono>
#include <cstdio>
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
      "flight_overhead: the forensics plane requires Linux; skipping\n");
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

/// One distributed fit; `seg` non-null attaches every rank to its black-box
/// ring. Returns wall seconds and fills `fingerprints` with each rank's
/// {model bytes, labels} blob.
double timed_fit(const std::vector<data::Dataset>& shards,
                 const core::Params& params,
                 runtime::RankSegment* seg,
                 std::vector<std::vector<std::byte>>& fingerprints) {
  const int ranks = static_cast<int>(shards.size());
  const double t0 = now_seconds();
  fingerprints = comm::run_ranks_collect_bytes(
      comm::LaunchOptions{}, ranks,
      [&](comm::Communicator& c) -> std::vector<std::byte> {
        const auto r = static_cast<std::size_t>(c.rank());
        runtime::Context ctx(c, params.seed);
        if (seg != nullptr) ctx.enable_flight_recorder(seg);
        const auto result = core::fit(ctx, shards[r].points, params);
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

  runtime::RankSegment seg(opt.ranks, "flight_overhead bench");

  bench::Series plain_s, recorded_s, ratio_s;
  std::printf("== flight-recorder overhead: %d ranks x %zu points ==\n",
              opt.ranks, opt.points_per_rank);
  // One unrecorded warmup pair: page faults, allocator growth, and branch
  // history belong to neither side of the ratio.
  std::vector<std::vector<std::byte>> plain_fp, recorded_fp;
  (void)timed_fit(shards, params, nullptr, plain_fp);
  (void)timed_fit(shards, params, &seg, recorded_fp);

  for (int run = 0; run < opt.runs; ++run) {
    double tp, tq;
    if (run % 2 == 0) {
      tp = timed_fit(shards, params, nullptr, plain_fp);
      tq = timed_fit(shards, params, &seg, recorded_fp);
    } else {
      tq = timed_fit(shards, params, &seg, recorded_fp);
      tp = timed_fit(shards, params, nullptr, plain_fp);
    }
    for (std::size_t r = 0; r < plain_fp.size(); ++r) {
      if (plain_fp[r] != recorded_fp[r]) {
        std::fprintf(stderr,
                     "FATAL: recorded fit fingerprint diverges from plain "
                     "on rank %zu — the flight recorder perturbed the "
                     "computation\n",
                     r);
        std::exit(1);
      }
    }
    plain_s.add(tp);
    recorded_s.add(tq);
    ratio_s.add(tq / tp);
    std::printf("run %d: plain %.3fs  recorded %.3fs  ratio %.3fx\n", run,
                tp, tq, tq / tp);
  }
  std::printf("plain %s s | recorded %s s | ratio %s\n",
              plain_s.str().c_str(), recorded_s.str().c_str(),
              ratio_s.str(3).c_str());

  auto& rep = bench::Reporter::global();
  rep.add_series("plain_fit_seconds", plain_s);
  rep.add_series("recorded_fit_seconds", recorded_s);
  rep.add_series("flight_overhead_ratio", ratio_s);
  rep.write(opt);

  if (ratio_s.mean() >= 1.05) {
    std::fprintf(stderr,
                 "FAIL: flight-recorder overhead %.3fx >= 1.05x acceptance "
                 "bar\n",
                 ratio_s.mean());
    return 1;
  }
  std::printf(
      "flight_overhead: OK (%.3fx < 1.05x, fingerprints bit-identical)\n",
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
