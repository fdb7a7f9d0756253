// kb2_soak: the seeded chaos-soak driver (DESIGN.md §7).
//
// Runs N deterministic chaos schedules (comm/chaos) against the
// process-backed fit with the recovery ladder armed, and holds every run to
// the soak invariant:
//
//   every schedule either converges to the fault-free fit fingerprint
//   (bit-identical model + labels), or ends in a typed, attributed error —
//   never a hang, never a silent wrong answer.
//
// Per schedule: a SIGKILL lands at a seeded protocol operation (sometimes
// the respawned replacement is killed too), a seeded rank's sends are
// delayed, and a third of the seeds additionally damage a checkpoint file
// and assert the typed-restore story (CheckpointError, ".prev" fallback). A
// watchdog thread turns any hang into a loud exit(3) instead of a stuck CI
// job. Outcomes land in BENCH_chaos_soak.json via the bench Reporter.
//
// usage: kb2_soak [--schedules N] [--ranks N] [--points-per-rank N]
//                 [--seed S]       (KB2_CHAOS_SEED overrides the default)
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#ifdef __unix__
#include <unistd.h>
#endif

#include "bench_util.hpp"
#include "comm/chaos/chaos.hpp"
#include "comm/fault.hpp"
#include "comm/proc_comm.hpp"
#include "comm/recovery.hpp"
#include "common/serialize.hpp"
#include "core/checkpoint.hpp"
#include "core/streaming.hpp"
#include "runtime/flight/flight.hpp"
#include "runtime/segment.hpp"

namespace {

using namespace keybin2;

struct SoakArgs {
  int schedules = 8;
  int ranks = 4;
  std::size_t points_per_rank = 1200;
  std::uint64_t seed = 0;  // resolved against KB2_CHAOS_SEED below
  std::string telemetry;   // live telemetry segment name (kb2_top attaches)
};

SoakArgs parse(int argc, char** argv) {
  SoakArgs a;
  a.seed = comm::chaos::chaos_seed_from_env(42);
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--schedules")) {
      a.schedules = std::atoi(next("--schedules"));
    } else if (!std::strcmp(argv[i], "--ranks")) {
      a.ranks = std::atoi(next("--ranks"));
    } else if (!std::strcmp(argv[i], "--points-per-rank")) {
      a.points_per_rank =
          std::strtoull(next("--points-per-rank"), nullptr, 10);
    } else if (!std::strcmp(argv[i], "--seed")) {
      a.seed = std::strtoull(next("--seed"), nullptr, 10);
    } else if (!std::strcmp(argv[i], "--telemetry")) {
      a.telemetry = next("--telemetry");
    } else if (!std::strcmp(argv[i], "--help")) {
      std::printf(
          "usage: kb2_soak [--schedules N] [--ranks N] "
          "[--points-per-rank N] [--seed S] [--telemetry SEGMENT]\n");
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag %s (try --help)\n", argv[i]);
      std::exit(2);
    }
  }
  return a;
}

/// What one schedule produced. "clean"/"recovered" converged to the
/// reference fingerprint; "typed_error:<kind>" ended in an attributed
/// error; anything else fails the gate.
struct Outcome {
  std::string label;
  bool acceptable = false;
  int respawns = 0;
  int regrows = 0;
};

/// The checkpoint leg: damage a real checkpoint the seeded way and require
/// the typed-restore story. Returns an "unacceptable" outcome label on any
/// deviation, empty string when the story held.
std::string run_checkpoint_leg(const comm::chaos::ChaosSchedule& sched,
                               std::size_t points, std::uint64_t seed) {
  const auto mode =
      static_cast<ContainerCorruption>(sched.corrupt_checkpoint);
  const std::string dir = [] {
    const char* t = std::getenv("TMPDIR");
    return std::string(t != nullptr ? t : "/tmp");
  }();
  const std::string path =
      dir + "/kb2_soak_ckpt." + std::to_string(::getpid()) + "." +
      std::to_string(seed);
  const auto cleanup = [&] {
    std::remove(path.c_str());
    std::remove((path + ".prev").c_str());
    std::remove((path + ".tmp").c_str());
  };
  cleanup();

  const auto spec = data::make_paper_mixture(6, 3, seed);
  const auto d = data::sample(spec, points, seed + 1);
  core::Params params;
  params.seed = seed;
  params.bootstrap_trials = 2;
  core::StreamingKeyBin2 engine(d.dims(), params);
  engine.push_batch(d.points);
  (void)engine.refit();

  std::string verdict;
  try {
    // One generation only, then damage it: restore MUST fail typed.
    engine.save_checkpoint(path);
    core::kCheckpointFile.corrupt(path, mode, seed);
    bool threw_typed = false;
    try {
      (void)core::StreamingKeyBin2::resume_from(path, params);
    } catch (const core::CheckpointError&) {
      threw_typed = true;
    }
    if (!threw_typed) {
      verdict = "ckpt_corruption_not_detected";
    } else {
      // Two generations, damage the primary: the ".prev" fallback must
      // restore silently and reproduce the engine's model bytes.
      engine.save_checkpoint(path);
      engine.save_checkpoint(path);
      core::kCheckpointFile.corrupt(path, mode, seed);
      auto restored = core::StreamingKeyBin2::resume_from(path, params);
      ByteWriter a, b;
      engine.serialize(a);
      restored.serialize(b);
      if (a.bytes().size() != b.bytes().size() ||
          std::memcmp(a.bytes().data(), b.bytes().data(),
                      a.bytes().size()) != 0) {
        verdict = "ckpt_prev_fallback_diverged";
      }
    }
  } catch (const std::exception& e) {
    verdict = std::string("ckpt_unexpected:") + e.what();
  }
  cleanup();
  return verdict;
}

int run_soak(const SoakArgs& args) {
  // Shared fixture: one pinned dataset, sharded across the ranks; the
  // thread-backend fit of the same shards is the fault-free reference
  // fingerprint (backend parity is pinned by test_proc_comm).
  const auto spec = data::make_paper_mixture(6, 3, args.seed);
  const auto d =
      data::sample(spec, args.points_per_rank *
                             static_cast<std::size_t>(args.ranks),
                   args.seed + 1);
  const auto shards = data::shard(d, args.ranks);

  core::Params params;
  params.seed = args.seed;
  params.bootstrap_trials = 2;
  params.comm_timeout_seconds = 30.0;
  params.max_shrink_retries = 3;
  params.recovery.backoff_base_ms = 2.0;
  params.recovery.backoff_cap_ms = 20.0;

  // One segment for the whole soak, created before any fork so children
  // (respawns included) inherit the mapping. Its black-box rings are the
  // only evidence of where each (possibly SIGKILLed) rank was parked when
  // the watchdog declares a hang, and the dump happens on the way to _Exit.
  // With --telemetry it is named and every schedule's ranks also publish
  // live snapshots — the chaos soak is exactly where watching incarnations
  // climb in kb2_top is interesting.
  const auto seg = std::make_unique<runtime::RankSegment>(
      args.ranks, "chaos soak", args.telemetry);
  if (!args.telemetry.empty()) {
    std::printf("telemetry: %s (attach with kb2_top --segment %s)\n",
                seg->name().c_str(), seg->name().c_str());
  }
  std::mutex deaths_mu;
  std::vector<runtime::flight::FlightDeath> deaths;
  const comm::AbnormalDeathFn on_death = [&](int rank, int incarnation,
                                             const std::string& reason) {
    std::lock_guard lk(deaths_mu);
    deaths.push_back({rank, incarnation, reason});
  };

  const auto body = [&](const comm::chaos::ChaosSchedule* sched) {
    return [&, sched](comm::Communicator& c) -> std::vector<std::byte> {
      std::optional<comm::fault::FaultyComm> faulty;
      comm::Communicator* ep = &c;
      if (sched != nullptr) {
        faulty.emplace(c, sched->fault_for(c.rank(), c.incarnation()));
        ep = &*faulty;
      }
      const auto r = static_cast<std::size_t>(c.rank());
      runtime::Context ctx(*ep, params.seed);
      ctx.enable_flight_recorder(seg.get());
      if (!args.telemetry.empty()) {
        ctx.enable_profiler({}, seg->slot(c.rank()));
      }
      const auto result = core::fit(ctx, shards[r].points, params);
      if (ctx.profiler() != nullptr) ctx.profiler()->stop();
      ByteWriter w;
      result.model.serialize(w);
      w.write_vec(result.labels);
      return w.take();
    };
  };

  std::printf("kb2_soak: %d schedules, %d ranks, %zu points/rank, seed %llu\n",
              args.schedules, args.ranks, args.points_per_rank,
              static_cast<unsigned long long>(args.seed));

  const auto reference =
      comm::run_ranks_collect_bytes(comm::LaunchOptions{}, args.ranks,
                                    body(nullptr));

  // Watchdog: "never a hang" is the whole point. Any schedule stuck past
  // the deadline kills the soak loudly; ctest/CI sees exit 3, not a
  // timeout mystery.
  std::atomic<int> progress{0};
  std::atomic<bool> done{false};
  std::thread watchdog([&] {
    constexpr int kDeadlineSeconds = 300;
    int last = progress.load();
    auto since = std::chrono::steady_clock::now();
    while (!done.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(250));
      const int now_p = progress.load();
      if (now_p != last) {
        last = now_p;
        since = std::chrono::steady_clock::now();
      } else if (std::chrono::steady_clock::now() - since >
                 std::chrono::seconds(kDeadlineSeconds)) {
        std::fprintf(stderr,
                     "kb2_soak: HANG — schedule %d made no progress in %d s\n",
                     last, kDeadlineSeconds);
        // Last act before the hard exit: freeze every ring and dump the
        // flight story so the hang is debuggable after the fact.
        try {
          seg->freeze();
          std::lock_guard lk(deaths_mu);
          runtime::flight::write_flight_dump("kb2_soak_flight.dump", *seg,
                                             "soak watchdog expiry", deaths);
          std::fprintf(stderr,
                       "kb2_soak: flight rings dumped to kb2_soak_flight.dump"
                       " (inspect with kb2_postmortem)\n");
        } catch (const std::exception& e) {
          std::fprintf(stderr, "kb2_soak: flight dump failed: %s\n", e.what());
        }
        std::fflush(nullptr);
        std::_Exit(3);
      }
    }
  });

  comm::RecoveryPolicy ladder = params.recovery;
  ladder.max_respawns = 2;  // covers a kill plus a killed replacement

  int failures = 0;
  bench::Series ok_series, respawn_series, regrow_series, typed_series;
  for (int i = 0; i < args.schedules; ++i) {
    progress.store(i + 1);
    const std::uint64_t seed = args.seed + static_cast<std::uint64_t>(i);
    const auto sched = comm::chaos::make_chaos_schedule(seed, args.ranks);

    Outcome out;
    comm::ProcRunResult res;
    try {
      res = comm::proc_run_ranks(args.ranks, /*ring_bytes=*/0, ladder,
                                 body(&sched), on_death);
    } catch (const std::exception& e) {
      out.label = std::string("launch_error:") + e.what();
    }
    out.respawns = res.respawns_total;
    out.regrows = res.regrow_epochs;
    if (out.label.empty()) {
      if (res.first_error != nullptr) {
        try {
          std::rethrow_exception(res.first_error);
        } catch (const comm::FitAbortedError&) {
          out.label = "typed_error:fit_aborted";
          out.acceptable = true;
        } catch (const comm::CommError& e) {
          out.label = std::string("typed_error:") + comm::error_kind(e);
          out.acceptable = true;
        } catch (const Error&) {
          out.label = "typed_error:kb2";
          out.acceptable = true;
        } catch (const std::exception&) {
          // An untyped error is attributable to nothing — gate failure.
          out.label = "untyped_error";
        }
      } else {
        bool match = true;
        for (std::size_t r = 0; r < reference.size(); ++r) {
          if (res.results[r] != reference[r]) match = false;
        }
        if (match) {
          out.label = out.respawns > 0 ? "recovered" : "clean";
          out.acceptable = true;
        } else {
          // Completed without error but off the reference fingerprint: the
          // silent wrong (or silently shrunken) answer the gate exists for.
          out.label = "silent_mismatch";
        }
      }
    }
    // The checkpoint leg piggybacks on the schedule's seed.
    if (out.acceptable && sched.corrupt_checkpoint >= 0) {
      const std::string v = run_checkpoint_leg(sched, 600, seed);
      if (!v.empty()) {
        out.label = v;
        out.acceptable = false;
      }
    }

    if (!out.acceptable) ++failures;
    ok_series.add(out.acceptable ? 1.0 : 0.0);
    respawn_series.add(static_cast<double>(out.respawns));
    regrow_series.add(static_cast<double>(out.regrows));
    typed_series.add(out.label.rfind("typed_error:", 0) == 0 ? 1.0 : 0.0);
    bench::Series one;
    one.add(out.acceptable ? 1.0 : 0.0);
    bench::Reporter::global().add_series(
        "schedule_" + std::to_string(seed) + ":" + out.label, one);
    std::printf("  [%d/%d] %-46s -> %s (respawns=%d regrow=%d)%s\n", i + 1,
                args.schedules, sched.describe().c_str(), out.label.c_str(),
                out.respawns, out.regrows, out.acceptable ? "" : "  ** FAIL");
    std::fflush(stdout);
  }
  done.store(true);
  watchdog.join();

  bench::Reporter::global().add_series("acceptable", ok_series);
  bench::Reporter::global().add_series("respawns", respawn_series);
  bench::Reporter::global().add_series("regrow_epochs", regrow_series);
  bench::Reporter::global().add_series("typed_errors", typed_series);
  bench::Options opt;
  opt.name = "chaos_soak";
  opt.ranks = args.ranks;
  opt.runs = args.schedules;
  opt.seed = args.seed;
  opt.points_per_rank = args.points_per_rank;
  bench::Reporter::global().write(opt);

  if (failures > 0) {
    std::printf("kb2_soak: FAIL — %d/%d schedules violated the soak gate\n",
                failures, args.schedules);
    return 1;
  }
  std::printf("kb2_soak: PASS — %d schedules, zero hangs, zero silent "
              "wrong answers\n",
              args.schedules);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef __linux__
  std::printf("kb2_soak: process backend requires Linux; skipping (PASS)\n");
  return 0;
#endif
  return run_soak(parse(argc, argv));
}
