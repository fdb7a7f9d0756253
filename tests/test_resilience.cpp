// Rank-failure soak tests (DESIGN.md §4b): a rank dies mid-trial under a
// randomized fault schedule, and the distributed fit must complete on the
// survivors — shrunken group, valid model, degraded-mode statistics in the
// trace report — without ever hanging. Every schedule is seeded, so a
// passing run is exactly reproducible.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <memory>
#include <thread>

#include "comm/fault.hpp"
#include "comm/launch.hpp"
#include "comm/recovery.hpp"
#include "common/serialize.hpp"
#include "common/error.hpp"
#include "core/keybin2.hpp"
#include "core/out_of_core.hpp"
#include "core/streaming.hpp"
#include "data/gaussian_mixture.hpp"
#include "data/io.hpp"
#include "data/partition.hpp"
#include "runtime/context.hpp"
#include "runtime/log.hpp"

namespace keybin2 {
namespace {

using comm::Communicator;
using comm::run_ranks;

core::Params resilient_params() {
  core::Params p;
  // A short deadline turns dropped messages into recoverable TimeoutErrors;
  // generous retries absorb the random faults that keep firing after the
  // shrink.
  p.comm_timeout_seconds = 1.0;
  p.max_shrink_retries = 6;
  return p;
}

TEST(Resilience, SoakKillOneRankMidTrialCompletesOnSurvivors) {
  const auto spec = data::make_paper_mixture(8, 3, 1);
  const auto d = data::sample(spec, 1200, 2);
  const auto shards = data::shard(d, 4);
  const auto params = resilient_params();

  std::atomic<int> survivors_done{0};
  std::atomic<bool> killed_rank_died{false};
  std::atomic<double> degraded_counter{-1.0};
  // Every rank's structured events land here; the fault-tolerance path must
  // narrate itself through the log, not just through return values.
  auto sink = std::make_shared<runtime::MemorySink>();

  run_ranks(4, [&](Communicator& c) {
    const auto r = static_cast<std::size_t>(c.rank());
    comm::fault::FaultSchedule s;
    s.seed = 2024;
    if (c.rank() == 2) {
      s.kill_at_op = 40;  // a full fit is hundreds of ops: dies mid-trial
    } else if (c.rank() == 1) {
      s.drop_prob = 0.004;
      s.zero_fill_prob = 0.004;
    }
    comm::fault::FaultyComm faulty(c, s);
    runtime::Context ctx(faulty, params.seed);
    ctx.log().set_sink(sink);
    try {
      const auto result = core::fit(ctx, shards[r].points, params);

      // Survivor: the fit completed over the shrunken group.
      EXPECT_TRUE(ctx.degraded());
      EXPECT_EQ(ctx.excluded_ranks(), 1);
      EXPECT_EQ(ctx.size(), 3);
      EXPECT_GE(result.model.n_clusters(), 1);
      EXPECT_EQ(result.labels.size(), shards[r].points.rows());
      for (const int label : result.labels) EXPECT_GE(label, 0);

      // The retry loop recorded itself in this rank's metrics registry,
      // including the latency of every survivor-agreement rendezvous.
      EXPECT_GE(ctx.metrics().counters().at("fit_retries"), 1u);
      EXPECT_GE(ctx.metrics().counters().at("survivor_shrinks"), 1u);
      EXPECT_GE(ctx.metrics().histogram("recovery_latency_ns").count(), 1u);

      // Degraded-mode statistics surface in the merged trace report...
      const auto report = ctx.trace_report();
      // ...and in the merged metrics report (both are collectives over the
      // shrunken survivor group, entered by all survivors in step).
      const auto metrics = ctx.metrics_report();
      if (ctx.is_root()) {
        const auto it = report.counters.find("degraded_ranks");
        ASSERT_NE(it, report.counters.end());
        degraded_counter.store(it->second);
        EXPECT_GE(report.counters.count("fit_retries"), 1u);
        EXPECT_GE(metrics.counters.at("fit_retries"), 3u);  // every survivor
        EXPECT_GE(metrics.counters.at("survivor_shrinks"), 3u);
        ASSERT_EQ(metrics.histograms.count("recovery_latency_ns"), 1u);
        EXPECT_GE(metrics.histograms.at("recovery_latency_ns").count(), 3u);
        EXPECT_NE(metrics.deterministic_fingerprint().find("fit_retries"),
                  std::string::npos);
      }
      survivors_done.fetch_add(1);
    } catch (const comm::fault::KilledError&) {
      // The killed rank departs; the survivors shrink around it. Catching
      // our own death here keeps run_ranks() from reporting it as a test
      // failure — which is exactly how a real job's dead node looks to the
      // survivors: silence.
      killed_rank_died.store(true);
    }
  });

  EXPECT_TRUE(killed_rank_died.load());
  EXPECT_EQ(survivors_done.load(), 3);
  EXPECT_DOUBLE_EQ(degraded_counter.load(), 1.0);

  // The structured log narrated the recovery: each survivor warned about
  // the retry and the shrink, with machine-readable attribution.
  EXPECT_GE(sink->events_named("fit_retry").size(), 3u);
  const auto shrinks = sink->events_named("survivor_shrink");
  ASSERT_GE(shrinks.size(), 3u);
  for (const auto& e : shrinks) {
    EXPECT_EQ(e.level, runtime::LogLevel::kWarn);
    ASSERT_GE(e.attrs.size(), 2u);
    EXPECT_EQ(e.attrs[0].first, "lost");
    EXPECT_EQ(e.attrs[0].second, "1");
    EXPECT_EQ(e.attrs[1].first, "survivors");
    EXPECT_EQ(e.attrs[1].second, "3");
  }
}

TEST(Resilience, CheckpointCountersSurfaceInTraceMetricsAndLog) {
  // A budget-paused out-of-core run followed by a resume must account for
  // every checkpoint write and the restore — in the tracer counters (what
  // `--trace` prints), the metrics registry, and the event log.
  const auto spec = data::make_paper_mixture(6, 3, 11);
  auto dataset = data::sample(spec, 2000, 12);
  const std::string input = "/tmp/kb2_resilience_ooc.bin";
  const std::string labels = "/tmp/kb2_resilience_ooc_labels.bin";
  const std::string ckpt = "/tmp/kb2_resilience_ooc.ckpt";
  data::write_binary(dataset, input);
  std::remove(ckpt.c_str());

  core::CheckpointOptions opts;
  opts.path = ckpt;
  opts.every_chunks = 2;
  opts.max_chunks = 3;  // budget pause after 3 of 8 chunks

  auto sink = std::make_shared<runtime::MemorySink>();
  {
    runtime::Context ctx(/*seed=*/42);
    ctx.log().set_sink(sink);
    const auto paused =
        core::fit_from_file(ctx, input, labels, {}, /*chunk=*/256, opts);
    EXPECT_FALSE(paused.completed);
    // Cadence write at chunk 2 + the budget-pause write at chunk 3.
    EXPECT_EQ(ctx.metrics().counters().at("checkpoint_writes"), 2u);
    const auto report = ctx.trace_report();
    EXPECT_DOUBLE_EQ(report.counters.at("checkpoint_writes"), 2.0);
    EXPECT_EQ(report.counters.count("checkpoint_restores"), 0u);
  }
  {
    runtime::Context ctx(/*seed=*/42);
    ctx.log().set_sink(sink);
    opts.max_chunks = 0;  // no budget: run to completion
    const auto done =
        core::fit_from_file(ctx, input, labels, {}, /*chunk=*/256, opts);
    EXPECT_TRUE(done.completed);
    EXPECT_EQ(ctx.metrics().counters().at("checkpoint_restores"), 1u);
    const auto report = ctx.trace_report();
    EXPECT_DOUBLE_EQ(report.counters.at("checkpoint_restores"), 1.0);
  }

  // The log carries one event per write/restore, with the cursor attributed:
  // cadence at chunk 2, budget pause at 3, then cadence at 4 and 6 during
  // the resumed run (8 chunks total, none at the final chunk).
  const auto writes = sink->events_named("checkpoint_write");
  ASSERT_EQ(writes.size(), 4u);
  EXPECT_EQ(writes[0].attrs[2].first, "reason");
  EXPECT_EQ(writes[0].attrs[2].second, "cadence");
  EXPECT_EQ(writes[1].attrs[2].second, "budget_pause");
  EXPECT_EQ(writes[2].attrs[2].second, "cadence");
  EXPECT_EQ(writes[3].attrs[2].second, "cadence");
  const auto restores = sink->events_named("checkpoint_restore");
  ASSERT_EQ(restores.size(), 1u);
  EXPECT_EQ(restores[0].attrs[1].first, "chunks_done");
  EXPECT_EQ(restores[0].attrs[1].second, "3");

  std::remove(input.c_str());
  std::remove(labels.c_str());
  std::remove(ckpt.c_str());
}

TEST(Resilience, TransientCorruptionRetriesWithoutShrinking) {
  // Zero-filled frames trip the CRC check and trigger retries, but no rank
  // is ever lost: the group must NOT shrink, and the fit must complete over
  // all four ranks.
  const auto spec = data::make_paper_mixture(8, 3, 1);
  const auto d = data::sample(spec, 1200, 2);
  const auto shards = data::shard(d, 4);
  const auto params = resilient_params();

  std::atomic<int> completed{0};
  run_ranks(4, [&](Communicator& c) {
    const auto r = static_cast<std::size_t>(c.rank());
    comm::fault::FaultSchedule s;
    s.seed = 7;
    if (c.rank() == 1) s.zero_fill_prob = 0.01;
    comm::fault::FaultyComm faulty(c, s);
    runtime::Context ctx(faulty, params.seed);
    const auto result = core::fit(ctx, shards[r].points, params);
    EXPECT_FALSE(ctx.degraded());
    EXPECT_EQ(ctx.size(), 4);
    EXPECT_GE(result.model.n_clusters(), 1);
    completed.fetch_add(1);
  });
  EXPECT_EQ(completed.load(), 4);
}

TEST(Resilience, RetriesExhaustIntoATypedAbortNotAHang) {
  // A permanently corrupting rank defeats every retry; the run must end in
  // a typed FitAbortedError once max_shrink_retries is spent — never a
  // hang, never the bare underlying failure (the abort carries the attempt
  // count and the last failure's kind for attribution).
  const auto spec = data::make_paper_mixture(8, 3, 1);
  const auto d = data::sample(spec, 400, 2);
  const auto shards = data::shard(d, 2);
  core::Params params;
  params.comm_timeout_seconds = 1.0;
  params.max_shrink_retries = 1;
  params.recovery.backoff_base_ms = 1.0;
  params.recovery.backoff_cap_ms = 4.0;

  try {
    run_ranks(2, [&](Communicator& c) {
      const auto r = static_cast<std::size_t>(c.rank());
      comm::fault::FaultSchedule s;
      if (c.rank() == 1) s.zero_fill_prob = 1.0;
      comm::fault::FaultyComm faulty(c, s);
      core::fit(faulty, shards[r].points, params);
    });
    FAIL() << "a permanently corrupting rank must abort the fit";
  } catch (const comm::FitAbortedError& e) {
    EXPECT_EQ(e.attempts(), params.max_shrink_retries);
    EXPECT_FALSE(e.last_kind().empty());
  }
}

TEST(Resilience, RefitRetriesExhaustIntoATypedAbort) {
  // The streaming refit shares the fit's recovery loop: a permanently
  // corrupting rank must end it in a typed FitAbortedError naming the
  // refit, once max_shrink_retries is spent.
  const auto spec = data::make_paper_mixture(8, 3, 1);
  const auto d = data::sample(spec, 400, 2);
  const auto shards = data::shard(d, 2);
  core::Params params;
  params.comm_timeout_seconds = 1.0;
  params.max_shrink_retries = 1;
  params.recovery.backoff_base_ms = 1.0;
  params.recovery.backoff_cap_ms = 4.0;

  try {
    run_ranks(2, [&](Communicator& c) {
      const auto r = static_cast<std::size_t>(c.rank());
      core::StreamingKeyBin2 engine(d.dims(), params);
      engine.push_batch(shards[r].points);
      comm::fault::FaultSchedule s;
      if (c.rank() == 1) s.zero_fill_prob = 1.0;
      comm::fault::FaultyComm faulty(c, s);
      engine.refit(faulty);
    });
    FAIL() << "a permanently corrupting rank must abort the refit";
  } catch (const comm::FitAbortedError& e) {
    EXPECT_EQ(e.attempts(), params.max_shrink_retries);
    EXPECT_EQ(std::string(e.what()).rfind("refit aborted after", 0), 0u)
        << e.what();
  }
}

TEST(Resilience, BackoffIsDeterministicCappedAndSalted) {
  // Same (policy, attempt, salt) -> same delay; attempts grow toward the
  // cap; different salts de-phase the ranks. All pure arithmetic — the
  // chaos soak replays schedules from seeds, so any nondeterminism here
  // breaks reproducibility.
  comm::RecoveryPolicy p;
  p.backoff_base_ms = 4.0;
  p.backoff_cap_ms = 64.0;
  for (int attempt = 0; attempt < 8; ++attempt) {
    const double a = comm::backoff_ms(p, attempt, /*salt=*/7);
    const double b = comm::backoff_ms(p, attempt, /*salt=*/7);
    EXPECT_EQ(a, b) << "backoff must replay exactly, attempt " << attempt;
    const double slot = std::min(4.0 * std::pow(2.0, attempt), 64.0);
    EXPECT_GE(a, slot / 2.0);
    EXPECT_LT(a, slot);
  }
  EXPECT_NE(comm::backoff_ms(p, 3, 7), comm::backoff_ms(p, 3, 8))
      << "different salts should draw different jitter";
  comm::RecoveryPolicy zero;
  zero.backoff_base_ms = 0.0;
  EXPECT_EQ(comm::backoff_ms(zero, 5, 1), 0.0) << "zero base disables backoff";
}

// ---- Survivor agreement under simultaneous multi-rank failures ----
//
// The single-failure soak above exercises the common case; these pin the
// harder corners of agree_survivors() on BOTH transports: two ranks dying
// at once (the agreement must converge despite racing failure marks), and
// a live rank that never joins the agreement (the callers must time out
// with full attribution, never hang).

TEST(Resilience, TwoSimultaneousFailuresConvergeOnThreadBackend) {
  std::atomic<int> recovered{0};
  EXPECT_THROW(
      run_ranks(5,
                [&](Communicator& c) {
                  if (c.rank() == 2 || c.rank() == 3) {
                    throw Error("double node death");
                  }
                  try {
                    const double sum = c.allreduce(1.0, comm::ReduceOp::kSum);
                    ADD_FAILURE() << "allreduce survived two deaths: " << sum;
                  } catch (const comm::CommError&) {
                    const auto survivors = c.agree_survivors();
                    EXPECT_EQ(survivors, (std::vector<int>{0, 1, 4}));
                    comm::SubgroupComm sub(c, survivors);
                    EXPECT_DOUBLE_EQ(sub.allreduce(1.0, comm::ReduceOp::kSum),
                                     3.0);
                    recovered.fetch_add(1);
                  }
                }),
      Error);
  EXPECT_EQ(recovered.load(), 3);
}

TEST(Resilience, AgreeTimesOutWhenALiveRankNeverJoinsThreadBackend) {
  // Rank 2 stays alive but never calls agree_survivors(): the two callers
  // must throw an attributed TimeoutError mentioning the agreement — a
  // stuck peer must never become a hang.
  std::atomic<int> timed_out{0};
  run_ranks(3, [&](Communicator& c) {
    if (c.rank() == 2) {
      std::this_thread::sleep_for(std::chrono::milliseconds(900));
      return;
    }
    c.set_timeout(0.3);
    try {
      (void)c.agree_survivors();
      ADD_FAILURE() << "agreement converged without rank 2";
    } catch (const comm::TimeoutError& e) {
      EXPECT_EQ(e.self(), c.rank());
      EXPECT_GE(e.elapsed_seconds(), 0.3);
      EXPECT_NE(std::string(e.what()).find("agree_survivors"),
                std::string::npos);
      timed_out.fetch_add(1);
    }
  });
  EXPECT_EQ(timed_out.load(), 2);
}

TEST(Resilience, CoresetFitSurvivesKillMidTrialOnThreadBackend) {
  // The coreset comm plane under the recovery ladder: a forced-kCoreset fit
  // (cap far below deep-histogram occupancy, so every merge really ships
  // sketches) loses a rank mid-trial and must shrink and complete on the
  // survivors, still merging through the coreset plane after the retry.
  const auto spec = data::make_paper_mixture(8, 3, 21);
  const auto d = data::sample(spec, 1600, 22);
  const auto shards = data::shard(d, 4);
  auto params = resilient_params();
  params.comm_mode = core::CommMode::kCoreset;
  params.coreset_max_cells = 128;
  params.bootstrap_trials = 2;

  std::atomic<int> survivors_done{0};
  std::atomic<bool> killed_rank_died{false};
  std::atomic<std::uint64_t> coreset_merges{0};
  run_ranks(4, [&](Communicator& c) {
    const auto r = static_cast<std::size_t>(c.rank());
    comm::fault::FaultSchedule s;
    s.seed = 77;
    if (c.rank() == 1) s.kill_at_op = 30;  // dies inside the first trial
    comm::fault::FaultyComm faulty(c, s);
    runtime::Context ctx(faulty, params.seed);
    try {
      const auto result = core::fit(ctx, shards[r].points, params);
      EXPECT_TRUE(ctx.degraded());
      EXPECT_EQ(ctx.size(), 3);
      EXPECT_EQ(result.labels.size(), shards[r].points.rows());
      for (const int label : result.labels) EXPECT_GE(label, 0);
      const auto metrics = ctx.metrics_report();
      if (ctx.is_root()) {
        coreset_merges.store(metrics.counters.at("reduce_algo_coreset"));
      }
      survivors_done.fetch_add(1);
    } catch (const comm::fault::KilledError&) {
      killed_rank_died.store(true);
    }
  });
  EXPECT_TRUE(killed_rank_died.load());
  EXPECT_EQ(survivors_done.load(), 3);
  // The survivors' merges (including every post-shrink retry) went through
  // the coreset plane, not a silent fallback to the exact one.
  EXPECT_GE(coreset_merges.load(), 1u);
}

#ifdef __linux__

TEST(Resilience, SigkillMidCoresetReduceShrinksAndRetriesProcessBackend) {
  // The honest version of a mid-reduce death: rank 2 SIGKILLs itself right
  // before entering coreset_allreduce, so the root's tree recv hits a dead
  // rank and every other survivor times out in the result broadcast. The
  // survivors then run the shrink ladder (agree_survivors -> SubgroupComm)
  // and retry the same coreset reduce over the shrunken group; with
  // disjoint under-cap supports the retried merge is exact, so the dead
  // rank's contribution — and only it — is missing.
  comm::LaunchOptions opt;
  opt.backend = comm::Backend::kProcess;
  std::exception_ptr err;
  const auto blobs = comm::run_ranks_collect_bytes(
      opt, 5,
      [](Communicator& c) -> std::vector<std::byte> {
        const auto original_rank = static_cast<std::size_t>(c.rank());
        constexpr std::size_t kLen = 1 << 14;
        std::vector<double> local(kLen, 0.0);
        for (std::size_t k = 0; k < 8; ++k) {
          local[original_rank * 1024 + k] = static_cast<double>(k + 1);
        }
        comm::coreset::Options opts;
        opts.max_cells = 512;
        c.barrier();
        if (original_rank == 2) ::raise(SIGKILL);
        c.set_timeout(5.0);
        bool first_attempt_failed = false;
        try {
          (void)c.coreset_allreduce(local, opts);
        } catch (const comm::CommError&) {
          first_attempt_failed = true;
        }
        // Generous failure-path-only bounds, as in the SIGKILL tests above.
        c.set_timeout(120.0);
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(120);
        while (c.failed_ranks().empty() &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        const auto survivors = c.agree_survivors();
        comm::SubgroupComm sub(c, survivors);
        const auto merged = sub.coreset_allreduce(local, opts);
        ByteWriter w;
        w.write<std::uint8_t>(first_attempt_failed ? 1 : 0);
        w.write<std::uint64_t>(survivors.size());
        double total = 0.0;
        for (const double v : merged) total += v;
        w.write<double>(total);
        w.write<double>(merged[2 * 1024]);  // the dead rank's spike
        for (const std::size_t r : {0u, 1u, 3u, 4u}) {
          w.write<double>(merged[r * 1024 + 7]);
        }
        return w.take();
      },
      nullptr, &err);
  EXPECT_TRUE(err == nullptr);
  EXPECT_TRUE(blobs[2].empty());
  for (const int rank : {0, 1, 3, 4}) {
    ByteReader r(blobs[static_cast<std::size_t>(rank)]);
    EXPECT_EQ(r.read<std::uint8_t>(), 1u) << "rank " << rank;
    ASSERT_EQ(r.read<std::uint64_t>(), 4u) << "rank " << rank;
    EXPECT_DOUBLE_EQ(r.read<double>(), 4.0 * 36.0) << "rank " << rank;
    EXPECT_DOUBLE_EQ(r.read<double>(), 0.0) << "rank " << rank;
    for (int s = 0; s < 4; ++s) {
      EXPECT_DOUBLE_EQ(r.read<double>(), 8.0) << "rank " << rank;
    }
  }
}

TEST(Resilience, TwoSimultaneousSigkillsConvergeOnProcessBackend) {
  // The process-backed version is the honest one: ranks 2 and 3 are
  // SIGKILLed at the same moment, so the parent's waitpid loop marks two
  // failures racing each other, and the three surviving processes must
  // still converge on the same survivor set and run collectives in the
  // shrunken subgroup.
  comm::LaunchOptions opt;
  opt.backend = comm::Backend::kProcess;
  std::exception_ptr err;
  const auto blobs = comm::run_ranks_collect_bytes(
      opt, 5,
      [](Communicator& c) -> std::vector<std::byte> {
        c.barrier();
        if (c.rank() == 2 || c.rank() == 3) ::raise(SIGKILL);
        // Generous failure-path-only bounds: sanitizer runs at full -j load
        // can stall a child well past a "reasonable" wall.
        c.set_timeout(120.0);
        // Wait until the parent has reaped BOTH deaths, so the agreement
        // below really does start from two simultaneous failure marks.
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(120);
        while (c.failed_ranks().size() < 2 &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        const auto survivors = c.agree_survivors();
        comm::SubgroupComm sub(c, survivors);
        const double sum = sub.allreduce(1.0, comm::ReduceOp::kSum);
        ByteWriter w;
        w.write<std::uint64_t>(survivors.size());
        for (const int s : survivors) w.write<std::int32_t>(s);
        w.write<double>(sum);
        return w.take();
      },
      nullptr, &err);
  EXPECT_TRUE(err == nullptr);
  EXPECT_TRUE(blobs[2].empty());
  EXPECT_TRUE(blobs[3].empty());
  for (const int rank : {0, 1, 4}) {
    ByteReader r(blobs[static_cast<std::size_t>(rank)]);
    ASSERT_EQ(r.read<std::uint64_t>(), 3u) << "rank " << rank;
    EXPECT_EQ(r.read<std::int32_t>(), 0);
    EXPECT_EQ(r.read<std::int32_t>(), 1);
    EXPECT_EQ(r.read<std::int32_t>(), 4);
    EXPECT_DOUBLE_EQ(r.read<double>(), 3.0);
  }
}

TEST(Resilience, AgreeTimesOutWhenALiveRankNeverJoinsProcessBackend) {
  comm::LaunchOptions opt;
  opt.backend = comm::Backend::kProcess;
  std::exception_ptr err;
  const auto blobs = comm::run_ranks_collect_bytes(
      opt, 3,
      [](Communicator& c) -> std::vector<std::byte> {
        if (c.rank() == 2) {
          // Alive, healthy, and never joining the agreement.
          std::this_thread::sleep_for(std::chrono::milliseconds(900));
          return {};
        }
        c.set_timeout(0.3);
        ByteWriter w;
        try {
          (void)c.agree_survivors();
          w.write_string("converged-without-rank-2");
        } catch (const comm::TimeoutError& e) {
          w.write_string(std::string(e.what()).find("agree_survivors") !=
                                 std::string::npos
                             ? "timeout"
                             : "timeout-wrong-message");
        }
        return w.take();
      },
      nullptr, &err);
  EXPECT_TRUE(err == nullptr);
  for (const int rank : {0, 1}) {
    ByteReader r(blobs[static_cast<std::size_t>(rank)]);
    EXPECT_EQ(r.read_string(), "timeout") << "rank " << rank;
  }
}

#endif  // __linux__

}  // namespace
}  // namespace keybin2
