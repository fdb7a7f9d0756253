// Process-backed transport tests (DESIGN.md §6): every rank is a real forked
// child talking through POSIX shared memory, so these suites exercise the
// honest versions of the fault stories the thread transport can only
// simulate — an actual SIGKILL mid-fit, waitpid-backed liveness, survivor
// agreement across address spaces, and result blobs that must cross a pipe
// because by-reference captures die with the child.
//
// The whole file is Linux-only (ProcComm is); on other platforms every
// proc launch throws and the tests are skipped at configure time by the
// same #ifdef the implementation uses.
#include "comm/proc_comm.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#ifdef __linux__
#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "comm/fault.hpp"
#include "comm/launch.hpp"
#include "common/error.hpp"
#include "common/serialize.hpp"
#include "core/keybin2.hpp"
#include "core/out_of_core.hpp"
#include "data/gaussian_mixture.hpp"
#include "data/io.hpp"
#include "data/partition.hpp"
#include "test_util.hpp"

namespace keybin2::comm {
namespace {

#ifdef __linux__

std::vector<std::byte> to_bytes(const std::string& s) {
  const auto* p = reinterpret_cast<const std::byte*>(s.data());
  return {p, p + s.size()};
}

std::string to_string(const std::vector<std::byte>& b) {
  return {reinterpret_cast<const char*>(b.data()), b.size()};
}

LaunchOptions proc_options(std::size_t ring_bytes = 0) {
  LaunchOptions o;
  o.backend = Backend::kProcess;
  o.ring_bytes = ring_bytes;
  return o;
}

// Where MappedGroup makes its spill directories: tmpfs when present.
std::string spill_parent() {
  struct stat st{};
  return (::stat("/dev/shm", &st) == 0 && S_ISDIR(st.st_mode))
             ? std::string("/dev/shm")
             : std::string("/tmp");
}

TEST(ProcComm, SendRecvRoundTripAcrossProcesses) {
  const auto blobs = run_ranks_collect_bytes(
      proc_options(), 2, [](Communicator& c) -> std::vector<std::byte> {
        if (c.rank() == 0) {
          c.send(1, 7, to_bytes("ping from rank 0"));
          return c.recv(1, 8);
        }
        const auto got = c.recv(0, 7);
        c.send(0, 8, to_bytes("pong: " + to_string(got)));
        return got;
      });
  ASSERT_EQ(blobs.size(), 2u);
  EXPECT_EQ(to_string(blobs[0]), "pong: ping from rank 0");
  EXPECT_EQ(to_string(blobs[1]), "ping from rank 0");
}

TEST(ProcComm, SpillDirLeftUnderARecycledPidDoesNotBlockTheGroup) {
  // A killed run leaves its spill directory behind, and pids wrap: a later
  // group whose supervisor draws the same pid must still start.
  const std::string decoy =
      spill_parent() + "/kb2-spill-" + std::to_string(::getpid()) + "-0";
  ASSERT_EQ(::mkdir(decoy.c_str(), 0700), 0) << decoy;
  std::vector<std::vector<std::byte>> blobs;
  std::string error;
  try {
    blobs = run_ranks_collect_bytes(
        proc_options(), 2, [](Communicator& c) -> std::vector<std::byte> {
          return to_bytes(std::to_string(c.allreduce(1.0, ReduceOp::kSum)));
        });
  } catch (const std::exception& e) {
    error = e.what();
  }
  ::rmdir(decoy.c_str());
  EXPECT_EQ(error, "");
  ASSERT_EQ(blobs.size(), 2u);
  EXPECT_EQ(to_string(blobs[0]), std::to_string(2.0));
  EXPECT_EQ(to_string(blobs[1]), std::to_string(2.0));
}

TEST(ProcComm, PerChannelFifoHoldsUnderRingWraparound) {
  // 200 x 1 KiB messages through an 8 KiB ring: the ring wraps many times
  // and the sender must block on a full ring, yet per-channel FIFO order is
  // contractual. The receiver checks the sequence number stamped into each
  // payload.
  constexpr int kMessages = 200;
  const auto blobs = run_ranks_collect_bytes(
      proc_options(/*ring_bytes=*/8192), 2,
      [](Communicator& c) -> std::vector<std::byte> {
        if (c.rank() == 0) {
          for (int i = 0; i < kMessages; ++i) {
            std::vector<std::byte> msg(1000,
                                       static_cast<std::byte>(i & 0xff));
            std::memcpy(msg.data(), &i, sizeof(i));
            c.send(1, 3, msg);
          }
          return to_bytes("sent");
        }
        int in_order = 0;
        for (int i = 0; i < kMessages; ++i) {
          const auto msg = c.recv(0, 3);
          int seq = -1;
          if (msg.size() == 1000) std::memcpy(&seq, msg.data(), sizeof(seq));
          if (seq == i && msg.back() == static_cast<std::byte>(i & 0xff)) {
            ++in_order;
          }
        }
        ByteWriter w;
        w.write<std::int32_t>(in_order);
        return w.take();
      });
  ByteReader r(blobs[1]);
  EXPECT_EQ(r.read<std::int32_t>(), kMessages);
}

TEST(ProcComm, OversizedPayloadsSpillAndRoundTripIntact) {
  // 1 MiB payload through a 4 KiB ring: far beyond the in-ring frame limit,
  // so the payload takes the spill-file path. It must arrive bit-exact.
  const std::size_t n = 1 << 20;
  const auto blobs = run_ranks_collect_bytes(
      proc_options(/*ring_bytes=*/4096), 2,
      [n](Communicator& c) -> std::vector<std::byte> {
        if (c.rank() == 0) {
          std::vector<std::byte> big(n);
          for (std::size_t i = 0; i < n; ++i) {
            big[i] = static_cast<std::byte>((i * 131) & 0xff);
          }
          c.send(1, 5, big);
          return c.recv(1, 6);  // echoed tail
        }
        const auto big = c.recv(0, 5);
        std::size_t bad = big.size() == n ? 0 : 1;
        for (std::size_t i = 0; i < big.size() && bad == 0; ++i) {
          if (big[i] != static_cast<std::byte>((i * 131) & 0xff)) bad = 1;
        }
        ByteWriter w;
        w.write<std::uint64_t>(big.size());
        w.write<std::uint64_t>(bad);
        c.send(0, 6, w.bytes());
        return w.take();
      });
  ByteReader r(blobs[0]);
  EXPECT_EQ(r.read<std::uint64_t>(), n);
  EXPECT_EQ(r.read<std::uint64_t>(), 0u) << "payload corrupted in transit";
}

TEST(ProcComm, CollectivesMatchTheThreadBackend) {
  // The collectives are built on send/recv, so one allreduce + barrier +
  // gather sweep over four process ranks doubles as a transport shakedown.
  // The reduced vector must match the thread backend bit for bit.
  const auto body = [](Communicator& c) -> std::vector<std::byte> {
    std::vector<double> local(64);
    for (std::size_t i = 0; i < local.size(); ++i) {
      local[i] = static_cast<double>(c.rank() + 1) * static_cast<double>(i);
    }
    const auto sum = c.allreduce(local, ReduceOp::kSum);
    c.barrier();
    const auto max1 = c.allreduce(static_cast<double>(c.rank()) * 2.5,
                                  ReduceOp::kMax);
    ByteWriter w;
    w.write_vec(sum);
    w.write<double>(max1);
    return w.take();
  };
  const auto proc = run_ranks_collect_bytes(proc_options(), 4, body);
  const auto thread = run_ranks_collect_bytes(LaunchOptions{}, 4, body);
  ASSERT_EQ(proc.size(), 4u);
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(proc[r], thread[r]) << "rank " << r;
  }
}

TEST(ProcComm, TrafficStatsMergeSymmetricallyAcrossProcesses) {
  TrafficStats total;
  run_ranks_collect_bytes(
      proc_options(), 3,
      [](Communicator& c) -> std::vector<std::byte> {
        // A fixed all-to-all round: every rank sends one message to every
        // other rank and receives one back.
        for (int peer = 0; peer < c.size(); ++peer) {
          if (peer == c.rank()) continue;
          c.send(peer, 9, to_bytes("x"));
        }
        for (int peer = 0; peer < c.size(); ++peer) {
          if (peer == c.rank()) continue;
          (void)c.recv(peer, 9);
        }
        return {};
      },
      &total);
  // 3 ranks x 2 peers = 6 messages each way, merged by the parent from the
  // per-rank shared-memory counters.
  EXPECT_EQ(total.messages_sent, 6u);
  EXPECT_EQ(total.messages_received, 6u);
  EXPECT_EQ(total.bytes_sent, total.bytes_received);
  EXPECT_GE(total.bytes_sent, 6u);
}

TEST(ProcComm, RecvTimeoutCrossesThePipeWithFullAttribution) {
  // Rank 0 waits on a message rank 1 never sends. The TimeoutError must
  // carry {self, src, tag, elapsed} AND survive reconstruction across the
  // child's result pipe with its original type.
  std::exception_ptr err;
  run_ranks_collect_bytes(
      proc_options(), 2,
      [](Communicator& c) -> std::vector<std::byte> {
        if (c.rank() == 0) {
          c.set_timeout(0.2);
          (void)c.recv(1, 11);  // throws
        }
        // Rank 1 stays alive (but silent) past the timeout: a rank that
        // departs instead would turn the story into RankFailedError.
        std::this_thread::sleep_for(std::chrono::milliseconds(800));
        return {};
      },
      nullptr, &err);
  ASSERT_TRUE(err != nullptr);
  try {
    std::rethrow_exception(err);
    FAIL() << "expected TimeoutError";
  } catch (const TimeoutError& e) {
    EXPECT_EQ(e.self(), 0);
    EXPECT_EQ(e.src(), 1);
    EXPECT_EQ(e.tag(), 11);
    EXPECT_GE(e.elapsed_seconds(), 0.2);
    EXPECT_NE(std::string(e.what()).find("timed out"), std::string::npos);
  }
}

TEST(ProcComm, ChildErrorsKeepTheirTypesInTheParent) {
  std::exception_ptr err;
  run_ranks_collect_bytes(
      proc_options(), 2,
      [](Communicator& c) -> std::vector<std::byte> {
        if (c.rank() == 1) throw Error("rank 1 bailed on purpose");
        return {};
      },
      nullptr, &err);
  ASSERT_TRUE(err != nullptr);
  EXPECT_THROW(std::rethrow_exception(err), Error);
  try {
    std::rethrow_exception(err);
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "rank 1 bailed on purpose");
  }
}

TEST(ProcComm, FromEnvSelectsTheBackend) {
  ::setenv("KB2_BACKEND", "proc", 1);
  EXPECT_EQ(LaunchOptions::from_env().backend, Backend::kProcess);
  ::setenv("KB2_BACKEND", "process", 1);
  EXPECT_EQ(LaunchOptions::from_env().backend, Backend::kProcess);
  ::setenv("KB2_BACKEND", "thread", 1);
  EXPECT_EQ(LaunchOptions::from_env().backend, Backend::kThread);
  ::unsetenv("KB2_BACKEND");
  EXPECT_EQ(LaunchOptions::from_env().backend, Backend::kThread);
  ::setenv("KB2_BACKEND", "smoke-signals", 1);
  EXPECT_THROW(LaunchOptions::from_env(), Error);
  ::unsetenv("KB2_BACKEND");

  ::setenv("KB2_PROC_RING_BYTES", "65536", 1);
  EXPECT_EQ(LaunchOptions::from_env().ring_bytes, 65536u);
  ::unsetenv("KB2_PROC_RING_BYTES");
}

// ---- Honest failure stories: a real SIGKILL, a real dead process ----

TEST(ProcComm, SigkilledChildSurfacesThroughWaitpidLiveness) {
  // Rank 2 SIGKILLs itself after the opening barrier. The parent reaps it
  // and marks it failed in shared memory; the survivors observe the death
  // three ways: a blocked recv() throws RankFailedError naming rank 2,
  // failed_ranks() reports it, and agree_survivors() converges on {0, 1} —
  // after which the shrunken pair can still talk.
  const auto blobs = run_ranks_collect_bytes(
      proc_options(), 3, [](Communicator& c) -> std::vector<std::byte> {
        c.barrier();
        if (c.rank() == 2) {
          ::raise(SIGKILL);  // a real process death, not an exception
        }
        // Generous bounds: they are only ever reached on failure, and the
        // suite runs under sanitizers at ~10x slowdown with full -j load.
        c.set_timeout(120.0);
        std::string saw_rank_failed = "no";
        if (c.rank() == 0) {
          try {
            (void)c.recv(2, 4);  // blocks until the parent marks the death
          } catch (const RankFailedError& e) {
            saw_rank_failed =
                std::string(e.what()).find("rank 2") != std::string::npos
                    ? "yes"
                    : "wrong-rank";
          } catch (const RecoveryError&) {
            // Rank 1 can learn of the death first and open the survivor
            // agreement before our next wakeup, in which case the blocked
            // recv is abandoned into the agreement instead — the same
            // convergence production recovery relies on. The death is
            // still fully attributed in the failure table.
            saw_rank_failed = c.failed_ranks() == std::vector<int>{2}
                                  ? "yes"
                                  : "wrong-rank";
          }
        } else {
          // Rank 1 polls liveness instead of blocking.
          const auto deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(120);
          while (c.failed_ranks().empty() &&
                 std::chrono::steady_clock::now() < deadline) {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
          }
          saw_rank_failed = c.failed_ranks() == std::vector<int>{2}
                                ? "yes"
                                : "wrong-rank";
        }

        const auto survivors = c.agree_survivors();
        // The shrunken group still works end to end.
        if (c.rank() == 0) {
          c.send(1, 12, to_bytes("post-shrink hello"));
        }
        std::string relay = c.rank() == 1 ? to_string(c.recv(0, 12)) : "-";

        ByteWriter w;
        w.write_string(saw_rank_failed);
        w.write<std::uint64_t>(survivors.size());
        for (const int s : survivors) w.write<std::int32_t>(s);
        w.write_string(relay);
        return w.take();
      });

  ASSERT_EQ(blobs.size(), 3u);
  EXPECT_TRUE(blobs[2].empty()) << "a SIGKILLed rank cannot report";
  for (int rank : {0, 1}) {
    ByteReader r(blobs[rank]);
    EXPECT_EQ(r.read_string(), "yes") << "rank " << rank;
    ASSERT_EQ(r.read<std::uint64_t>(), 2u);
    EXPECT_EQ(r.read<std::int32_t>(), 0);
    EXPECT_EQ(r.read<std::int32_t>(), 1);
    const auto relay = r.read_string();
    if (rank == 1) {
      EXPECT_EQ(relay, "post-shrink hello");
    }
    EXPECT_TRUE(r.exhausted());
  }
}

TEST(ProcComm, HonestSigkillMidFitShrinksAndContinues) {
  // The flagship story: rank 2 is destroyed with a genuine SIGKILL partway
  // through a distributed fit — no stack unwinding, no destructors, the
  // process is simply gone — and the three surviving processes must shrink
  // and complete with a valid model. This is the test the thread backend
  // fundamentally cannot run honestly.
  const auto spec = data::make_paper_mixture(8, 3, 1);
  const auto d = data::sample(spec, 1200, 2);
  const auto shards = data::shard(d, 4);
  core::Params params;
  params.comm_timeout_seconds = 2.0;
  params.max_shrink_retries = 6;

  std::exception_ptr err;
  const auto blobs = run_ranks_collect_bytes(
      proc_options(), 4,
      [&](Communicator& c) -> std::vector<std::byte> {
        const auto r = static_cast<std::size_t>(c.rank());
        fault::FaultSchedule s;
        s.seed = 2024;
        if (c.rank() == 2) {
          s.kill_at_op = 40;    // mid-trial, hundreds of ops into the fit
          s.hard_kill = true;   // honored because ProcComm is
                                // process_isolated(): raises SIGKILL
        }
        fault::FaultyComm faulty(c, s);
        const auto result = core::fit(faulty, shards[r].points, params);

        ByteWriter w;
        w.write<std::int32_t>(result.model.n_clusters());
        w.write<std::uint64_t>(result.labels.size());
        int min_label = 0;
        for (const int l : result.labels) min_label = std::min(min_label, l);
        w.write<std::int32_t>(min_label);
        return w.take();
      },
      nullptr, &err);

  // The kill is not an error: the dead rank reports nothing, the survivors
  // succeed, and the parent sees a clean run with one empty blob.
  EXPECT_TRUE(err == nullptr);
  ASSERT_EQ(blobs.size(), 4u);
  EXPECT_TRUE(blobs[2].empty()) << "SIGKILLed rank left a result?";
  for (const int rank : {0, 1, 3}) {
    ByteReader r(blobs[static_cast<std::size_t>(rank)]);
    EXPECT_GE(r.read<std::int32_t>(), 1) << "rank " << rank;
    EXPECT_EQ(r.read<std::uint64_t>(),
              shards[static_cast<std::size_t>(rank)].points.rows());
    EXPECT_GE(r.read<std::int32_t>(), 0) << "negative label, rank " << rank;
  }
}

TEST(ProcComm, FitFingerprintMatchesTheThreadBackendBitForBit) {
  // Same pinned dataset, same params, both backends: the model bytes and
  // every rank's labels must be identical. The transport may not leak into
  // the math.
  const auto spec = data::make_paper_mixture(8, 3, 1);
  const auto d = data::sample(spec, 1000, 3);
  const auto shards = data::shard(d, 4);
  const auto body = [&](Communicator& c) -> std::vector<std::byte> {
    const auto r = static_cast<std::size_t>(c.rank());
    const auto result = core::fit(c, shards[r].points, core::Params{});
    ByteWriter w;
    result.model.serialize(w);
    w.write_vec(result.labels);
    return w.take();
  };
  const auto proc = run_ranks_collect_bytes(proc_options(), 4, body);
  const auto thread = run_ranks_collect_bytes(LaunchOptions{}, 4, body);
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(proc[r], thread[r]) << "fingerprint diverged on rank " << r;
  }
}

TEST(ProcComm, CheckpointSurvivesARealKillAndResumes) {
  // An out-of-core run is SIGKILLed between checkpoint writes — a genuine
  // process death with no teardown. A fresh process resumes from the
  // on-disk checkpoint and must reproduce the uninterrupted run bit for
  // bit. (The thread-backend version of this story can only simulate the
  // death with a budget pause; here the process is really gone.)
  testutil::TempPaths tmp;
  const std::string input = tmp.make("kb2_proc_ckpt_input", ".bin");
  const std::string labels = tmp.make("kb2_proc_ckpt_labels", ".bin");
  const std::string ckpt = tmp.make("kb2_proc_ckpt_state", ".bin");
  const auto spec = data::make_paper_mixture(10, 3, 1);
  data::write_binary(data::sample(spec, 4000, 2), input);

  // Reference: one uninterrupted in-process run.
  const auto clean = core::fit_from_file(input, labels, {}, /*chunk=*/512);
  const auto clean_labels = core::read_labels(labels);
  ByteWriter clean_w;
  clean.model.serialize(clean_w);

  core::CheckpointOptions opts;
  opts.path = ckpt;
  opts.every_chunks = 2;

  // A child works through 3 of 8 chunks (checkpoint lands at chunk 2),
  // then dies by SIGKILL.
  std::exception_ptr err;
  auto blobs = run_ranks_collect_bytes(
      proc_options(), 1,
      [&](Communicator&) -> std::vector<std::byte> {
        auto paused = opts;
        paused.max_chunks = 3;
        (void)core::fit_from_file(input, labels, {}, 512, paused);
        ::raise(SIGKILL);  // die after the budget pause wrote state
        return {};
      },
      nullptr, &err);
  EXPECT_TRUE(err == nullptr);
  EXPECT_TRUE(blobs[0].empty());
  {
    std::FILE* probe = std::fopen(ckpt.c_str(), "rb");
    ASSERT_NE(probe, nullptr) << "checkpoint did not survive the kill";
    std::fclose(probe);
  }

  // A fresh child resumes from the checkpoint and finishes the job.
  blobs = run_ranks_collect_bytes(
      proc_options(), 1,
      [&](Communicator&) -> std::vector<std::byte> {
        const auto resumed = core::fit_from_file(input, labels, {}, 512, opts);
        ByteWriter w;
        w.write<std::uint8_t>(resumed.completed ? 1 : 0);
        w.write<std::uint64_t>(resumed.points);
        resumed.model.serialize(w);
        return w.take();
      },
      nullptr, &err);
  ASSERT_TRUE(err == nullptr);
  ByteReader r(blobs[0]);
  EXPECT_EQ(r.read<std::uint8_t>(), 1);
  EXPECT_EQ(r.read<std::uint64_t>(), 4000u);
  const auto resumed_model =
      std::vector<std::byte>(blobs[0].begin() + 9, blobs[0].end());
  EXPECT_EQ(resumed_model, clean_w.bytes());
  EXPECT_EQ(core::read_labels(labels), clean_labels);
}

TEST(ProcComm, RunRanksOptionsOverloadRethrowsWithOriginalType) {
  // The void-returning overload is the drop-in for existing call sites:
  // same rethrow semantics as the thread backend.
  EXPECT_THROW(
      run_ranks(proc_options(), 2,
                [](Communicator& c) {
                  if (c.rank() == 0) {
                    c.set_timeout(0.1);
                    (void)c.recv(1, 2);
                  }
                  // Keep the silent peer alive past the timeout window.
                  std::this_thread::sleep_for(
                      std::chrono::milliseconds(500));
                }),
      TimeoutError);
}

TEST(ProcRecovery, RespawnRejoinsAndFitFingerprintIsBitIdentical) {
  // Rank 2's first incarnation takes a real SIGKILL mid-fit. With respawn
  // budget armed, the supervisor forks a replacement, the survivors'
  // agreement is held open until it arrives, and the regrown full-width
  // group reruns the fit — whose model bytes and every rank's labels must
  // equal the undisturbed thread-backend run bit for bit. Recovery may not
  // leak into the math.
  const auto spec = data::make_paper_mixture(8, 3, 1);
  const auto d = data::sample(spec, 1000, 3);
  const auto shards = data::shard(d, 4);
  core::Params params;
  params.comm_timeout_seconds = 30.0;

  const auto clean = [&](Communicator& c) -> std::vector<std::byte> {
    const auto result =
        core::fit(c, shards[static_cast<std::size_t>(c.rank())].points,
                  params);
    ByteWriter w;
    result.model.serialize(w);
    w.write_vec(result.labels);
    return w.take();
  };
  const auto body = [&](Communicator& c) -> std::vector<std::byte> {
    fault::FaultSchedule s;
    if (c.rank() == 2 && c.incarnation() == 0) {
      s.kill_at_op = 15;
      s.hard_kill = true;
    }
    fault::FaultyComm f(c, s);
    const auto result =
        core::fit(f, shards[static_cast<std::size_t>(c.rank())].points,
                  params);
    ByteWriter w;
    result.model.serialize(w);
    w.write_vec(result.labels);
    return w.take();
  };

  const auto reference = run_ranks_collect_bytes(LaunchOptions{}, 4, clean);
  RecoveryPolicy pol;
  pol.max_respawns = 1;
  pol.backoff_base_ms = 1.0;
  pol.backoff_cap_ms = 4.0;
  const auto res = proc_run_ranks(4, 0, pol, body);
  EXPECT_FALSE(res.first_error) << "regrown run should succeed";
  EXPECT_EQ(res.respawns_total, 1);
  EXPECT_GE(res.regrow_epochs, 1);
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(res.results[static_cast<std::size_t>(r)],
              reference[static_cast<std::size_t>(r)])
        << "fingerprint diverged on rank " << r;
  }
}

TEST(ProcRecovery, DoubleFailureDuringRegrowFallsDownTheLadder) {
  // The replacement incarnation dies too, and the budget (1) is spent: the
  // reservation drains without a second respawn and the ladder falls to
  // shrink-and-continue. The survivors finish degraded — no error, no
  // hang, the victim's slot simply reports nothing.
  const auto spec = data::make_paper_mixture(8, 3, 1);
  const auto d = data::sample(spec, 1000, 3);
  const auto shards = data::shard(d, 4);
  core::Params params;
  params.comm_timeout_seconds = 30.0;

  const auto body = [&](Communicator& c) -> std::vector<std::byte> {
    fault::FaultSchedule s;
    if (c.rank() == 2 && c.incarnation() <= 1) {
      s.kill_at_op = 15;
      s.hard_kill = true;
    }
    fault::FaultyComm f(c, s);
    const auto result =
        core::fit(f, shards[static_cast<std::size_t>(c.rank())].points,
                  params);
    ByteWriter w;
    result.model.serialize(w);
    w.write_vec(result.labels);
    return w.take();
  };

  RecoveryPolicy pol;
  pol.max_respawns = 1;
  pol.backoff_base_ms = 1.0;
  pol.backoff_cap_ms = 4.0;
  const auto res = proc_run_ranks(4, 0, pol, body);
  EXPECT_FALSE(res.first_error)
      << "survivors should shrink-and-continue, not error";
  EXPECT_EQ(res.respawns_total, 1) << "budget allowed exactly one respawn";
  EXPECT_TRUE(res.results[2].empty()) << "the dead slot reports nothing";
  for (const int r : {0, 1, 3}) {
    EXPECT_FALSE(res.results[static_cast<std::size_t>(r)].empty())
        << "survivor " << r << " should have finished";
  }
}

TEST(ProcRecovery, SpillFilesOfAKilledRankAreReclaimedMidRun) {
  // Rank 2 parks an oversized (spilled) frame in rank 0's ring and dies by
  // SIGKILL before anyone receives it. The survivor agreement must reclaim
  // the orphaned spill file as part of purging the rings — long-lived
  // groups must not accumulate dead ranks' payloads on tmpfs.
  const auto count_victim_spills = [&] {
    // Spill dirs are named kb2-spill-<parent pid>-...; spilled frames are
    // f<flow>.<src>. Count files from src rank 2 across this parent's dirs.
    int found = 0;
    const std::string prefix =
        "kb2-spill-" + std::to_string(::getppid()) + "-";
    DIR* top = ::opendir(spill_parent().c_str());
    if (top == nullptr) return -1;
    while (dirent* e = ::readdir(top)) {
      if (std::strncmp(e->d_name, prefix.c_str(), prefix.size()) != 0) {
        continue;
      }
      const std::string dir = spill_parent() + "/" + e->d_name;
      if (DIR* in = ::opendir(dir.c_str())) {
        while (dirent* f = ::readdir(in)) {
          const std::string name = f->d_name;
          if (name.size() > 2 && name.substr(name.size() - 2) == ".2") {
            ++found;
          }
        }
        ::closedir(in);
      }
    }
    ::closedir(top);
    return found;
  };

  const auto blobs = run_ranks_collect_bytes(
      proc_options(/*ring_bytes=*/4096), 3,
      [&](Communicator& c) -> std::vector<std::byte> {
        if (c.rank() == 2) {
          // 4 KiB payload > ring_bytes/2: lands as a spill file.
          c.send(0, 5, std::vector<std::byte>(4096));
          ::raise(SIGKILL);
        }
        // Survivors: wait for the death to be detected, observe the
        // orphaned spill, agree, then observe the reclaim.
        while (c.failed_ranks().empty()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        const int before = c.rank() == 0 ? count_victim_spills() : 0;
        (void)c.agree_survivors();
        const int after = c.rank() == 0 ? count_victim_spills() : 0;
        ByteWriter w;
        w.write<std::int32_t>(before);
        w.write<std::int32_t>(after);
        return w.take();
      });
  ASSERT_FALSE(blobs[0].empty());
  ByteReader r(blobs[0]);
  EXPECT_GT(r.read<std::int32_t>(), 0)
      << "the spilled frame should be on disk before the agreement";
  EXPECT_EQ(r.read<std::int32_t>(), 0)
      << "the agreement should have reclaimed the dead rank's spill files";
}

/// Satellite leak gate: after every test in this binary, no shared-memory
/// segment or spill directory created by THIS process may remain. The shm
/// segment is unlinked at birth and spill dirs die with MappedGroup — a
/// name surviving to teardown is a leak, typically from an abnormal-death
/// path that skipped reclamation.
class ProcResidueCheck final : public ::testing::EmptyTestEventListener {
  void OnTestEnd(const ::testing::TestInfo& info) override {
    const std::string pid = std::to_string(::getpid());
    const std::string leaks = find_residue(pid);
    EXPECT_TRUE(leaks.empty())
        << "test " << info.test_suite_name() << "." << info.name()
        << " leaked process-backend residue: " << leaks;
  }

  static std::string find_residue(const std::string& pid) {
    std::string found;
    for (const char* parent : {"/dev/shm", "/tmp"}) {
      DIR* d = ::opendir(parent);
      if (d == nullptr) continue;
      const std::string spill = "kb2-spill-" + pid + "-";
      const std::string shm = "kb2-proc-" + pid + "-";
      while (dirent* e = ::readdir(d)) {
        const std::string name = e->d_name;
        if (name.rfind(spill, 0) == 0 || name.rfind(shm, 0) == 0) {
          found += std::string(parent) + "/" + name + " ";
        }
      }
      ::closedir(d);
    }
    return found;
  }
};

const bool kResidueCheckInstalled = [] {
  ::testing::UnitTest::GetInstance()->listeners().Append(
      new ProcResidueCheck);
  return true;
}();

#else  // !__linux__

TEST(ProcComm, ProcessBackendThrowsOffLinux) {
  EXPECT_THROW(proc_run_ranks(2, 0,
                              [](Communicator&) -> std::vector<std::byte> {
                                return {};
                              }),
               Error);
}

#endif

}  // namespace
}  // namespace keybin2::comm
