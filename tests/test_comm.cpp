#include "comm/communicator.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>

#include "comm/launch.hpp"
#include "comm/thread_comm.hpp"
#include "common/error.hpp"

namespace keybin2::comm {
namespace {

std::vector<std::byte> to_bytes(const std::string& s) {
  std::vector<std::byte> out(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) out[i] = std::byte(s[i]);
  return out;
}

std::string to_string(const std::vector<std::byte>& b) {
  std::string out(b.size(), '\0');
  for (std::size_t i = 0; i < b.size(); ++i) out[i] = static_cast<char>(b[i]);
  return out;
}

TEST(SelfComm, RankAndSize) {
  SelfComm c;
  EXPECT_EQ(c.rank(), 0);
  EXPECT_EQ(c.size(), 1);
}

TEST(SelfComm, LoopbackSendRecv) {
  SelfComm c;
  c.send(0, 5, to_bytes("ping"));
  EXPECT_EQ(to_string(c.recv(0, 5)), "ping");
}

TEST(SelfComm, RecvWithoutMessageThrows) {
  SelfComm c;
  EXPECT_THROW(c.recv(0, 1), Error);
}

TEST(SelfComm, TagsAreIndependentChannels) {
  SelfComm c;
  c.send(0, 1, to_bytes("a"));
  c.send(0, 2, to_bytes("b"));
  EXPECT_EQ(to_string(c.recv(0, 2)), "b");
  EXPECT_EQ(to_string(c.recv(0, 1)), "a");
}

TEST(SelfComm, CollectivesAreIdentity) {
  SelfComm c;
  std::vector<double> v{1.0, 2.0};
  EXPECT_EQ(c.allreduce(v, ReduceOp::kSum), v);
  auto bytes = to_bytes("x");
  c.broadcast(bytes, 0);
  EXPECT_EQ(to_string(bytes), "x");
  auto gathered = c.gather(bytes, 0);
  ASSERT_EQ(gathered.size(), 1u);
  EXPECT_EQ(to_string(gathered[0]), "x");
}

TEST(ThreadComm, PointToPointDelivery) {
  run_ranks(2, [&](Communicator& c) {
    if (c.rank() == 0) {
      c.send(1, 7, to_bytes("hello"));
    } else {
      EXPECT_EQ(to_string(c.recv(0, 7)), "hello");
    }
  });
}

TEST(ThreadComm, FifoPerChannel) {
  run_ranks(2, [&](Communicator& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 10; ++i) {
        c.send(1, 3, to_bytes("msg" + std::to_string(i)));
      }
    } else {
      for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(to_string(c.recv(0, 3)), "msg" + std::to_string(i));
      }
    }
  });
}

TEST(ThreadComm, TagsDoNotCross) {
  run_ranks(2, [&](Communicator& c) {
    if (c.rank() == 0) {
      c.send(1, 1, to_bytes("one"));
      c.send(1, 2, to_bytes("two"));
    } else {
      EXPECT_EQ(to_string(c.recv(0, 2)), "two");
      EXPECT_EQ(to_string(c.recv(0, 1)), "one");
    }
  });
}

TEST(ThreadComm, BarrierSynchronizes) {
  std::atomic<int> counter{0};
  run_ranks(4, [&](Communicator& c) {
    counter.fetch_add(1);
    c.barrier();
    // After the barrier every rank must see all increments.
    EXPECT_EQ(counter.load(), 4);
  });
}

TEST(ThreadComm, TrafficStatsCountMessages) {
  auto total = run_ranks(2, [&](Communicator& c) {
    if (c.rank() == 0) c.send(1, 0, to_bytes("12345"));
    if (c.rank() == 1) c.recv(0, 0);
  });
  EXPECT_EQ(total.messages_sent, 1u);
  EXPECT_EQ(total.bytes_sent, 5u);
  EXPECT_EQ(total.messages_received, 1u);
  EXPECT_EQ(total.bytes_received, 5u);
}

TEST(ThreadComm, ReceiveCountersAttributedToReceiver) {
  run_ranks(2, [&](Communicator& c) {
    if (c.rank() == 0) {
      c.send(1, 0, to_bytes("abc"));
      c.barrier();
      // The sender's receive side stays untouched (barrier moves no bytes).
      EXPECT_EQ(c.stats().messages_sent, 1u);
      EXPECT_EQ(c.stats().messages_received, 0u);
    } else {
      c.recv(0, 0);
      const auto before_barrier = c.stats();
      EXPECT_EQ(before_barrier.messages_received, 1u);
      EXPECT_EQ(before_barrier.bytes_received, 3u);
      EXPECT_EQ(before_barrier.messages_sent, 0u);
      c.barrier();
    }
  });
}

TEST(SelfComm, LoopbackCountsBothDirections) {
  SelfComm c;
  c.send(0, 1, to_bytes("1234"));
  c.recv(0, 1);
  EXPECT_EQ(c.stats().messages_sent, 1u);
  EXPECT_EQ(c.stats().bytes_sent, 4u);
  EXPECT_EQ(c.stats().messages_received, 1u);
  EXPECT_EQ(c.stats().bytes_received, 4u);
}

TEST(ThreadComm, GroupSendReceiveTotalsSymmetric) {
  // Every message enqueued is eventually dequeued, so group-wide send and
  // receive totals must agree after any collective-heavy workload.
  auto total = run_ranks(4, [&](Communicator& c) {
    std::vector<double> v{static_cast<double>(c.rank()), 1.0};
    c.allreduce(v, ReduceOp::kSum);
    c.ring_allreduce(v);
    auto bytes = to_bytes("payload");
    c.broadcast(bytes, 0);
    c.gather(bytes, 0);
    c.barrier();
  });
  EXPECT_EQ(total.messages_received, total.messages_sent);
  EXPECT_EQ(total.bytes_received, total.bytes_sent);
  EXPECT_GT(total.messages_sent, 0u);
}

TEST(ThreadComm, SendToInvalidRankThrows) {
  EXPECT_THROW(run_ranks(2,
                         [&](Communicator& c) {
                           if (c.rank() == 0) c.send(5, 0, to_bytes("x"));
                         }),
               Error);
}

TEST(ThreadComm, TypedDoubleRoundtrip) {
  run_ranks(2, [&](Communicator& c) {
    if (c.rank() == 0) {
      c.send_doubles(1, 4, std::vector<double>{1.5, 2.5, 3.5});
    } else {
      EXPECT_EQ(c.recv_doubles(0, 4), (std::vector<double>{1.5, 2.5, 3.5}));
    }
  });
}

// ---- Collectives across a sweep of group sizes ----

class CollectiveSweep : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveSweep, BroadcastFromEveryRoot) {
  const int p = GetParam();
  for (int root = 0; root < p; ++root) {
    run_ranks(p, [&](Communicator& c) {
      auto data = c.rank() == root ? to_bytes("payload-" + std::to_string(root))
                                   : std::vector<std::byte>{};
      c.broadcast(data, root);
      EXPECT_EQ(to_string(data), "payload-" + std::to_string(root));
    });
  }
}

TEST_P(CollectiveSweep, ReduceSumToEveryRoot) {
  const int p = GetParam();
  for (int root = 0; root < p; ++root) {
    run_ranks(p, [&](Communicator& c) {
      std::vector<double> local{static_cast<double>(c.rank()), 1.0};
      auto result = c.reduce(local, ReduceOp::kSum, root);
      if (c.rank() == root) {
        ASSERT_EQ(result.size(), 2u);
        EXPECT_DOUBLE_EQ(result[0], p * (p - 1) / 2.0);
        EXPECT_DOUBLE_EQ(result[1], p);
      } else {
        EXPECT_TRUE(result.empty());
      }
    });
  }
}

TEST_P(CollectiveSweep, AllreduceSumMatchesOnAllRanks) {
  const int p = GetParam();
  run_ranks(p, [&](Communicator& c) {
    std::vector<double> local{static_cast<double>(c.rank() + 1)};
    auto result = c.allreduce(local, ReduceOp::kSum);
    ASSERT_EQ(result.size(), 1u);
    EXPECT_DOUBLE_EQ(result[0], p * (p + 1) / 2.0);
  });
}

TEST_P(CollectiveSweep, AllreduceMinMax) {
  const int p = GetParam();
  run_ranks(p, [&](Communicator& c) {
    const double mine = static_cast<double>(c.rank());
    EXPECT_DOUBLE_EQ(c.allreduce(mine, ReduceOp::kMin), 0.0);
    EXPECT_DOUBLE_EQ(c.allreduce(mine, ReduceOp::kMax),
                     static_cast<double>(p - 1));
  });
}

TEST_P(CollectiveSweep, AllreduceU64) {
  const int p = GetParam();
  run_ranks(p, [&](Communicator& c) {
    const std::uint64_t mine = 1ULL << c.rank();
    EXPECT_EQ(c.allreduce(mine, ReduceOp::kSum), (1ULL << p) - 1);
  });
}

TEST_P(CollectiveSweep, GatherCollectsInRankOrder) {
  const int p = GetParam();
  run_ranks(p, [&](Communicator& c) {
    auto blob = to_bytes("r" + std::to_string(c.rank()));
    auto gathered = c.gather(blob, 0);
    if (c.rank() == 0) {
      ASSERT_EQ(gathered.size(), static_cast<std::size_t>(p));
      for (int r = 0; r < p; ++r) {
        EXPECT_EQ(to_string(gathered[static_cast<std::size_t>(r)]),
                  "r" + std::to_string(r));
      }
    } else {
      EXPECT_TRUE(gathered.empty());
    }
  });
}

TEST_P(CollectiveSweep, AllgatherGivesEveryoneEverything) {
  const int p = GetParam();
  run_ranks(p, [&](Communicator& c) {
    auto blob = to_bytes(std::to_string(c.rank() * 11));
    auto gathered = c.allgather(blob);
    ASSERT_EQ(gathered.size(), static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) {
      EXPECT_EQ(to_string(gathered[static_cast<std::size_t>(r)]),
                std::to_string(r * 11));
    }
  });
}

TEST_P(CollectiveSweep, ConsecutiveCollectivesDoNotInterfere) {
  const int p = GetParam();
  run_ranks(p, [&](Communicator& c) {
    for (int round = 0; round < 5; ++round) {
      const double sum = c.allreduce(static_cast<double>(round), ReduceOp::kSum);
      EXPECT_DOUBLE_EQ(sum, static_cast<double>(round * p));
    }
  });
}

INSTANTIATE_TEST_SUITE_P(GroupSizes, CollectiveSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 16));


// ---- Ring allreduce (§3 step 3: "works as well for a ring topology") ----

class RingSweep : public ::testing::TestWithParam<int> {};

TEST_P(RingSweep, RingAllreduceMatchesTreeAllreduce) {
  const int p = GetParam();
  run_ranks(p, [&](Communicator& c) {
    std::vector<double> local{static_cast<double>(c.rank() + 1),
                              static_cast<double>(c.rank()) * 0.5};
    const auto ring = c.ring_allreduce(local);
    const auto tree = c.allreduce(local, ReduceOp::kSum);
    ASSERT_EQ(ring.size(), tree.size());
    for (std::size_t i = 0; i < ring.size(); ++i) {
      EXPECT_DOUBLE_EQ(ring[i], tree[i]);
    }
  });
}

TEST_P(RingSweep, RingUsesExactlyTwoPMinusOneMessages) {
  const int p = GetParam();
  const auto traffic = run_ranks(p, [&](Communicator& c) {
    std::vector<double> local(8, 1.0);
    c.ring_allreduce(local);
  });
  if (p == 1) {
    EXPECT_EQ(traffic.messages_sent, 0u);
  } else {
    EXPECT_EQ(traffic.messages_sent, static_cast<std::uint64_t>(2 * (p - 1)));
  }
}

INSTANTIATE_TEST_SUITE_P(RingSizes, RingSweep,
                         ::testing::Values(1, 2, 3, 4, 8, 16));

TEST(Ring, ConsecutiveRingOpsDoNotInterfere) {
  run_ranks(4, [&](Communicator& c) {
    for (int round = 1; round <= 4; ++round) {
      std::vector<double> local{static_cast<double>(round)};
      EXPECT_DOUBLE_EQ(c.ring_allreduce(local)[0], 4.0 * round);
    }
  });
}

// ---- Adaptive allreduce: recursive halving + sparse segments ----

class AlgoSweep : public ::testing::TestWithParam<int> {};

TEST_P(AlgoSweep, RecursiveHalvingMatchesTreeForAllOps) {
  const int p = GetParam();
  run_ranks(p, [&](Communicator& c) {
    // Deliberately irregular per-rank values, length above AND below any
    // internal thresholds.
    for (std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{130}}) {
      std::vector<double> local(n);
      for (std::size_t i = 0; i < n; ++i) {
        local[i] = static_cast<double>((c.rank() + 1) * 3 + i) * 0.25 -
                   static_cast<double>(i % 5);
      }
      for (auto op : {ReduceOp::kSum, ReduceOp::kMin, ReduceOp::kMax}) {
        const auto tree =
            c.allreduce(local, op, AllreduceAlgo::kTree);
        const auto rh =
            c.allreduce(local, op, AllreduceAlgo::kRecursiveHalving);
        ASSERT_EQ(tree.size(), rh.size());
        for (std::size_t i = 0; i < n; ++i) {
          // min/max are association-free; integer-scaled sums here are exact
          // under any order, so exact equality is the right bar.
          EXPECT_DOUBLE_EQ(tree[i], rh[i])
              << "op " << static_cast<int>(op) << " n " << n << " i " << i;
        }
      }
    }
  });
}

TEST_P(AlgoSweep, RecursiveHalvingIntegralSumsMatchTreeAndRingExactly) {
  const int p = GetParam();
  run_ranks(p, [&](Communicator& c) {
    // Histogram-like payload: integer-valued doubles, mostly zero.
    std::vector<double> local(256, 0.0);
    for (int k = 0; k < 8; ++k) {
      local[static_cast<std::size_t>((c.rank() * 37 + k * 11) % 256)] +=
          static_cast<double>(k + 1);
    }
    const auto tree = c.allreduce(local, ReduceOp::kSum, AllreduceAlgo::kTree);
    const auto rh =
        c.allreduce(local, ReduceOp::kSum, AllreduceAlgo::kRecursiveHalving);
    const auto ring = c.ring_allreduce(local);
    ASSERT_EQ(tree.size(), rh.size());
    ASSERT_EQ(tree.size(), ring.size());
    for (std::size_t i = 0; i < tree.size(); ++i) {
      EXPECT_EQ(tree[i], rh[i]) << i;   // bitwise: integral sums are exact
      EXPECT_EQ(tree[i], ring[i]) << i;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(AlgoSizes, AlgoSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 8));

TEST(AdaptiveAllreduce, AutoPicksTreeForSmallAndHalvingForLargePayloads) {
  run_ranks(4, [&](Communicator& c) {
    std::vector<double> small(Communicator::kRecursiveHalvingMinElements - 1,
                              1.0);
    ReduceProfile profile;
    c.allreduce(small, ReduceOp::kSum, AllreduceAlgo::kAuto, &profile);
    EXPECT_EQ(profile.algo, AllreduceAlgo::kTree);

    std::vector<double> large(Communicator::kRecursiveHalvingMinElements, 1.0);
    c.allreduce(large, ReduceOp::kSum, AllreduceAlgo::kAuto, &profile);
    EXPECT_EQ(profile.algo, AllreduceAlgo::kRecursiveHalving);
  });
}

TEST(AdaptiveAllreduce, SingleRankShortCircuitsToTree) {
  run_ranks(1, [&](Communicator& c) {
    std::vector<double> v(2048, 2.0);
    ReduceProfile profile;
    const auto out =
        c.allreduce(v, ReduceOp::kSum, AllreduceAlgo::kAuto, &profile);
    EXPECT_EQ(profile.algo, AllreduceAlgo::kTree);
    EXPECT_EQ(out, v);
  });
}

TEST(AdaptiveAllreduce, SparseSegmentsEngageOnSparsePayloads) {
  run_ranks(4, [&](Communicator& c) {
    // 1% density: every sparse-eligible block should take the sparse coding.
    std::vector<double> local(4096, 0.0);
    local[static_cast<std::size_t>(c.rank()) * 512] = 1.0;
    ReduceProfile profile;
    const auto out = c.allreduce(local, ReduceOp::kSum,
                                 AllreduceAlgo::kRecursiveHalving, &profile);
    EXPECT_GT(profile.sparse_blocks, 0u);
    double total = 0.0;
    for (double v : out) total += v;
    EXPECT_DOUBLE_EQ(total, 4.0);
    EXPECT_DOUBLE_EQ(out[0], 1.0);
    EXPECT_DOUBLE_EQ(out[512], 1.0);
  });
}

TEST(AdaptiveAllreduce, DensePayloadsStayDense) {
  run_ranks(4, [&](Communicator& c) {
    std::vector<double> local(2048);
    for (std::size_t i = 0; i < local.size(); ++i) {
      local[i] = static_cast<double>(i + c.rank() + 1);
    }
    ReduceProfile profile;
    c.allreduce(local, ReduceOp::kSum, AllreduceAlgo::kRecursiveHalving,
                &profile);
    EXPECT_EQ(profile.sparse_blocks, 0u);
    EXPECT_GT(profile.dense_blocks, 0u);
  });
}

TEST(AdaptiveAllreduce, SparseHalvingSendsFewerBytesThanTree) {
  constexpr std::size_t kN = 1 << 15;
  auto sparse_payload = [](int rank) {
    std::vector<double> v(kN, 0.0);
    for (int k = 0; k < 16; ++k) {
      v[static_cast<std::size_t>((rank * 131 + k * 977) % kN)] = 1.0;
    }
    return v;
  };
  const auto tree_traffic = run_ranks(8, [&](Communicator& c) {
    auto local = sparse_payload(c.rank());
    c.allreduce(local, ReduceOp::kSum, AllreduceAlgo::kTree);
  });
  const auto rh_traffic = run_ranks(8, [&](Communicator& c) {
    auto local = sparse_payload(c.rank());
    c.allreduce(local, ReduceOp::kSum, AllreduceAlgo::kRecursiveHalving);
  });
  // Acceptance bar: sparse recursive halving cuts reduce bytes by >= 40%.
  EXPECT_LT(static_cast<double>(rh_traffic.bytes_sent),
            0.6 * static_cast<double>(tree_traffic.bytes_sent))
      << "tree " << tree_traffic.bytes_sent << "B vs rh "
      << rh_traffic.bytes_sent << "B";
}

/// Per-rank sent-byte tally over the probe's on_send hook: the independent
/// accounting that ReduceProfile::bytes must reconcile with.
class SentBytesProbe : public CommProbe {
 public:
  explicit SentBytesProbe(int ranks) : sent_(static_cast<std::size_t>(ranks)) {
    for (auto& s : sent_) s.store(0);
  }
  void on_send(int self, int /*dest*/, int /*tag*/, std::size_t bytes,
               std::uint64_t /*flow*/, std::size_t /*queue*/) override {
    sent_[static_cast<std::size_t>(self)].fetch_add(bytes);
  }
  void on_begin(int, Op, int, int, std::size_t) override {}
  void on_recv(int, int, int, std::size_t, std::uint64_t,
               std::int64_t) override {}
  void on_barrier(int, std::int64_t) override {}
  void on_agree(int, std::size_t) override {}
  std::uint64_t sent(int rank) const {
    return sent_[static_cast<std::size_t>(rank)].load();
  }

 private:
  std::vector<std::atomic<std::uint64_t>> sent_;
};

TEST(ReduceProfileBytes, ReconcileWithStatsAndProbeAcrossAlgos) {
  // Satellite contract: ReduceProfile::bytes is the TrafficStats bytes_sent
  // delta (CRC frame + sparse-segment headers included), so it must equal
  // both the stats delta and the probe's per-rank on_send sum — for the
  // exact algos and for the coreset plane alike.
  constexpr int kRanks = 4;
  SentBytesProbe probe(kRanks);
  run_ranks(kRanks, [&](Communicator& c) {
    c.set_probe(&probe);
    std::vector<double> local(4096, 0.0);
    for (int k = 0; k < 24; ++k) {
      local[static_cast<std::size_t>((c.rank() * 131 + k * 977) % 4096)] = 1.0;
    }
    for (const auto algo :
         {AllreduceAlgo::kTree, AllreduceAlgo::kRecursiveHalving}) {
      const auto probe_before = probe.sent(c.rank());
      const auto stats_before = c.stats().bytes_sent;
      ReduceProfile profile;
      c.allreduce(local, ReduceOp::kSum, algo, &profile);
      c.barrier();  // all sends land before reading the tallies
      EXPECT_EQ(profile.bytes, c.stats().bytes_sent - stats_before);
      EXPECT_EQ(profile.bytes, probe.sent(c.rank()) - probe_before);
      EXPECT_GT(profile.bytes, 0u);
    }
    {
      const auto probe_before = probe.sent(c.rank());
      const auto stats_before = c.stats().bytes_sent;
      ReduceProfile profile;
      coreset::Options opts;
      opts.max_cells = 256;
      c.coreset_allreduce(local, opts, &profile);
      c.barrier();
      EXPECT_EQ(profile.bytes, c.stats().bytes_sent - stats_before);
      EXPECT_EQ(profile.bytes, probe.sent(c.rank()) - probe_before);
    }
    c.set_probe(nullptr);
  });
}

TEST(AdaptiveAllreduce, ConsecutiveAdaptiveOpsDoNotInterfere) {
  run_ranks(5, [&](Communicator& c) {
    for (int round = 1; round <= 3; ++round) {
      std::vector<double> local(1536, static_cast<double>(round));
      const auto out = c.allreduce(local, ReduceOp::kSum,
                                   AllreduceAlgo::kRecursiveHalving);
      for (double v : out) ASSERT_DOUBLE_EQ(v, 5.0 * round);
    }
  });
}

TEST(RunRanks, CollectGathersPerRankResults) {
  auto results = run_ranks_collect<int>(
      4, [](Communicator& c) { return c.rank() * 10; });
  EXPECT_EQ(results, (std::vector<int>{0, 10, 20, 30}));
}

TEST(RunRanks, PropagatesRankException) {
  EXPECT_THROW(run_ranks(3,
                         [](Communicator& c) {
                           if (c.rank() == 2) throw Error("rank failure");
                           // Other ranks exit cleanly without waiting.
                         }),
               Error);
}

TEST(RunRanks, ZeroRanksRejected) {
  EXPECT_THROW(run_ranks(0, [](Communicator&) {}), Error);
}

// ---- Fault surface: timeouts, failure flags, recovery, subgroups ----

TEST(Timeout, RecvDeadlineThrowsTimeoutErrorWithAttribution) {
  run_ranks(2, [&](Communicator& c) {
    if (c.rank() == 0) {
      c.set_timeout(0.1);
      try {
        c.recv(1, 7);
        ADD_FAILURE() << "recv should have timed out";
      } catch (const TimeoutError& e) {
        EXPECT_EQ(e.self(), 0);
        EXPECT_EQ(e.src(), 1);
        EXPECT_EQ(e.tag(), 7);
        EXPECT_GE(e.elapsed_seconds(), 0.09);
        const std::string what = e.what();
        EXPECT_NE(what.find("rank 0"), std::string::npos);
        EXPECT_NE(what.find("peer=1"), std::string::npos);
        EXPECT_NE(what.find("tag=7"), std::string::npos);
      }
    } else {
      // Stay alive past rank 0's deadline so the failure mode under test
      // is the timeout, not "peer departed".
      std::this_thread::sleep_for(std::chrono::milliseconds(400));
    }
  });
}

TEST(Timeout, BarrierDeadlineThrowsInsteadOfHanging) {
  run_ranks(2, [&](Communicator& c) {
    if (c.rank() == 0) {
      c.set_timeout(0.1);
      EXPECT_THROW(c.barrier(), TimeoutError);
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(400));
    }
  });
}

TEST(Timeout, SelfCommRecvReportsImmediateTimeout) {
  // SelfComm honors the deadline API trivially: no peer exists, so an empty
  // queue can never fill and the timeout is immediate.
  SelfComm c;
  try {
    c.recv(0, 3);
    ADD_FAILURE() << "recv should have thrown";
  } catch (const TimeoutError& e) {
    EXPECT_EQ(e.self(), 0);
    EXPECT_EQ(e.tag(), 3);
    EXPECT_DOUBLE_EQ(e.elapsed_seconds(), 0.0);
  }
}

TEST(FailureFlags, PoisonErrorNamesRankPeerAndTag) {
  // Regression: a poisoned hub's abort must say WHO was doing WHAT — the
  // originating rank, the peer it waited on, and the tag — not just that
  // the group died.
  ThreadCommHub hub(2);
  auto c0 = hub.comm(0);
  std::thread waiter([&] {
    try {
      c0.recv(1, 42);
      ADD_FAILURE() << "recv should have aborted";
    } catch (const RankFailedError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("rank 0 recv(peer=1, tag=42)"), std::string::npos)
          << what;
      EXPECT_NE(what.find("cancelled by test"), std::string::npos) << what;
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  hub.poison("cancelled by test");
  waiter.join();
  EXPECT_EQ(hub.failed_ranks(), (std::vector<int>{0, 1}));
}

TEST(FailureFlags, RankDeathWakesBlockedReceiverNamingTheDeadRank) {
  EXPECT_THROW(
      run_ranks(3,
                [&](Communicator& c) {
                  if (c.rank() == 0) {
                    try {
                      c.recv(1, 5);  // waiting on rank 1, but rank 2 dies
                      ADD_FAILURE() << "recv should have aborted";
                    } catch (const RankFailedError& e) {
                      const std::string what = e.what();
                      EXPECT_NE(what.find("rank 2 failed: boom"),
                                std::string::npos)
                          << what;
                    }
                  } else if (c.rank() == 2) {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(50));
                    throw Error("boom");
                  } else {
                    // Outlive the check so rank 0 is not disturbed by a
                    // clean departure first.
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(400));
                  }
                }),
      Error);
}

TEST(FailureFlags, SendToFailedRankThrows) {
  EXPECT_THROW(
      run_ranks(2,
                [&](Communicator& c) {
                  if (c.rank() == 1) throw Error("early death");
                  std::this_thread::sleep_for(
                      std::chrono::milliseconds(100));
                  const auto payload = to_bytes("x");
                  EXPECT_THROW(c.send(1, 0, payload), RankFailedError);
                }),
      Error);
}

TEST(Recovery, SurvivorsAgreeAndContinueInSubgroup) {
  std::atomic<int> recovered{0};
  EXPECT_THROW(
      run_ranks(4,
                [&](Communicator& c) {
                  if (c.rank() == 2) throw Error("node death");
                  try {
                    const double sum = c.allreduce(1.0, ReduceOp::kSum);
                    ADD_FAILURE()
                        << "allreduce completed without rank 2: " << sum;
                  } catch (const CommError&) {
                    const auto survivors = c.agree_survivors();
                    EXPECT_EQ(survivors, (std::vector<int>{0, 1, 3}));
                    SubgroupComm sub(c, survivors);
                    EXPECT_EQ(sub.size(), 3);
                    EXPECT_DOUBLE_EQ(sub.allreduce(1.0, ReduceOp::kSum),
                                     3.0);
                    sub.barrier();
                    recovered.fetch_add(1);
                  }
                }),
      Error);
  EXPECT_EQ(recovered.load(), 3);
}

TEST(Recovery, AgreeWithNoFailuresReturnsEveryone) {
  run_ranks(3, [&](Communicator& c) {
    EXPECT_EQ(c.agree_survivors(), (std::vector<int>{0, 1, 2}));
  });
}

TEST(Subgroup, DenselyRenumbersAndRunsCollectives) {
  run_ranks(4, [&](Communicator& c) {
    if (c.rank() == 1) {
      // Not a member; leave quietly. The members' traffic never names
      // this rank, so its departure cannot disturb them.
      return;
    }
    SubgroupComm sub(c, {0, 2, 3});
    EXPECT_EQ(sub.size(), 3);
    EXPECT_EQ(sub.members()[static_cast<std::size_t>(sub.rank())], c.rank());

    // Sum of parent ranks over the members.
    const double sum =
        sub.allreduce(static_cast<double>(c.rank()), ReduceOp::kSum);
    EXPECT_DOUBLE_EQ(sum, 5.0);

    // Broadcast from the subgroup root (parent rank 0).
    auto blob = sub.rank() == 0 ? to_bytes("hello") : std::vector<std::byte>{};
    sub.broadcast(blob, 0);
    EXPECT_EQ(to_string(blob), "hello");

    sub.barrier();
  });
}

TEST(Subgroup, SubgroupsCompose) {
  run_ranks(4, [&](Communicator& c) {
    if (c.rank() == 1) return;
    SubgroupComm sub(c, {0, 2, 3});
    if (c.rank() == 2) return;  // sub rank 1 leaves the nested group
    SubgroupComm nested(sub, {0, 2});
    EXPECT_EQ(nested.size(), 2);
    const double sum =
        nested.allreduce(static_cast<double>(c.rank()), ReduceOp::kSum);
    EXPECT_DOUBLE_EQ(sum, 3.0);  // parent ranks 0 and 3
  });
}

TEST(Subgroup, RejectsBadMemberLists) {
  run_ranks(2, [&](Communicator& c) {
    if (c.rank() == 1) {
      EXPECT_THROW(SubgroupComm(c, {0}), Error);      // caller not a member
    } else {
      EXPECT_THROW(SubgroupComm(c, {1, 0}), Error);   // not ascending
      EXPECT_THROW(SubgroupComm(c, {0, 5}), Error);   // out of range
    }
  });
}

}  // namespace
}  // namespace keybin2::comm
