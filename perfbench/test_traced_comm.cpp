// Tests of the benchmark's Communicator decorator and span pairing.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "common/serialize.hpp"
#include "comm/launch.hpp"
#include "core/keybin2.hpp"
#include "data/gaussian_mixture.hpp"
#include "data/partition.hpp"
#include "traced_comm.hpp"

namespace keybin2::perfbench {
namespace {

constexpr int kRanks = 4;

std::vector<data::Dataset> small_shards() {
  const auto spec = data::make_paper_mixture(8, 4, 7);
  return data::shard(data::sample(spec, 2000 * kRanks, 8), kRanks);
}

comm::LaunchOptions proc_backend() {
  comm::LaunchOptions o;
  o.backend = comm::Backend::kProcess;
  return o;
}

// Ranks run as processes: each has an inline thread pool, so the tests do
// not depend on the shared pool's scheduling.
std::vector<std::vector<std::byte>> fit_on_ranks(bool traced) {
  const auto shards = small_shards();
  return comm::run_ranks_collect_bytes(
      proc_backend(), kRanks,
      [&](comm::Communicator& c) -> std::vector<std::byte> {
        TracedComm tc(c);
        tc.arm(true);
        comm::Communicator& used =
            traced ? static_cast<comm::Communicator&>(tc) : c;
        const auto& shard = shards[static_cast<std::size_t>(c.rank())];
        const auto r = core::fit(used, shard.points);
        ByteWriter w;
        r.model.serialize(w);
        w.write_vec(r.labels);
        return w.take();
      });
}

TEST(TracedComm, DecoratedFitIsByteIdenticalToPlainFit) {
  const auto plain = fit_on_ranks(false);
  const auto traced = fit_on_ranks(true);
  ASSERT_EQ(plain.size(), static_cast<std::size_t>(kRanks));
  for (int r = 0; r < kRanks; ++r) {
    ASSERT_FALSE(plain[r].empty());
    EXPECT_EQ(plain[r], traced[r]) << "rank " << r;
  }
}

TEST(TracedComm, CountsEqualCommunicatorStatsDeltas) {
  const auto shards = small_shards();
  const auto blobs = comm::run_ranks_collect_bytes(
      proc_backend(), kRanks,
      [&](comm::Communicator& c) -> std::vector<std::byte> {
        TracedComm tc(c);
        const auto before = c.stats();
        tc.arm(true);
        core::fit(tc, shards[static_cast<std::size_t>(c.rank())].points);
        tc.arm(false);
        const auto delta = c.stats() - before;
        std::vector<std::vector<CommSpan>> one(1);
        one[0] = tc.take_spans();
        const CommSplit s = split_comm(one);
        ByteWriter w;
        w.write<std::uint64_t>(s.msgs);
        w.write<std::uint64_t>(s.bytes);
        w.write<std::uint64_t>(s.recvs);
        w.write<std::uint64_t>(delta.messages_sent);
        w.write<std::uint64_t>(delta.bytes_sent);
        w.write<std::uint64_t>(delta.messages_received);
        return w.take();
      });
  for (int r = 0; r < kRanks; ++r) {
    ByteReader rd(blobs[r]);
    const auto msgs = rd.read<std::uint64_t>();
    const auto bytes = rd.read<std::uint64_t>();
    const auto recvs = rd.read<std::uint64_t>();
    EXPECT_GT(msgs, 0u);
    EXPECT_EQ(msgs, rd.read<std::uint64_t>()) << "rank " << r;
    EXPECT_EQ(bytes, rd.read<std::uint64_t>()) << "rank " << r;
    EXPECT_EQ(recvs, rd.read<std::uint64_t>()) << "rank " << r;
  }
}

TEST(TracedComm, LateSenderTimeLandsInWait) {
  std::vector<std::vector<CommSpan>> spans(2);
  comm::run_ranks(2, [&](comm::Communicator& c) {
    TracedComm tc(c);
    // The receiver reaches the barrier last, so it leaves first and is
    // already blocked in recv when the sender's sleep starts.
    if (c.rank() == 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    c.barrier();
    tc.arm(true);
    const std::vector<std::byte> payload(64, std::byte{1});
    if (c.rank() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      tc.send(1, 3, payload);
    } else {
      tc.recv(0, 3);
    }
    spans[static_cast<std::size_t>(c.rank())] = tc.take_spans();
  });
  const CommSplit s = split_comm(spans);
  EXPECT_EQ(s.msgs, 1u);
  EXPECT_EQ(s.unmatched, 0u);
  EXPECT_GE(s.wait_late_sender_s, 0.020);
  EXPECT_LT(s.transfer_s, s.wait_late_sender_s);
  EXPECT_NEAR(s.wait_late_sender_s + s.transfer_s, s.recv_s, 1e-9);
}

TEST(SplitComm, PairsFifoPerChannelAndSplitsWaitFromTransfer) {
  const auto send = [](int peer, int tag, std::int64_t b, std::int64_t e) {
    return CommSpan{CommSpan::kSend, peer, tag, 10, b, e};
  };
  const auto recv = [](int peer, int tag, std::int64_t b, std::int64_t e) {
    return CommSpan{CommSpan::kRecv, peer, tag, 10, b, e};
  };
  std::vector<std::vector<CommSpan>> spans(2);
  // Rank 0 sends twice on tag 1 and once on tag 2.
  spans[0] = {send(1, 1, 100, 110), send(1, 2, 120, 125), send(1, 1, 400, 410)};
  // Rank 1: the first tag-1 recv waits 50 ns for its sender; the tag-2
  // message is already queued; the second tag-1 recv waits 100 ns.
  spans[1] = {recv(0, 1, 50, 130), recv(0, 2, 200, 220), recv(0, 1, 300, 450)};
  const CommSplit s = split_comm(spans);
  EXPECT_EQ(s.msgs, 3u);
  EXPECT_EQ(s.bytes, 30u);
  EXPECT_EQ(s.unmatched, 0u);
  EXPECT_NEAR(s.wait_late_sender_s, 150e-9, 1e-15);
  EXPECT_NEAR(s.transfer_s, (30 + 20 + 50) * 1e-9, 1e-15);
  EXPECT_NEAR(s.recv_s, s.wait_late_sender_s + s.transfer_s, 1e-15);
  ASSERT_EQ(s.latency_us.size(), 3u);
  EXPECT_NEAR(s.latency_us[0], 0.030, 1e-12);
}

TEST(SplitComm, CountsUnmatchedSendsAndRecvs) {
  std::vector<std::vector<CommSpan>> spans(2);
  spans[0] = {CommSpan{CommSpan::kSend, 1, 5, 8, 0, 1}};
  spans[1] = {CommSpan{CommSpan::kRecv, 0, 6, 8, 0, 1}};
  EXPECT_EQ(split_comm(spans).unmatched, 2u);
}

}  // namespace
}  // namespace keybin2::perfbench
