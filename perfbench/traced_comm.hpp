// Benchmark-side comm instrumentation: a Communicator decorator that records
// one span per send, recv and barrier, and the cross-rank analysis that pairs
// those spans into messages.
//
// TracedComm follows the comm::fault::FaultyComm pattern: it wraps a rank's
// endpoint, forwards every virtual to it, and adds nothing to the traffic, so
// a fit over it is byte-identical to a fit over the bare endpoint. Recording
// happens only while armed, which lets the benchmark keep its own bookkeeping
// (barriers, result gathers) out of the counts.
//
// split_comm() pairs the spans of all ranks FIFO per (src, dst, tag), the
// order in which every transport delivers, and divides receive time into
// waiting on a late sender (the receiver blocked before the send began) and
// transfer (the rest of the receive).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "comm/communicator.hpp"

namespace keybin2::perfbench {

/// Nanoseconds on the steady clock. CLOCK_MONOTONIC is system-wide, so
/// stamps taken in different rank processes compare directly.
std::int64_t now_ns();

struct CommSpan {
  enum Kind : std::uint8_t { kSend = 0, kRecv = 1, kBarrier = 2 };
  std::uint8_t kind = kSend;
  std::int32_t peer = -1;  // dest of a send, src of a recv, -1 for a barrier
  std::int32_t tag = -1;
  std::uint64_t bytes = 0;
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
};

class TracedComm final : public comm::Communicator {
 public:
  explicit TracedComm(comm::Communicator& inner) : inner_(&inner) {}

  int rank() const override { return inner_->rank(); }
  int size() const override { return inner_->size(); }
  void send(int dest, int tag, std::span<const std::byte> data) override;
  std::vector<std::byte> recv(int src, int tag) override;
  void barrier() override;
  comm::TrafficStats stats() const override { return inner_->stats(); }

  void set_timeout(double seconds) override {
    Communicator::set_timeout(seconds);
    inner_->set_timeout(seconds);
  }
  void set_probe(comm::CommProbe* probe) override {
    Communicator::set_probe(probe);
    inner_->set_probe(probe);
  }
  void set_flight_hook(comm::FlightHook* hook) override {
    Communicator::set_flight_hook(hook);
    inner_->set_flight_hook(hook);
  }
  std::vector<int> failed_ranks() const override {
    return inner_->failed_ranks();
  }
  std::vector<int> agree_survivors() override {
    return inner_->agree_survivors();
  }
  bool process_isolated() const override {
    return inner_->process_isolated();
  }
  int incarnation() const override { return inner_->incarnation(); }
  std::uint64_t respawns_total() const override {
    return inner_->respawns_total();
  }
  std::uint64_t regrow_epochs() const override {
    return inner_->regrow_epochs();
  }
  void recycle_buffer(std::vector<std::byte>&& buf) override {
    inner_->recycle_buffer(std::move(buf));
  }

  /// Start or stop recording spans.
  void arm(bool on) { armed_ = on; }

  /// Spans recorded since the last take, in call order.
  std::vector<CommSpan> take_spans();

 private:
  void record(std::uint8_t kind, int peer, int tag, std::size_t bytes,
              std::int64_t begin_ns) {
    if (armed_) {
      spans_.push_back(CommSpan{kind, peer, tag, bytes, begin_ns, now_ns()});
    }
  }

  comm::Communicator* inner_;
  bool armed_ = false;
  std::vector<CommSpan> spans_;
};

/// Whole-group totals of one traced interval. Times are summed over ranks.
struct CommSplit {
  std::uint64_t msgs = 0;   // sends
  std::uint64_t bytes = 0;  // bytes sent
  std::uint64_t recvs = 0;
  double send_s = 0.0;
  double recv_s = 0.0;
  double barrier_s = 0.0;
  double wait_late_sender_s = 0.0;
  double transfer_s = 0.0;
  std::uint64_t unmatched = 0;  // recvs with no send, or sends never received
  /// Per matched message: receive end minus the later of receive begin and
  /// send begin, in microseconds.
  std::vector<double> latency_us;
  /// Per rank: time inside send, recv and barrier.
  std::vector<double> rank_comm_s;
};

/// Pair the spans of every rank (index = rank) and total them.
CommSplit split_comm(const std::vector<std::vector<CommSpan>>& per_rank);

}  // namespace keybin2::perfbench
