// First-class fault injection for the comm layer.
//
// FaultyComm decorates any Communicator endpoint and perturbs its traffic
// according to a seeded FaultSchedule: messages can be dropped, delayed,
// truncated, length-corrupted, or zero-filled, and the whole rank can be
// killed at a chosen operation count (the moral equivalent of a node dying
// mid-collective). Every decision is drawn from a deterministic per-endpoint
// RNG, so a failing schedule is exactly reproducible from its seed.
//
// Tests wrap individual ranks:
//
//   run_ranks(4, [&](Communicator& inner) {
//     fault::FaultSchedule s;
//     s.kill_at_op = inner.rank() == 2 ? 40 : 0;
//     fault::FaultyComm c(inner, s);
//     core::fit(c, shard, params);   // rank 2 dies at its 40th comm op
//   });
//
// Detection story: truncation and corrupt lengths trip ByteReader's bounds
// checks; zero-fill and bit-flips that keep every length plausible trip the
// CRC32 frame checksum (CorruptFrameError); drops surface as TimeoutError
// once a deadline is set; kills surface on peers as RankFailedError.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "comm/communicator.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"

namespace keybin2::comm::fault {

/// Thrown on the faulty rank itself when its kill step is reached.
/// Deliberately NOT a CommError: the killed rank must not catch-and-recover
/// itself — the error propagates, the rank dies, and its *peers* recover.
class KilledError final : public Error {
 public:
  using Error::Error;
};

/// What to inject, with what probability. Probabilities are per-message and
/// independent; at most one mutation applies per message (checked in the
/// order drop, delay, truncate, corrupt-length, zero-fill).
struct FaultSchedule {
  std::uint64_t seed = 1;

  double drop_prob = 0.0;            // message silently vanishes
  double delay_prob = 0.0;           // message held for delay_ms first
  double truncate_prob = 0.0;        // message loses its tail
  double corrupt_length_prob = 0.0;  // a plausible-looking length goes huge
  double zero_fill_prob = 0.0;       // payload bytes flattened to zero

  double delay_ms = 1.0;

  /// Kill the rank when its (send+recv+barrier+agree) operation count
  /// reaches this value; 0 = never. Once reached, every subsequent
  /// operation also throws — a dead rank stays dead.
  std::uint64_t kill_at_op = 0;

  /// Escalate kill_at_op from a thrown KilledError to a real SIGKILL of the
  /// calling process — the honest form of "a node died", with no stack
  /// unwinding, no destructors, no chance to flush. Only honored when the
  /// inner transport reports process_isolated() (ProcComm); under a threaded
  /// backend a real SIGKILL would take down every rank plus the test runner,
  /// so it falls back to the thrown form.
  bool hard_kill = false;

  /// When true, mutations recompute a valid CRC32 frame header over the
  /// corrupted payload, so the damage penetrates the transport checksum and
  /// must be caught by the serialize layer's own bounds checks. Default
  /// false: the frame check catches it first.
  bool fix_crc = false;
};

/// Decorator injecting the schedule's faults into an inner endpoint.
/// Mutations apply on the send side (the wire eats the sender's bytes);
/// kills trigger on any operation.
class FaultyComm final : public Communicator {
 public:
  FaultyComm(Communicator& inner, FaultSchedule schedule);

  int rank() const override { return inner_->rank(); }
  int size() const override { return inner_->size(); }
  void send(int dest, int tag, std::span<const std::byte> data) override;
  std::vector<std::byte> recv(int src, int tag) override;
  void barrier() override;
  TrafficStats stats() const override { return inner_->stats(); }

  void set_timeout(double seconds) override;
  void set_probe(CommProbe* probe) override {
    // Kept locally too: a simulated kill fires before the inner op runs, so
    // the kill site fires the interrupted op's begin itself — the
    // thread-backend equivalent of SIGKILL evidence. Everything else is the
    // inner transport's to observe, so dropped messages are never seen
    // (matching TrafficStats, which also only counts real pushes).
    Communicator::set_probe(probe);
    inner_->set_probe(probe);
  }
  std::vector<int> failed_ranks() const override {
    return inner_->failed_ranks();
  }
  std::vector<int> agree_survivors() override;
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

  /// Operations performed so far (send/recv/barrier/agree).
  std::uint64_t ops() const { return ops_; }

 private:
  /// Counts the op and, if the kill step is reached, fires the interrupted
  /// op's probe begin (the in-flight evidence a real SIGKILL would leave)
  /// before killing the rank.
  void count_op_and_maybe_kill(CommProbe::Op op, int peer, int tag,
                               std::size_t bytes);

  Communicator* inner_;
  FaultSchedule schedule_;
  Rng rng_;
  std::uint64_t ops_ = 0;
};

}  // namespace keybin2::comm::fault
