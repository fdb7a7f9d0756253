// ThreadComm: an in-process group of ranks backed by threads.
//
// A Hub owns one mailbox per rank; a mailbox is a MessageStash (the
// transport-neutral (source, tag)-keyed FIFO store shared with ProcComm —
// see comm/mailbox.hpp) guarded by a mutex/condvar pair. send() enqueues
// into the destination's stash; recv() blocks on the destination's
// condition variable until a matching message is available. The barrier is
// a classic generation-counting central barrier.
//
// This gives the distributed KeyBin2 driver a faithful stand-in for MPI on a
// single node: real concurrency, real serialization, rank-private memory by
// convention (each rank only touches its own data slices). ProcComm
// (comm/proc_comm.hpp) is the same contract over real OS processes.
//
// Failure model (DESIGN.md §4b): the hub tracks per-rank status — live,
// failed (the rank's function threw), or departed (it returned normally).
// A blocked recv()/barrier() wakes and throws RankFailedError the moment any
// rank fails, naming the caller, the peer, the tag, and every dead rank with
// its reason; with a deadline set (Communicator::set_timeout) the same calls
// throw TimeoutError instead of waiting forever on a silently lost message.
// agree_survivors() is the ULFM-style recovery rendezvous: every live rank
// converges into it (blocked peers are woken with RecoveryError), and once
// all have arrived the hub snapshots the survivor set, purges every mailbox
// (no stale in-flight messages can leak into the retried protocol), and
// acknowledges the failures so the survivors' subsequent traffic is not
// disturbed by the already-handled deaths.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "comm/communicator.hpp"
#include "comm/mailbox.hpp"

namespace keybin2::comm {

class ThreadCommHub;

/// A rank's endpoint inside a ThreadCommHub. Create via ThreadCommHub::comm().
class ThreadComm final : public Communicator {
 public:
  int rank() const override { return rank_; }
  int size() const override;
  void send(int dest, int tag, std::span<const std::byte> data) override;
  std::vector<std::byte> recv(int src, int tag) override;
  void barrier() override;
  TrafficStats stats() const override;

  /// Returns the buffer to this rank's mailbox free list: the next message
  /// pushed at us reuses it instead of allocating.
  void recycle_buffer(std::vector<std::byte>&& buf) override;

  std::vector<int> failed_ranks() const override;
  std::vector<int> agree_survivors() override;

 private:
  friend class ThreadCommHub;
  ThreadComm(ThreadCommHub* hub, int rank) : hub_(hub), rank_(rank) {}

  ThreadCommHub* hub_;
  int rank_;
};

class ThreadCommHub {
 public:
  explicit ThreadCommHub(int size);

  int size() const { return static_cast<int>(mailboxes_.size()); }

  /// The communicator endpoint for `rank`. The hub must outlive it.
  ThreadComm comm(int rank);

  TrafficStats stats(int rank) const;

  /// Record that `rank`'s function threw: blocked and future recv()/barrier()
  /// calls on other ranks throw RankFailedError naming it (and its reason)
  /// instead of waiting on a dead rank, so one failure can never deadlock
  /// the group.
  void mark_failed(int rank, const std::string& reason);

  /// Record that `rank` returned normally and left the group. Departed ranks
  /// no longer count toward the survivor-agreement quorum, and a recv()
  /// blocked on one (after its pending messages drain) throws instead of
  /// hanging.
  void mark_departed(int rank);

  /// Ranks currently marked failed, ascending.
  std::vector<int> failed_ranks() const;

  /// Mark every rank failed (legacy whole-group abort — the moral
  /// equivalent of MPI_Abort). Kept for callers that want all-or-nothing
  /// semantics; per-rank mark_failed() is what run_ranks() uses.
  void poison(const std::string& reason);

 private:
  friend class ThreadComm;

  /// One rank's inbox: the shared stash structure plus this transport's
  /// thread synchronization around it.
  struct Mailbox {
    std::mutex mu;
    std::condition_variable cv;
    MessageStash stash;
  };

  /// Enqueue one message. When `probe` is non-null its on_send fires while
  /// the destination mailbox lock is still held, so the sender's timestamp
  /// happens-before any receiver can pop (and stamp) this message — the
  /// send->recv timestamp ordering the trace flow invariants rely on.
  void push(int src, int dest, int tag, std::span<const std::byte> data,
            CommProbe* probe);
  void recycle(int rank, std::vector<std::byte>&& buf);
  Message pop(int self, int src, int tag, double timeout_seconds);
  void barrier_wait(int self, double timeout_seconds);
  std::vector<int> agree_survivors(int self, double timeout_seconds);

  int live_count_locked() const;
  void maybe_finalize_shrink_locked();
  void wake_everyone();
  /// Compose and throw the RankFailedError for an operation `op` on
  /// (self, src, tag); takes state_mu_ itself.
  [[noreturn]] void throw_rank_failed(const char* op, int self, int src,
                                      int tag);

  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<TrafficStats> traffic_;
  mutable std::mutex traffic_mu_;
  std::atomic<std::uint64_t> next_flow_id_{1};

  // Lock order: state_mu_ before any Mailbox::mu; never the reverse.
  mutable std::mutex state_mu_;
  std::unique_ptr<std::atomic<RankState>[]> rank_state_;
  std::vector<std::string> fail_reasons_;
  /// Failed ranks not yet acknowledged by a completed survivor agreement;
  /// nonzero wakes every blocked operation.
  std::atomic<int> unacked_failures_{0};

  // Survivor agreement (guarded by state_mu_; the flag is atomic so mailbox
  // waits and send() can poll it).
  std::atomic<bool> shrink_pending_{false};
  std::condition_variable shrink_cv_;
  int shrink_arrived_ = 0;
  std::uint64_t shrink_generation_ = 0;
  std::vector<int> survivors_;  // snapshot of the last completed agreement

  // Barrier (guarded by state_mu_).
  std::condition_variable barrier_cv_;
  int barrier_count_ = 0;
  std::uint64_t barrier_generation_ = 0;
};

}  // namespace keybin2::comm
