#include "comm/thread_comm.hpp"

#include "common/error.hpp"
#include "common/timer.hpp"

namespace keybin2::comm {

ThreadCommHub::ThreadCommHub(int size) {
  KB2_CHECK_MSG(size >= 1, "hub size must be >= 1, got " << size);
  mailboxes_.reserve(static_cast<std::size_t>(size));
  for (int i = 0; i < size; ++i) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
  }
  traffic_.resize(static_cast<std::size_t>(size));
  rank_state_ =
      std::make_unique<std::atomic<RankState>[]>(static_cast<std::size_t>(size));
  for (int i = 0; i < size; ++i) rank_state_[i].store(RankState::kLive);
  fail_reasons_.resize(static_cast<std::size_t>(size));
}

ThreadComm ThreadCommHub::comm(int rank) {
  KB2_CHECK_MSG(rank >= 0 && rank < size(),
                "rank " << rank << " out of hub size " << size());
  return ThreadComm(this, rank);
}

TrafficStats ThreadCommHub::stats(int rank) const {
  std::lock_guard lk(traffic_mu_);
  return traffic_[static_cast<std::size_t>(rank)];
}

int ThreadCommHub::live_count_locked() const {
  int live = 0;
  for (int r = 0; r < size(); ++r) {
    if (rank_state_[r].load() == RankState::kLive) ++live;
  }
  return live;
}

void ThreadCommHub::wake_everyone() {
  for (auto& box : mailboxes_) {
    std::lock_guard lk(box->mu);
    box->cv.notify_all();
  }
}

void ThreadCommHub::throw_rank_failed(const char* op, int self, int peer,
                                      int tag) {
  std::string msg;
  {
    std::lock_guard lk(state_mu_);
    msg = rank_failed_message(
        op, self, peer, tag, size(),
        [&](int r) { return rank_state_[r].load(); },
        [&](int r) { return fail_reasons_[static_cast<std::size_t>(r)]; });
  }
  throw RankFailedError(msg);
}

void ThreadCommHub::mark_failed(int rank, const std::string& reason) {
  {
    std::lock_guard lk(state_mu_);
    if (rank_state_[rank].load() != RankState::kLive) return;
    rank_state_[rank].store(RankState::kFailed);
    fail_reasons_[static_cast<std::size_t>(rank)] = reason;
    unacked_failures_.fetch_add(1);
    // The dead rank will never arrive at a pending agreement; re-check the
    // quorum with it removed from the live count.
    maybe_finalize_shrink_locked();
    barrier_cv_.notify_all();
    shrink_cv_.notify_all();
  }
  wake_everyone();
}

void ThreadCommHub::mark_departed(int rank) {
  {
    std::lock_guard lk(state_mu_);
    if (rank_state_[rank].load() != RankState::kLive) return;
    rank_state_[rank].store(RankState::kDeparted);
    maybe_finalize_shrink_locked();
    barrier_cv_.notify_all();
    shrink_cv_.notify_all();
  }
  wake_everyone();
}

std::vector<int> ThreadCommHub::failed_ranks() const {
  std::lock_guard lk(state_mu_);
  std::vector<int> out;
  for (int r = 0; r < size(); ++r) {
    if (rank_state_[r].load() == RankState::kFailed) out.push_back(r);
  }
  return out;
}

void ThreadCommHub::poison(const std::string& reason) {
  for (int r = 0; r < size(); ++r) mark_failed(r, reason);
}

void ThreadCommHub::push(int src, int dest, int tag,
                         std::span<const std::byte> data, CommProbe* probe) {
  if (shrink_pending_.load()) {
    throw RecoveryError(abandoned_message(src, "send", dest, tag));
  }
  const auto dest_state = rank_state_[dest].load();
  if (dest_state == RankState::kFailed) {
    throw_rank_failed("send", src, dest, tag);
  }
  if (dest_state == RankState::kDeparted) {
    throw RankFailedError(send_departed_message(src, dest, tag));
  }

  const std::uint64_t flow_id =
      next_flow_id_.fetch_add(1, std::memory_order_relaxed);
  auto& box = *mailboxes_[static_cast<std::size_t>(dest)];
  {
    std::lock_guard lk(box.mu);
    // Reuse a recycled delivery buffer when one is available: the capacity
    // survives the pool round-trip, so steady-state collectives stop paying
    // one allocation per message.
    auto buf = box.stash.take_buffer();
    buf.assign(data.begin(), data.end());
    box.stash.push(src, tag, Message{std::move(buf), flow_id});
    if (probe != nullptr) {
      // Fire while the lock is held: the receiver cannot pop this message
      // until we release box.mu, so the send timestamp the probe records
      // precedes the matching recv timestamp on the shared clock. The depth
      // is every message parked in the destination mailbox — the backlog a
      // slow consumer is accumulating.
      probe->on_send(src, dest, tag, data.size(), flow_id,
                     box.stash.total_depth());
    }
  }
  box.cv.notify_all();
  {
    std::lock_guard lk(traffic_mu_);
    auto& t = traffic_[static_cast<std::size_t>(src)];
    ++t.messages_sent;
    t.bytes_sent += data.size();
  }
}

void ThreadCommHub::recycle(int rank, std::vector<std::byte>&& buf) {
  auto& box = *mailboxes_[static_cast<std::size_t>(rank)];
  std::lock_guard lk(box.mu);
  box.stash.recycle(std::move(buf));
}

Message ThreadCommHub::pop(int self, int src, int tag,
                           double timeout_seconds) {
  auto& box = *mailboxes_[static_cast<std::size_t>(self)];
  const auto start = CommClock::now();
  std::unique_lock lk(box.mu);

  for (;;) {
    const auto ready = [&] {
      if (shrink_pending_.load() || unacked_failures_.load() > 0 ||
          rank_state_[src].load() == RankState::kDeparted) {
        return true;
      }
      return box.stash.has_message(src, tag);
    };
    bool timed_out = false;
    if (timeout_seconds > 0.0) {
      timed_out =
          !box.cv.wait_until(lk, comm_deadline(start, timeout_seconds), ready);
    } else {
      box.cv.wait(lk, ready);
    }

    // Deliver pending messages even when the group is disturbed: in-flight
    // traffic drains; only block-forever is fatal.
    Message msg;
    if (box.stash.try_pop(src, tag, &msg)) {
      lk.unlock();
      {
        std::lock_guard tlk(traffic_mu_);
        auto& t = traffic_[static_cast<std::size_t>(self)];
        ++t.messages_received;
        t.bytes_received += msg.bytes.size();
      }
      return msg;
    }

    if (shrink_pending_.load()) {
      lk.unlock();
      throw RecoveryError(abandoned_message(self, "recv", src, tag));
    }
    if (unacked_failures_.load() > 0) {
      lk.unlock();
      throw_rank_failed("recv", self, src, tag);
    }
    if (rank_state_[src].load() == RankState::kDeparted) {
      lk.unlock();
      throw RankFailedError(recv_departed_message(self, src, tag));
    }
    if (timed_out) {
      lk.unlock();
      throw_recv_timeout(self, src, tag, comm_seconds_since(start));
    }
    // A disturbance was acknowledged between the wake-up and the checks
    // above (possible but rare); go back to waiting.
  }
}

void ThreadCommHub::barrier_wait(int self, double timeout_seconds) {
  const auto start = CommClock::now();
  std::unique_lock lk(state_mu_);
  if (shrink_pending_.load()) {
    lk.unlock();
    throw RecoveryError(abandoned_message(self, "barrier", -1, -1));
  }
  // The hub barrier is a full-group collective: once any rank is dead or
  // gone it can never complete, acknowledged failure or not. (Shrunken
  // groups synchronize through SubgroupComm::barrier instead.)
  if (live_count_locked() < size()) {
    lk.unlock();
    throw_rank_failed("barrier", self, /*peer=*/-1, /*tag=*/-1);
  }

  const auto my_generation = barrier_generation_;
  if (++barrier_count_ == size()) {
    barrier_count_ = 0;
    ++barrier_generation_;
    barrier_cv_.notify_all();
    return;
  }

  const auto woken = [&] {
    return barrier_generation_ != my_generation || shrink_pending_.load() ||
           unacked_failures_.load() > 0;
  };
  bool timed_out = false;
  if (timeout_seconds > 0.0) {
    timed_out = !barrier_cv_.wait_until(
        lk, comm_deadline(start, timeout_seconds), woken);
  } else {
    barrier_cv_.wait(lk, woken);
  }
  if (barrier_generation_ != my_generation) return;  // barrier completed

  --barrier_count_;  // withdraw so a later barrier is not miscounted
  if (shrink_pending_.load()) {
    lk.unlock();
    throw RecoveryError(abandoned_message(self, "barrier", -1, -1));
  }
  if (unacked_failures_.load() > 0) {
    lk.unlock();
    throw_rank_failed("barrier", self, /*peer=*/-1, /*tag=*/-1);
  }
  lk.unlock();
  KB2_CHECK_MSG(timed_out, "barrier woke without progress or failure");
  throw_barrier_timeout(self, comm_seconds_since(start));
}

void ThreadCommHub::maybe_finalize_shrink_locked() {
  if (!shrink_pending_.load()) return;
  if (shrink_arrived_ < live_count_locked()) return;
  // Every live rank is inside agree_survivors(): nobody can be mid-send, so
  // after the purge below the retried protocol starts from a clean slate.
  survivors_.clear();
  for (int r = 0; r < size(); ++r) {
    if (rank_state_[r].load() == RankState::kLive) survivors_.push_back(r);
  }
  for (auto& box : mailboxes_) {
    std::lock_guard blk(box->mu);
    box->stash.clear();
  }
  unacked_failures_.store(0);
  shrink_arrived_ = 0;
  barrier_count_ = 0;  // a rank that died inside a barrier never withdrew
  shrink_pending_.store(false);
  ++shrink_generation_;
  shrink_cv_.notify_all();
}

std::vector<int> ThreadCommHub::agree_survivors(int self,
                                                double timeout_seconds) {
  const auto start = CommClock::now();
  std::unique_lock lk(state_mu_);
  if (!shrink_pending_.load()) {
    shrink_pending_.store(true);
    // Wake every blocked operation so the other live ranks converge here.
    barrier_cv_.notify_all();
    lk.unlock();
    wake_everyone();
    lk.lock();
  }

  const auto my_generation = shrink_generation_;
  ++shrink_arrived_;
  maybe_finalize_shrink_locked();
  if (shrink_generation_ == my_generation) {
    const auto done = [&] { return shrink_generation_ != my_generation; };
    bool timed_out = false;
    if (timeout_seconds > 0.0) {
      timed_out = !shrink_cv_.wait_until(
          lk, comm_deadline(start, timeout_seconds), done);
    } else {
      shrink_cv_.wait(lk, done);
    }
    if (timed_out) {
      --shrink_arrived_;  // withdraw; a retry will re-arrive
      lk.unlock();
      throw_agree_timeout(self, comm_seconds_since(start));
    }
  }
  return survivors_;
}

int ThreadComm::size() const { return hub_->size(); }

void ThreadComm::send(int dest, int tag, std::span<const std::byte> data) {
  KB2_CHECK_MSG(dest >= 0 && dest < size(),
                "send dest " << dest << " out of group size " << size());
  // The begin fires before push() may throw; its completion is the on_send
  // push() fires once the message is enqueued.
  CommProbe* p = probe();
  if (p) p->on_begin(rank_, CommProbe::kSend, dest, tag, data.size());
  hub_->push(rank_, dest, tag, data, p);
}

std::vector<std::byte> ThreadComm::recv(int src, int tag) {
  KB2_CHECK_MSG(src >= 0 && src < size(),
                "recv src " << src << " out of group size " << size());
  CommProbe* p = probe();
  if (p) p->on_begin(rank_, CommProbe::kRecv, src, tag, 0);
  const std::int64_t t0 = now_ns();
  Message msg = hub_->pop(rank_, src, tag, timeout());
  if (p) {
    p->on_recv(rank_, src, tag, msg.bytes.size(), msg.flow_id, now_ns() - t0);
  }
  return std::move(msg.bytes);
}

void ThreadComm::barrier() {
  CommProbe* p = probe();
  if (p) p->on_begin(rank_, CommProbe::kBarrier, -1, -1, 0);
  const std::int64_t t0 = now_ns();
  hub_->barrier_wait(rank_, timeout());
  if (p) p->on_barrier(rank_, now_ns() - t0);
}

TrafficStats ThreadComm::stats() const { return hub_->stats(rank_); }

void ThreadComm::recycle_buffer(std::vector<std::byte>&& buf) {
  hub_->recycle(rank_, std::move(buf));
}

std::vector<int> ThreadComm::failed_ranks() const {
  return hub_->failed_ranks();
}

std::vector<int> ThreadComm::agree_survivors() {
  CommProbe* p = probe();
  if (p) p->on_begin(rank_, CommProbe::kAgree, -1, -1, 0);
  auto survivors = hub_->agree_survivors(rank_, timeout());
  if (p) p->on_agree(rank_, survivors.size());
  return survivors;
}

}  // namespace keybin2::comm
