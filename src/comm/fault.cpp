#include "comm/fault.hpp"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstring>
#include <sstream>
#include <thread>

#include "common/crc32.hpp"

namespace keybin2::comm::fault {

namespace {

/// Rewrite a framed message's CRC32 header so the mutated payload passes the
/// transport checksum (schedule.fix_crc mode). No-op on unframed tails.
void refresh_crc(std::vector<std::byte>& framed) {
  if (framed.size() < sizeof(std::uint32_t)) return;
  const std::span<const std::byte> payload(
      framed.data() + sizeof(std::uint32_t),
      framed.size() - sizeof(std::uint32_t));
  const std::uint32_t crc = crc32(payload);
  std::memcpy(framed.data(), &crc, sizeof(crc));
}

}  // namespace

FaultyComm::FaultyComm(Communicator& inner, FaultSchedule schedule)
    : inner_(&inner), schedule_(schedule),
      // Mix the rank in so identically-seeded schedules on different ranks
      // still draw independent fault streams.
      rng_(schedule.seed ^ (0x9e3779b97f4a7c15ULL *
                            (static_cast<std::uint64_t>(inner.rank()) + 1))) {
  Communicator::set_timeout(inner.timeout());
}

void FaultyComm::count_op_and_maybe_kill(CommProbe::Op op, int peer, int tag,
                                         std::size_t bytes) {
  ++ops_;
  if (schedule_.kill_at_op > 0 && ops_ >= schedule_.kill_at_op) {
    // Begin the op this kill interrupts so the black-box ring shows the
    // same unmatched begin a real mid-op SIGKILL would leave behind.
    if (CommProbe* p = probe()) p->on_begin(rank(), op, peer, tag, bytes);
#ifdef SIGKILL
    if (schedule_.hard_kill && inner_->process_isolated()) {
      // The honest node death: no unwinding, no destructors, no goodbye.
      // Only possible when this rank is a real OS process — the parent's
      // waitpid() turns the corpse into a RankFailedError for the peers.
      ::raise(SIGKILL);
    }
#endif
    std::ostringstream os;
    os << "rank " << inner_->rank() << " killed by fault schedule at op "
       << ops_ << " (kill_at_op=" << schedule_.kill_at_op << ")";
    throw KilledError(os.str());
  }
}

void FaultyComm::send(int dest, int tag, std::span<const std::byte> data) {
  count_op_and_maybe_kill(CommProbe::kSend, dest, tag, data.size());

  if (schedule_.drop_prob > 0.0 && rng_.uniform() < schedule_.drop_prob) {
    return;  // the wire ate it
  }
  if (schedule_.delay_prob > 0.0 && rng_.uniform() < schedule_.delay_prob) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(schedule_.delay_ms));
    inner_->send(dest, tag, data);
    return;
  }
  if (schedule_.truncate_prob > 0.0 &&
      rng_.uniform() < schedule_.truncate_prob && !data.empty()) {
    std::vector<std::byte> cut(data.begin(),
                               data.begin() + static_cast<std::ptrdiff_t>(
                                                  data.size() / 2));
    if (schedule_.fix_crc) refresh_crc(cut);
    inner_->send(dest, tag, cut);
    return;
  }
  if (schedule_.corrupt_length_prob > 0.0 &&
      rng_.uniform() < schedule_.corrupt_length_prob &&
      data.size() >= sizeof(std::uint32_t) + sizeof(std::uint64_t)) {
    // Overwrite the first 8 payload bytes — where ByteWriter puts a length
    // prefix — with a huge value that still "parses".
    std::vector<std::byte> mutated(data.begin(), data.end());
    const std::uint64_t huge = 0x7fffffffffffffffULL;
    std::memcpy(mutated.data() + sizeof(std::uint32_t), &huge, sizeof(huge));
    if (schedule_.fix_crc) refresh_crc(mutated);
    inner_->send(dest, tag, mutated);
    return;
  }
  if (schedule_.zero_fill_prob > 0.0 &&
      rng_.uniform() < schedule_.zero_fill_prob && !data.empty()) {
    std::vector<std::byte> zeroed(data.size(), std::byte{0});
    if (schedule_.fix_crc) refresh_crc(zeroed);
    inner_->send(dest, tag, zeroed);
    return;
  }
  inner_->send(dest, tag, data);
}

std::vector<std::byte> FaultyComm::recv(int src, int tag) {
  count_op_and_maybe_kill(CommProbe::kRecv, src, tag, 0);
  return inner_->recv(src, tag);
}

void FaultyComm::barrier() {
  count_op_and_maybe_kill(CommProbe::kBarrier, -1, -1, 0);
  inner_->barrier();
}

void FaultyComm::set_timeout(double seconds) {
  Communicator::set_timeout(seconds);
  inner_->set_timeout(seconds);
}

std::vector<int> FaultyComm::agree_survivors() {
  // A rank past its kill step must not sneak back in through recovery.
  count_op_and_maybe_kill(CommProbe::kAgree, -1, -1, 0);
  return inner_->agree_survivors();
}

}  // namespace keybin2::comm::fault
