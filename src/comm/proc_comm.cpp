#include "comm/proc_comm.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>

#include "comm/fault.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"

#ifdef __linux__
#include <dirent.h>
#include <fcntl.h>
#include <linux/futex.h>
#include <poll.h>
#include <pthread.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace keybin2::comm {

#ifdef __linux__

namespace detail {

// The packed-word tricks below (futex on the high half of a 64-bit word)
// assume little-endian layout; every target this backend supports is.
static_assert(std::endian::native == std::endian::little,
              "ProcComm's packed futex words assume little-endian layout");

namespace {

constexpr std::uint64_t kDefaultRingBytes = 1 << 20;  // 1 MiB per (src, dest)
constexpr int kMaxProcRanks = 64;  // survivors travel as one 64-bit mask
constexpr std::uint32_t kShrinkPendingBit = 0x8000'0000u;
constexpr std::uint32_t kFrameSpilled = 1u;  // flags bit: payload is a path
constexpr long kWaitSliceMs = 50;  // bounded futex slice: lost wakeups cannot hang

// Child -> parent error report kinds (result-pipe protocol).
enum : std::uint32_t {
  kErrTimeout = 1,
  kErrRankFailed = 2,
  kErrRecovery = 3,
  kErrCorrupt = 4,
  kErrComm = 5,
  kErrKilled = 6,
  kErrPlain = 7,
  kErrUnknown = 8,
  kErrFitAborted = 9,
};

constexpr std::uint64_t align8(std::uint64_t n) { return (n + 7) & ~7ull; }
constexpr std::uint32_t lo32(std::uint64_t w) {
  return static_cast<std::uint32_t>(w);
}
constexpr std::uint32_t hi32(std::uint64_t w) {
  return static_cast<std::uint32_t>(w >> 32);
}
constexpr std::uint64_t pack64(std::uint32_t hi, std::uint32_t lo) {
  return (static_cast<std::uint64_t>(hi) << 32) | lo;
}

}  // namespace

/// On-wire frame header inside a ring. The payload follows, padded to 8
/// bytes. A spilled frame (flags & kFrameSpilled) carries the spill-file
/// path as its payload instead of the data.
struct FrameHeader {
  std::uint64_t size;  // payload bytes that follow this header
  std::uint64_t flow_id;
  std::uint32_t tag;
  std::uint32_t flags;
};
static_assert(sizeof(FrameHeader) == 24);
static_assert(std::is_trivially_copyable_v<FrameHeader>);

/// One rank's slot in the shared lifecycle/traffic table. Writers: the rank
/// itself (reporting its own exit) or the parent (reporting a signal death
/// after waitpid — by which point the rank has no writer left alive). The
/// reason text is published before the state flips from kLive (release), so
/// any reader that observes a dead state (acquire) sees the full reason.
struct alignas(64) PerRank {
  std::atomic<std::uint8_t> state;        // RankState
  /// Set by whoever marks this rank failed while respawn budget remains:
  /// the parent supervisor owes this slot a replacement fork. Cleared when
  /// the respawn happens or is cancelled (flap).
  std::atomic<std::uint8_t> respawn_reserved;
  std::atomic<std::uint32_t> reason_kind; // kErr* of the recorded failure
  std::atomic<std::uint32_t> reason_len;
  /// Times this slot has been respawned; the original child reads 0.
  /// Bumped by the parent before the slot flips back to kLive.
  std::atomic<std::uint32_t> incarnation;
  std::atomic<std::uint64_t> messages_sent;
  std::atomic<std::uint64_t> bytes_sent;
  std::atomic<std::uint64_t> messages_received;
  std::atomic<std::uint64_t> bytes_received;
  char reason[208];
};
static_assert(sizeof(PerRank) == 256);

/// Cursors of one SPSC byte ring. Exactly one producer process (src) and one
/// consumer process (dest); head/tail are free-running byte counts, so
/// (head - tail) is the fill and wraparound needs no special case.
struct alignas(64) RingHeader {
  std::atomic<std::uint64_t> head;      // bytes ever published (producer)
  std::atomic<std::uint64_t> tail;      // bytes ever consumed (consumer)
  std::atomic<std::uint32_t> data_seq;  // bumped + woken on publish
  std::atomic<std::uint32_t> space_seq; // bumped + woken on consume
  std::atomic<std::uint32_t> msg_count; // frames currently parked (advisory)
};
static_assert(sizeof(RingHeader) == 64);

struct alignas(64) GroupHeader {
  std::uint32_t size = 0;
  std::uint64_t ring_bytes = 0;
  std::atomic<std::uint64_t> next_flow_id{1};
  /// Failures not yet acknowledged by a completed survivor agreement;
  /// nonzero makes every blocked operation throw RankFailedError.
  std::atomic<std::int32_t> unacked_failures{0};
  /// Central barrier, packed {high: generation, low: arrivals}. Waiters
  /// futex on the generation half; the size-th arriver bumps it.
  std::atomic<std::uint64_t> barrier_word{0};
  /// Survivor agreement, packed {high: generation, low: arrivals |
  /// kShrinkPendingBit}. The pending bit is what send/recv poll to learn a
  /// recovery rendezvous is in progress.
  std::atomic<std::uint64_t> shrink_word{0};
  /// Bit r set = rank r survived the last completed agreement. Written
  /// before the shrink generation bump (release) by whoever finalizes.
  std::atomic<std::uint64_t> survivors_mask{0};
  /// Respawn ladder (comm/recovery.hpp). `respawn_budget` is decremented by
  /// whoever marks a live rank failed, reserving one replacement fork;
  /// `respawn_pending` counts reservations the parent has not yet resolved.
  /// A nonzero pending count holds the survivor agreement open
  /// (try_finalize_shrink refuses quorum) so the survivors wait for the
  /// regrown full-width group instead of shrinking around a rank that is
  /// about to come back.
  std::atomic<std::int32_t> respawn_budget{0};
  std::atomic<std::int32_t> respawn_pending{0};
  std::atomic<std::uint32_t> respawns_total{0};
  std::atomic<std::uint32_t> regrow_epochs{0};
  /// Held by the one caller that checks a pending agreement's quorum and
  /// finalizes it (try_finalize_shrink). Process-shared and robust: a
  /// holder killed mid-finalize passes the lock to the next caller.
  pthread_mutex_t finalize_mu;
  char spill_dir[256] = {};
};

/// The parent-constructed view of the mapped segment. Plain pointers into a
/// MAP_SHARED region: fork preserves the mapping at the same addresses, so
/// children inherit a valid copy of this struct by value.
struct ProcShared {
  GroupHeader* hdr = nullptr;
  PerRank* ranks = nullptr;
  char* rings = nullptr;       // size*size ring slots, row-major by src
  std::uint64_t ring_slot = 0; // sizeof(RingHeader) + ring_bytes
  int size = 0;

  RingHeader* ring(int src, int dest) const {
    return reinterpret_cast<RingHeader*>(
        rings + (static_cast<std::uint64_t>(src) * size + dest) * ring_slot);
  }
  char* ring_data(RingHeader* r) const {
    return reinterpret_cast<char*>(r) + sizeof(RingHeader);
  }
  RankState state_of(int r) const {
    return static_cast<RankState>(
        ranks[r].state.load(std::memory_order_acquire));
  }
  bool shrink_pending() const {
    return (lo32(hdr->shrink_word.load(std::memory_order_acquire)) &
            kShrinkPendingBit) != 0;
  }
};

namespace {

// ---- futex (shared form: no PRIVATE flag — waiters live in other processes) ----

long sys_futex(std::atomic<std::uint32_t>* addr, int op, std::uint32_t val,
               const timespec* timeout) {
  return syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(addr), op, val,
                 timeout, nullptr, 0);
}

void futex_wake_all(std::atomic<std::uint32_t>* addr) {
  sys_futex(addr, FUTEX_WAKE, INT_MAX, nullptr);
}

/// Sleep until `*addr != expected`, a wake, or the slice elapses. Callers
/// always re-check their predicate: the slice bounds the cost of any wakeup
/// this backend might lose (e.g. parent marking a death between our load and
/// our wait).
void futex_wait_slice(std::atomic<std::uint32_t>* addr, std::uint32_t expected,
                      long slice_ms) {
  timespec ts{slice_ms / 1000, (slice_ms % 1000) * 1'000'000L};
  sys_futex(addr, FUTEX_WAIT, expected, &ts);
}

/// The futex word for the generation half of a packed {high: gen, low:
/// count} word (little-endian: high half sits at byte offset 4).
std::atomic<std::uint32_t>* gen_half(std::atomic<std::uint64_t>* word) {
  return reinterpret_cast<std::atomic<std::uint32_t>*>(
      reinterpret_cast<char*>(word) + 4);
}

// ---- ring byte movement (free-running cursors, modulo the capacity) ----

void ring_write(const ProcShared& g, RingHeader* r, std::uint64_t pos,
                const void* src, std::size_t n) {
  char* data = g.ring_data(r);
  const std::uint64_t cap = g.hdr->ring_bytes;
  const std::size_t off = static_cast<std::size_t>(pos % cap);
  const std::size_t first = std::min(n, static_cast<std::size_t>(cap) - off);
  std::memcpy(data + off, src, first);
  std::memcpy(data, static_cast<const char*>(src) + first, n - first);
}

void ring_read(const ProcShared& g, RingHeader* r, std::uint64_t pos, void* dst,
               std::size_t n) {
  const char* data = g.ring_data(r);
  const std::uint64_t cap = g.hdr->ring_bytes;
  const std::size_t off = static_cast<std::size_t>(pos % cap);
  const std::size_t first = std::min(n, static_cast<std::size_t>(cap) - off);
  std::memcpy(dst, data + off, first);
  std::memcpy(static_cast<char*>(dst) + first, data, n - first);
}

// ---- spill files (payloads too large for half a ring) ----

std::string spill_path(const ProcShared& g, int src, std::uint64_t flow_id) {
  return std::string(g.hdr->spill_dir) + "/f" + std::to_string(flow_id) + "." +
         std::to_string(src);
}

void write_spill(const std::string& path, std::span<const std::byte> data) {
  const int fd = ::open(path.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0600);
  KB2_CHECK_MSG(fd >= 0, "ProcComm: cannot create spill file " << path);
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      ::close(fd);
      ::unlink(path.c_str());
      throw Error("ProcComm: short write to spill file " + path);
    }
    done += static_cast<std::size_t>(n);
  }
  ::close(fd);
}

std::vector<std::byte> read_and_unlink_spill(const std::string& path,
                                             std::vector<std::byte>&& buf) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  KB2_CHECK_MSG(fd >= 0, "ProcComm: missing spill file " << path);
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw Error("ProcComm: cannot stat spill file " + path);
  }
  buf.resize(static_cast<std::size_t>(st.st_size));
  std::size_t done = 0;
  while (done < buf.size()) {
    const ssize_t n = ::read(fd, buf.data() + done, buf.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      ::close(fd);
      throw Error("ProcComm: short read from spill file " + path);
    }
    done += static_cast<std::size_t>(n);
  }
  ::close(fd);
  ::unlink(path.c_str());
  return std::move(buf);
}

// ---- group-wide wakeups and failure marking ----

void wake_group(const ProcShared& g) {
  for (int s = 0; s < g.size; ++s) {
    for (int d = 0; d < g.size; ++d) {
      RingHeader* r = g.ring(s, d);
      futex_wake_all(&r->data_seq);
      futex_wake_all(&r->space_seq);
    }
  }
  futex_wake_all(gen_half(&g.hdr->barrier_word));
  futex_wake_all(gen_half(&g.hdr->shrink_word));
}

/// Drop every frame parked in every ring. Walks the frames rather than just
/// snapping tail to head so that spilled payloads are unlinked along with
/// the ring bytes that referenced them — otherwise an abandoned protocol
/// leaks one file per in-flight oversized frame. Only safe when no rank is
/// mid-send/mid-recv (the finalize rendezvous guarantees that).
void purge_rings(const ProcShared& g) {
  for (int s = 0; s < g.size; ++s) {
    for (int d = 0; d < g.size; ++d) {
      RingHeader* r = g.ring(s, d);
      std::uint64_t tail = r->tail.load(std::memory_order_acquire);
      const std::uint64_t head = r->head.load(std::memory_order_acquire);
      while (tail != head) {
        FrameHeader fh{};
        ring_read(g, r, tail, &fh, sizeof(fh));
        if ((fh.flags & kFrameSpilled) != 0) {
          std::string path(static_cast<std::size_t>(fh.size), '\0');
          ring_read(g, r, tail + sizeof(fh), path.data(), path.size());
          ::unlink(path.c_str());
        }
        tail += align8(sizeof(fh) + fh.size);
      }
      // The finalizer's process writes each ring's consumer-owned cursor
      // here. That is safe: every live consumer is parked in
      // agree_survivors() until the generation bump after this purge, and a
      // reserved respawn holds the agreement open through respawn_pending,
      // so no replacement consumer can read the ring before the purge ends.
      r->tail.store(head, std::memory_order_release);
      r->msg_count.store(0, std::memory_order_relaxed);
    }
  }
}

/// Unlink every spill file rank `src` wrote (names end in ".<src>"): a rank
/// killed between writing a spill file and publishing the ring frame that
/// references it leaves a file nothing will ever read. Called during
/// finalize for each dead rank, when nobody can still be consuming from it.
void sweep_rank_spills(const ProcShared& g, int src) {
  DIR* d = ::opendir(g.hdr->spill_dir);
  if (d == nullptr) return;
  const std::string suffix = "." + std::to_string(src);
  while (dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      ::unlink((std::string(g.hdr->spill_dir) + "/" + name).c_str());
    }
  }
  ::closedir(d);
}

/// Try-lock on GroupHeader::finalize_mu; owns() is false when another
/// process holds it.
class FinalizeLock {
 public:
  explicit FinalizeLock(pthread_mutex_t* mu) : mu_(mu) {
    int rc = ::pthread_mutex_trylock(mu_);
    if (rc == EOWNERDEAD) rc = ::pthread_mutex_consistent(mu_);
    owns_ = rc == 0;
  }
  ~FinalizeLock() {
    if (owns_) ::pthread_mutex_unlock(mu_);
  }
  FinalizeLock(const FinalizeLock&) = delete;
  FinalizeLock& operator=(const FinalizeLock&) = delete;

  bool owns() const { return owns_; }

 private:
  pthread_mutex_t* mu_;
  bool owns_ = false;
};

/// Complete a pending survivor agreement if every live rank has arrived.
/// Runs in whichever process notices quorum — the last arriver or the parent
/// after marking a death. The survivor snapshot, the purge, and the
/// acknowledgement all happen *before* the generation bump that releases the
/// waiters (every live rank is parked inside agree_survivors() at that
/// point, so nothing is mid-send during the purge). One caller at a time
/// checks and finalizes: a second caller that saw the same quorum would
/// purge the rings and reset the barrier after the first one's bump had
/// released the survivors, erasing their first frames. A caller that finds
/// the lock held returns; the waiters re-check on their next wait slice.
void try_finalize_shrink(const ProcShared& g) {
  if ((lo32(g.hdr->shrink_word.load(std::memory_order_acquire)) &
       kShrinkPendingBit) == 0) {
    return;
  }
  FinalizeLock lock(&g.hdr->finalize_mu);
  if (!lock.owns()) return;
  for (;;) {
    std::uint64_t w = g.hdr->shrink_word.load(std::memory_order_acquire);
    if ((lo32(w) & kShrinkPendingBit) == 0) return;
    // A reserved-but-unresolved respawn holds the agreement open: the dead
    // slot will flip back to kLive and its replacement must be counted in
    // the quorum, or the survivors would finalize a shrink around a rank
    // that is about to rejoin.
    if (g.hdr->respawn_pending.load(std::memory_order_acquire) > 0) return;
    std::uint64_t mask = 0;
    int live = 0;
    bool has_respawned_member = false;
    for (int r = 0; r < g.size; ++r) {
      if (g.state_of(r) == RankState::kLive) {
        mask |= 1ull << r;
        ++live;
        if (g.ranks[r].incarnation.load(std::memory_order_acquire) > 0) {
          has_respawned_member = true;
        }
      }
    }
    const std::uint32_t arrived = lo32(w) & ~kShrinkPendingBit;
    if (static_cast<int>(arrived) < live) return;
    // A regrow epoch: the agreed group is wider than the last agreement
    // (or this is the first agreement and a replacement incarnation is
    // already among the members) — a respawned rank made it back.
    const std::uint64_t prev =
        g.hdr->survivors_mask.load(std::memory_order_relaxed);
    const bool regrew = (prev != 0 && (mask & ~prev) != 0) ||
                        (prev == 0 && has_respawned_member);
    if (regrew) g.hdr->regrow_epochs.fetch_add(1, std::memory_order_relaxed);
    g.hdr->survivors_mask.store(mask, std::memory_order_release);
    purge_rings(g);
    for (int r = 0; r < g.size; ++r) {
      if (g.state_of(r) == RankState::kFailed) sweep_rank_spills(g, r);
    }
    g.hdr->unacked_failures.store(0, std::memory_order_release);
    // A rank that died inside the barrier never withdrew its arrival; reset
    // the count (nobody is mid-barrier — see above).
    const std::uint64_t bw = g.hdr->barrier_word.load(std::memory_order_relaxed);
    g.hdr->barrier_word.store(pack64(hi32(bw), 0), std::memory_order_relaxed);
    if (g.hdr->shrink_word.compare_exchange_weak(w, pack64(hi32(w) + 1, 0),
                                                 std::memory_order_acq_rel)) {
      futex_wake_all(gen_half(&g.hdr->shrink_word));
      return;
    }
    // An arrival or withdrawal raced the bump; re-evaluate the quorum.
  }
}

/// Record a dead rank in the shared table. `expected` is the state the rank
/// must still be in (its writer is gone, so no store can race this). Returns
/// false when the rank already recorded its own exit.
bool mark_failed_in_shared(const ProcShared& g, int rank,
                           const std::string& reason, std::uint32_t kind,
                           RankState expected = RankState::kLive) {
  PerRank& p = g.ranks[rank];
  if (p.state.load(std::memory_order_acquire) !=
      static_cast<std::uint8_t>(expected)) {
    return false;
  }
  if (expected == RankState::kLive) {
    // Reserve a respawn while budget remains — atomically with publishing
    // the failure, so no observer can finalize a shrink in the window
    // between "rank died" and "a replacement is owed". A kDeparted rank
    // (finished, result lost) is never respawned: its work is done.
    std::int32_t budget =
        g.hdr->respawn_budget.load(std::memory_order_acquire);
    while (budget > 0 && !g.hdr->respawn_budget.compare_exchange_weak(
                             budget, budget - 1, std::memory_order_acq_rel)) {
    }
    if (budget > 0) {
      p.respawn_reserved.store(1, std::memory_order_relaxed);
      g.hdr->respawn_pending.fetch_add(1, std::memory_order_acq_rel);
    }
  }
  const std::size_t n = std::min(reason.size(), sizeof(p.reason));
  std::memcpy(p.reason, reason.data(), n);
  p.reason_len.store(static_cast<std::uint32_t>(n), std::memory_order_relaxed);
  p.reason_kind.store(kind, std::memory_order_relaxed);
  p.state.store(static_cast<std::uint8_t>(RankState::kFailed),
                std::memory_order_release);
  g.hdr->unacked_failures.fetch_add(1, std::memory_order_acq_rel);
  try_finalize_shrink(g);
  wake_group(g);
  return true;
}

std::string read_reason(const ProcShared& g, int r) {
  const PerRank& p = g.ranks[r];
  const std::uint32_t n =
      std::min<std::uint32_t>(p.reason_len.load(std::memory_order_acquire),
                              sizeof(p.reason));
  return std::string(p.reason, n);
}

}  // namespace
}  // namespace detail

using detail::ProcShared;

// ---- ProcComm: the per-rank endpoint (runs inside a forked child) ----

ProcComm::ProcComm(detail::ProcShared* shared, int rank)
    : g_(shared), rank_(rank) {}

int ProcComm::size() const { return g_->size; }

void ProcComm::throw_rank_failed(const char* op, int self, int peer, int tag) {
  throw RankFailedError(rank_failed_message(
      op, self, peer, tag, size(), [&](int r) { return g_->state_of(r); },
      [&](int r) { return detail::read_reason(*g_, r); }));
}

void ProcComm::drain_rings() {
  for (int src = 0; src < g_->size; ++src) {
    if (src == rank_) continue;
    detail::RingHeader* r = g_->ring(src, rank_);
    for (;;) {
      // Sole consumer of this ring: tail is ours, head is the producer's.
      const std::uint64_t tail = r->tail.load(std::memory_order_relaxed);
      const std::uint64_t head = r->head.load(std::memory_order_acquire);
      if (head == tail) break;
      detail::FrameHeader fh{};
      detail::ring_read(*g_, r, tail, &fh, sizeof(fh));
      auto buf = stash_.take_buffer();
      buf.resize(static_cast<std::size_t>(fh.size));
      detail::ring_read(*g_, r, tail + sizeof(fh), buf.data(), buf.size());
      r->tail.store(tail + detail::align8(sizeof(fh) + fh.size),
                    std::memory_order_release);
      if (r->msg_count.load(std::memory_order_relaxed) > 0) {
        r->msg_count.fetch_sub(1, std::memory_order_relaxed);
      }
      r->space_seq.fetch_add(1, std::memory_order_release);
      detail::futex_wake_all(&r->space_seq);
      if ((fh.flags & detail::kFrameSpilled) != 0) {
        const std::string path(reinterpret_cast<const char*>(buf.data()),
                               buf.size());
        buf = detail::read_and_unlink_spill(path, std::move(buf));
      }
      stash_.push(src, static_cast<int>(fh.tag),
                  Message{std::move(buf), fh.flow_id});
    }
  }
}

void ProcComm::send(int dest, int tag, std::span<const std::byte> data) {
  KB2_CHECK_MSG(dest >= 0 && dest < size(),
                "send dest " << dest << " out of group size " << size());
  // The begin fires before any throw or blocking wait; the completion only
  // once the frame is committed, so a SIGKILL inside the ring-full wait (or
  // a thrown abandonment) leaves the unmatched begin the post-mortem reads.
  CommProbe* p = probe();
  if (p) p->on_begin(rank_, CommProbe::kSend, dest, tag, data.size());
  if (g_->shrink_pending()) {
    throw RecoveryError(abandoned_message(rank_, "send", dest, tag));
  }
  const RankState dest_state = g_->state_of(dest);
  if (dest_state == RankState::kFailed) {
    throw_rank_failed("send", rank_, dest, tag);
  }
  if (dest_state == RankState::kDeparted) {
    throw RankFailedError(send_departed_message(rank_, dest, tag));
  }

  const std::uint64_t flow_id =
      g_->hdr->next_flow_id.fetch_add(1, std::memory_order_relaxed);
  detail::FrameHeader fh{};
  fh.flow_id = flow_id;
  fh.tag = static_cast<std::uint32_t>(tag);

  // Oversized payloads travel through a spill file: the ring carries only
  // the path, so no payload size can exceed (and thus deadlock) a ring.
  std::string spill;
  std::span<const std::byte> wire = data;
  if (detail::align8(sizeof(fh) + data.size()) > g_->hdr->ring_bytes / 2) {
    spill = detail::spill_path(*g_, rank_, flow_id);
    detail::write_spill(spill, data);
    fh.flags |= detail::kFrameSpilled;
    wire = std::span<const std::byte>(
        reinterpret_cast<const std::byte*>(spill.data()), spill.size());
  }
  fh.size = wire.size();
  const std::uint64_t need = detail::align8(sizeof(fh) + wire.size());

  detail::RingHeader* r = g_->ring(rank_, dest);
  const auto start = CommClock::now();
  const double tmo = timeout();
  for (;;) {
    // Sole producer of this ring: head is ours, tail is the consumer's.
    const std::uint64_t head = r->head.load(std::memory_order_relaxed);
    const std::uint64_t tail = r->tail.load(std::memory_order_acquire);
    if (g_->hdr->ring_bytes - (head - tail) >= need) {
      detail::ring_write(*g_, r, head, &fh, sizeof(fh));
      detail::ring_write(*g_, r, head + sizeof(fh), wire.data(), wire.size());
      if (p) {
        // Fire before the head publish below: the receiver cannot observe
        // this frame until the store, so the send timestamp precedes the
        // matching recv timestamp on the shared clock. Depth = frames
        // currently in flight toward dest, plus this one.
        std::size_t depth = 1;
        for (int s = 0; s < g_->size; ++s) {
          depth += g_->ring(s, dest)->msg_count.load(std::memory_order_relaxed);
        }
        p->on_send(rank_, dest, tag, data.size(), flow_id, depth);
      }
      r->head.store(head + need, std::memory_order_release);
      r->msg_count.fetch_add(1, std::memory_order_relaxed);
      r->data_seq.fetch_add(1, std::memory_order_release);
      detail::futex_wake_all(&r->data_seq);
      detail::PerRank& me = g_->ranks[rank_];
      me.messages_sent.fetch_add(1, std::memory_order_relaxed);
      me.bytes_sent.fetch_add(data.size(), std::memory_order_relaxed);
      return;
    }

    // Ring full: drain our own inbox while we wait (two ranks flooding each
    // other must not deadlock on two full rings), re-check the group state,
    // then sleep a bounded slice on the consumer's progress word.
    drain_rings();
    if (g_->shrink_pending()) {
      if (!spill.empty()) ::unlink(spill.c_str());
      throw RecoveryError(abandoned_message(rank_, "send", dest, tag));
    }
    if (g_->state_of(dest) != RankState::kLive) {
      if (!spill.empty()) ::unlink(spill.c_str());
      throw_rank_failed("send", rank_, dest, tag);
    }
    if (tmo > 0.0 && CommClock::now() >= comm_deadline(start, tmo)) {
      if (!spill.empty()) ::unlink(spill.c_str());
      throw TimeoutError("rank " + std::to_string(rank_) + " send(peer=" +
                             std::to_string(dest) + ", tag=" +
                             std::to_string(tag) + ") timed out after " +
                             std::to_string(comm_seconds_since(start)) + "s",
                         rank_, dest, tag, comm_seconds_since(start));
    }
    const std::uint32_t seq = r->space_seq.load(std::memory_order_acquire);
    if (g_->hdr->ring_bytes - (r->head.load(std::memory_order_relaxed) -
                               r->tail.load(std::memory_order_acquire)) >=
        need) {
      continue;  // consumer advanced between the check and the wait
    }
    detail::futex_wait_slice(&r->space_seq, seq, detail::kWaitSliceMs);
  }
}

std::vector<std::byte> ProcComm::recv(int src, int tag) {
  KB2_CHECK_MSG(src >= 0 && src < size(),
                "recv src " << src << " out of group size " << size());
  CommProbe* p = probe();
  if (p) p->on_begin(rank_, CommProbe::kRecv, src, tag, 0);
  const auto start = CommClock::now();
  const std::int64_t t0 = now_ns();
  const double tmo = timeout();
  detail::RingHeader* r = g_->ring(src, rank_);
  bool drained_after_departure = false;
  for (;;) {
    drain_rings();
    Message msg;
    if (stash_.try_pop(src, tag, &msg)) {
      detail::PerRank& me = g_->ranks[rank_];
      me.messages_received.fetch_add(1, std::memory_order_relaxed);
      me.bytes_received.fetch_add(msg.bytes.size(), std::memory_order_relaxed);
      if (p) {
        p->on_recv(rank_, src, tag, msg.bytes.size(), msg.flow_id,
                   now_ns() - t0);
      }
      return std::move(msg.bytes);
    }
    // Same precedence as ThreadComm's pop: deliver if possible (above), then
    // recovery rendezvous, then unacknowledged failures, then a departed
    // source, then the deadline.
    if (g_->shrink_pending()) {
      throw RecoveryError(abandoned_message(rank_, "recv", src, tag));
    }
    if (g_->hdr->unacked_failures.load(std::memory_order_acquire) > 0) {
      throw_rank_failed("recv", rank_, src, tag);
    }
    if (g_->state_of(src) == RankState::kDeparted) {
      // A rank stores kDeparted after publishing its last frame, so the
      // drain above may have run before that frame landed: drain once more
      // after seeing the departure before declaring the message lost.
      if (!drained_after_departure) {
        drained_after_departure = true;
        continue;
      }
      throw RankFailedError(recv_departed_message(rank_, src, tag));
    }
    if (tmo > 0.0 && CommClock::now() >= comm_deadline(start, tmo)) {
      throw_recv_timeout(rank_, src, tag, comm_seconds_since(start));
    }
    const std::uint32_t seq = r->data_seq.load(std::memory_order_acquire);
    if (r->head.load(std::memory_order_acquire) !=
        r->tail.load(std::memory_order_relaxed)) {
      continue;  // a frame landed between the drain and the wait
    }
    detail::futex_wait_slice(&r->data_seq, seq, detail::kWaitSliceMs);
  }
}

void ProcComm::barrier() {
  const auto start = CommClock::now();
  const std::int64_t t0 = now_ns();
  const double tmo = timeout();
  // on_barrier fires only on completion; an abandoned barrier leaves the
  // unmatched begin as evidence of where the rank was parked.
  CommProbe* p = probe();
  if (p) p->on_begin(rank_, CommProbe::kBarrier, -1, -1, 0);
  if (g_->shrink_pending()) {
    throw RecoveryError(abandoned_message(rank_, "barrier", -1, -1));
  }
  // Full-group collective: once any rank is dead or gone it can never
  // complete (shrunken groups synchronize through SubgroupComm::barrier).
  for (int r = 0; r < size(); ++r) {
    if (g_->state_of(r) != RankState::kLive) {
      throw_rank_failed("barrier", rank_, /*peer=*/-1, /*tag=*/-1);
    }
  }

  std::atomic<std::uint64_t>& bw = g_->hdr->barrier_word;
  std::uint64_t w = bw.load(std::memory_order_acquire);
  std::uint32_t my_generation;
  for (;;) {
    my_generation = detail::hi32(w);
    const std::uint32_t count = detail::lo32(w);
    if (static_cast<int>(count) + 1 == size()) {
      // Last arriver: release the generation and wake the waiters.
      if (bw.compare_exchange_weak(w, detail::pack64(my_generation + 1, 0),
                                   std::memory_order_acq_rel)) {
        detail::futex_wake_all(detail::gen_half(&bw));
        if (p) p->on_barrier(rank_, now_ns() - t0);
        return;
      }
    } else if (bw.compare_exchange_weak(
                   w, detail::pack64(my_generation, count + 1),
                   std::memory_order_acq_rel)) {
      break;
    }
  }

  const auto withdraw = [&]() -> bool {
    // Undo our arrival so a later barrier is not miscounted; fails (returns
    // false) when the barrier completed while we were trying.
    std::uint64_t cur = bw.load(std::memory_order_acquire);
    for (;;) {
      if (detail::hi32(cur) != my_generation) return false;
      if (bw.compare_exchange_weak(
              cur,
              detail::pack64(my_generation, detail::lo32(cur) - 1),
              std::memory_order_acq_rel)) {
        return true;
      }
    }
  };

  for (;;) {
    w = bw.load(std::memory_order_acquire);
    if (detail::hi32(w) != my_generation) {
      if (p) p->on_barrier(rank_, now_ns() - t0);
      return;
    }
    if (g_->shrink_pending()) {
      if (!withdraw()) continue;  // completed after all
      throw RecoveryError(abandoned_message(rank_, "barrier", -1, -1));
    }
    if (g_->hdr->unacked_failures.load(std::memory_order_acquire) > 0) {
      if (!withdraw()) continue;
      throw_rank_failed("barrier", rank_, /*peer=*/-1, /*tag=*/-1);
    }
    if (tmo > 0.0 && CommClock::now() >= comm_deadline(start, tmo)) {
      if (!withdraw()) continue;
      throw_barrier_timeout(rank_, comm_seconds_since(start));
    }
    detail::futex_wait_slice(detail::gen_half(&bw), my_generation,
                             detail::kWaitSliceMs);
  }
}

std::vector<int> ProcComm::agree_survivors() {
  const auto start = CommClock::now();
  const double tmo = timeout();
  CommProbe* p = probe();
  if (p) p->on_begin(rank_, CommProbe::kAgree, -1, -1, 0);
  std::atomic<std::uint64_t>& sw = g_->hdr->shrink_word;

  // Arrive: set the pending bit (waking blocked peers into RecoveryError so
  // they converge here too) and count ourselves.
  std::uint64_t w = sw.load(std::memory_order_acquire);
  std::uint32_t my_generation;
  bool initiated;
  for (;;) {
    my_generation = detail::hi32(w);
    const std::uint32_t lo = detail::lo32(w);
    initiated = (lo & detail::kShrinkPendingBit) == 0;
    if (sw.compare_exchange_weak(
            w,
            detail::pack64(my_generation,
                           (lo | detail::kShrinkPendingBit) + 1),
            std::memory_order_acq_rel)) {
      break;
    }
  }
  if (initiated) detail::wake_group(*g_);

  for (;;) {
    detail::try_finalize_shrink(*g_);  // we may be the quorum's last member
    w = sw.load(std::memory_order_acquire);
    if (detail::hi32(w) != my_generation) break;  // agreement completed
    if (tmo > 0.0 && CommClock::now() >= comm_deadline(start, tmo)) {
      // Withdraw our arrival (a retry will re-arrive) unless the agreement
      // completed while we were timing out.
      std::uint64_t cur = sw.load(std::memory_order_acquire);
      bool withdrawn = false;
      for (;;) {
        if (detail::hi32(cur) != my_generation) break;
        if (sw.compare_exchange_weak(
                cur,
                detail::pack64(my_generation, detail::lo32(cur) - 1),
                std::memory_order_acq_rel)) {
          withdrawn = true;
          break;
        }
      }
      if (!withdrawn) break;  // completed after all
      throw_agree_timeout(rank_, comm_seconds_since(start));
    }
    detail::futex_wait_slice(detail::gen_half(&sw), my_generation,
                             detail::kWaitSliceMs);
  }

  // In-flight traffic was purged group-wide at finalize; drop what we had
  // already drained locally so nothing stale leaks into the retried protocol.
  stash_.clear();
  const std::uint64_t mask =
      g_->hdr->survivors_mask.load(std::memory_order_acquire);
  std::vector<int> survivors;
  for (int r = 0; r < size(); ++r) {
    if ((mask >> r) & 1u) survivors.push_back(r);
  }
  if (p) p->on_agree(rank_, survivors.size());
  return survivors;
}

TrafficStats ProcComm::stats() const {
  const detail::PerRank& me = g_->ranks[rank_];
  return TrafficStats{
      me.messages_sent.load(std::memory_order_relaxed),
      me.bytes_sent.load(std::memory_order_relaxed),
      me.messages_received.load(std::memory_order_relaxed),
      me.bytes_received.load(std::memory_order_relaxed),
  };
}

void ProcComm::recycle_buffer(std::vector<std::byte>&& buf) {
  stash_.recycle(std::move(buf));
}

std::vector<int> ProcComm::failed_ranks() const {
  std::vector<int> out;
  for (int r = 0; r < size(); ++r) {
    if (g_->state_of(r) == RankState::kFailed) out.push_back(r);
  }
  return out;
}

int ProcComm::incarnation() const {
  return static_cast<int>(
      g_->ranks[rank_].incarnation.load(std::memory_order_acquire));
}

std::uint64_t ProcComm::respawns_total() const {
  return g_->hdr->respawns_total.load(std::memory_order_relaxed);
}

std::uint64_t ProcComm::regrow_epochs() const {
  return g_->hdr->regrow_epochs.load(std::memory_order_relaxed);
}

// ---- parent side: segment construction, fork, monitor, collection ----

namespace detail {
namespace {

/// RAII owner of the mapped segment and the spill directory. Constructed in
/// the parent before any fork; the shm object is unlinked immediately after
/// mmap, so the kernel reclaims it when the last process unmaps (even on a
/// crash), and children inherit it purely through the shared mapping.
class MappedGroup {
 public:
  MappedGroup(int n, std::uint64_t ring_bytes) {
    if (ring_bytes == 0) ring_bytes = kDefaultRingBytes;
    ring_bytes = align8(std::max<std::uint64_t>(ring_bytes, 4096));
    const std::uint64_t ring_slot = sizeof(RingHeader) + ring_bytes;
    const std::uint64_t total =
        sizeof(GroupHeader) + static_cast<std::uint64_t>(n) * sizeof(PerRank) +
        static_cast<std::uint64_t>(n) * n * ring_slot;

    std::string name;
    int fd = -1;
    for (int attempt = 0; attempt < 64 && fd < 0; ++attempt) {
      name = "/kb2-proc-" + std::to_string(::getpid()) + "-" +
             std::to_string(attempt);
      fd = ::shm_open(name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
      if (fd < 0 && errno != EEXIST) break;
    }
    KB2_CHECK_MSG(fd >= 0, "ProcComm: shm_open failed for group segment");
    if (::ftruncate(fd, static_cast<off_t>(total)) != 0) {
      ::close(fd);
      ::shm_unlink(name.c_str());
      throw Error("ProcComm: ftruncate(" + std::to_string(total) +
                  ") failed for group segment");
    }
    void* base = ::mmap(nullptr, total, PROT_READ | PROT_WRITE, MAP_SHARED,
                        fd, 0);
    ::close(fd);
    ::shm_unlink(name.c_str());
    KB2_CHECK_MSG(base != MAP_FAILED, "ProcComm: mmap failed for group segment");
    map_base_ = base;
    map_len_ = total;

    auto* hdr = new (base) GroupHeader{};
    pthread_mutexattr_t attr;
    ::pthread_mutexattr_init(&attr);
    ::pthread_mutexattr_setpshared(&attr, PTHREAD_PROCESS_SHARED);
    ::pthread_mutexattr_setrobust(&attr, PTHREAD_MUTEX_ROBUST);
    ::pthread_mutex_init(&hdr->finalize_mu, &attr);
    ::pthread_mutexattr_destroy(&attr);
    hdr->size = static_cast<std::uint32_t>(n);
    hdr->ring_bytes = ring_bytes;
    char* cursor = static_cast<char*>(base) + sizeof(GroupHeader);
    auto* ranks = reinterpret_cast<PerRank*>(cursor);
    for (int r = 0; r < n; ++r) new (&ranks[r]) PerRank{};
    cursor += static_cast<std::uint64_t>(n) * sizeof(PerRank);
    for (int i = 0; i < n * n; ++i) {
      new (cursor + static_cast<std::uint64_t>(i) * ring_slot) RingHeader{};
    }

    shared_.hdr = hdr;
    shared_.ranks = ranks;
    shared_.rings = cursor;
    shared_.ring_slot = ring_slot;
    shared_.size = n;

    // Spill directory: tmpfs when available so oversized frames stay
    // memory-speed, /tmp otherwise. mkdtemp picks a fresh suffix, so a
    // directory left by a killed run whose pid this process now reuses
    // cannot block the group.
    struct stat st{};
    const char* parent_dir =
        (::stat("/dev/shm", &st) == 0 && S_ISDIR(st.st_mode)) ? "/dev/shm"
                                                              : "/tmp";
    std::string spill_template = std::string(parent_dir) + "/kb2-spill-" +
                                 std::to_string(::getpid()) + "-XXXXXX";
    KB2_CHECK_MSG(::mkdtemp(spill_template.data()) != nullptr,
                  "ProcComm: cannot create spill dir " << spill_template);
    spill_dir_ = std::move(spill_template);
    KB2_CHECK_MSG(spill_dir_.size() < sizeof(hdr->spill_dir),
                  "ProcComm: spill dir path too long");
    std::memcpy(hdr->spill_dir, spill_dir_.c_str(), spill_dir_.size() + 1);
  }

  ~MappedGroup() {
    if (!spill_dir_.empty()) {
      if (DIR* d = ::opendir(spill_dir_.c_str())) {
        while (dirent* e = ::readdir(d)) {
          if (std::strcmp(e->d_name, ".") == 0 ||
              std::strcmp(e->d_name, "..") == 0) {
            continue;
          }
          ::unlink((spill_dir_ + "/" + e->d_name).c_str());
        }
        ::closedir(d);
      }
      ::rmdir(spill_dir_.c_str());
    }
    if (map_base_ != nullptr) ::munmap(map_base_, map_len_);
  }

  MappedGroup(const MappedGroup&) = delete;
  MappedGroup& operator=(const MappedGroup&) = delete;

  ProcShared& shared() { return shared_; }

 private:
  ProcShared shared_;
  void* map_base_ = nullptr;
  std::size_t map_len_ = 0;
  std::string spill_dir_;
};

/// One child's error report, parsed from its result pipe.
struct ChildReport {
  bool complete = false;  // a full frame arrived before EOF
  bool ok = false;
  std::vector<std::byte> result;
  std::uint32_t err_kind = 0;
  std::string err_what;
  int t_self = 0, t_src = 0, t_tag = 0;  // kErrTimeout attribution
  double t_elapsed = 0.0;
  int a_attempts = 0;                    // kErrFitAborted attribution
  std::string a_last_kind;
};

ChildReport parse_report(const std::string& buf) {
  ChildReport rep;
  if (buf.empty()) return rep;
  try {
    ByteReader rd(std::span<const std::byte>(
        reinterpret_cast<const std::byte*>(buf.data()), buf.size()));
    const auto status = rd.read<std::uint8_t>();
    if (status == 0) {
      rep.result = rd.read_vec<std::byte>();
      rep.ok = true;
    } else {
      rep.err_kind = rd.read<std::uint32_t>();
      rep.err_what = rd.read_string();
      if (rep.err_kind == kErrTimeout) {
        rep.t_self = rd.read<std::int32_t>();
        rep.t_src = rd.read<std::int32_t>();
        rep.t_tag = rd.read<std::int32_t>();
        rep.t_elapsed = rd.read<double>();
      } else if (rep.err_kind == kErrFitAborted) {
        rep.a_attempts = rd.read<std::int32_t>();
        rep.a_last_kind = rd.read_string();
      }
    }
    rep.complete = rd.exhausted();
  } catch (const Error&) {
    rep.complete = false;  // truncated mid-frame (the child died writing it)
  }
  return rep;
}

std::exception_ptr reconstruct_error(const ChildReport& rep) {
  switch (rep.err_kind) {
    case kErrTimeout:
      return std::make_exception_ptr(TimeoutError(
          rep.err_what, rep.t_self, rep.t_src, rep.t_tag, rep.t_elapsed));
    case kErrRankFailed:
      return std::make_exception_ptr(RankFailedError(rep.err_what));
    case kErrRecovery:
      return std::make_exception_ptr(RecoveryError(rep.err_what));
    case kErrCorrupt:
      return std::make_exception_ptr(CorruptFrameError(rep.err_what));
    case kErrComm:
      return std::make_exception_ptr(CommError(rep.err_what));
    case kErrKilled:
      return std::make_exception_ptr(fault::KilledError(rep.err_what));
    case kErrFitAborted:
      return std::make_exception_ptr(
          FitAbortedError(rep.err_what, rep.a_attempts, rep.a_last_kind));
    default:
      return std::make_exception_ptr(Error(rep.err_what));
  }
}

void write_all(int fd, std::span<const std::byte> data) {
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return;  // parent died; nothing left to report to
    done += static_cast<std::size_t>(n);
  }
}

/// The forked child's whole life: run the rank function over a ProcComm
/// endpoint, record the outcome in shared memory (so peers unblock with the
/// right story), ship the result or error up the pipe, and _Exit without
/// running atexit handlers — this process shares the parent's file
/// descriptors, gtest state, and stdio buffers, none of which it owns.
[[noreturn]] void child_main(
    ProcShared& g, int rank, int pipe_fd,
    const std::function<std::vector<std::byte>(Communicator&)>& fn,
    bool rejoin) {
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // no orphans if the parent dies
  reset_global_pool_after_fork();

  ByteWriter out;
  int exit_code = 0;
  const auto record_failure = [&](std::uint32_t kind, const char* what) {
    mark_failed_in_shared(g, rank, what, kind);
    out.write<std::uint8_t>(1);
    out.write<std::uint32_t>(kind);
    out.write_string(what);
    exit_code = 1;
  };

  ProcComm comm(&g, rank);
  try {
    Communicator* endpoint = &comm;
    std::optional<SubgroupComm> sub;
    if (rejoin) {
      // A replacement incarnation: converge through the survivor rendezvous
      // before touching the protocol. The survivors are parked in (or
      // converging into) agree_survivors() — the agreement was held open
      // for us — and the agreed set tells us which group to run over: the
      // regrown full group, or (after earlier terminal losses) the same
      // shrunken subgroup the survivors retry on.
      auto survivors = comm.agree_survivors();
      if (static_cast<int>(survivors.size()) < comm.size()) {
        sub.emplace(comm, std::move(survivors));
        endpoint = &*sub;
      }
    }
    std::vector<std::byte> result = fn(*endpoint);
    // Departed before reporting: survivors blocked on us (or waiting for us
    // in agree_survivors) wake rather than hang on a rank that finished.
    g.ranks[rank].state.store(static_cast<std::uint8_t>(RankState::kDeparted),
                              std::memory_order_release);
    try_finalize_shrink(g);
    wake_group(g);
    out.write<std::uint8_t>(0);
    out.write_vec(result);
  } catch (const TimeoutError& e) {
    record_failure(kErrTimeout, e.what());
    out.write<std::int32_t>(e.self());
    out.write<std::int32_t>(e.src());
    out.write<std::int32_t>(e.tag());
    out.write<double>(e.elapsed_seconds());
  } catch (const FitAbortedError& e) {
    record_failure(kErrFitAborted, e.what());
    out.write<std::int32_t>(e.attempts());
    out.write_string(e.last_kind());
  } catch (const RankFailedError& e) {
    record_failure(kErrRankFailed, e.what());
  } catch (const RecoveryError& e) {
    record_failure(kErrRecovery, e.what());
  } catch (const CorruptFrameError& e) {
    record_failure(kErrCorrupt, e.what());
  } catch (const CommError& e) {
    record_failure(kErrComm, e.what());
  } catch (const fault::KilledError& e) {
    record_failure(kErrKilled, e.what());
  } catch (const std::exception& e) {
    record_failure(kErrPlain, e.what());
  } catch (...) {
    record_failure(kErrUnknown, "unknown exception");
  }

  write_all(pipe_fd, out.bytes());
  ::close(pipe_fd);
  std::_Exit(exit_code);
}

}  // namespace
}  // namespace detail

ProcRunResult proc_run_ranks(
    int n_ranks, std::size_t ring_bytes, const RecoveryPolicy& policy,
    const std::function<std::vector<std::byte>(Communicator&)>& fn,
    const AbnormalDeathFn& on_abnormal_death) {
  KB2_CHECK_MSG(n_ranks >= 1, "need at least one rank, got " << n_ranks);
  KB2_CHECK_MSG(n_ranks <= detail::kMaxProcRanks,
                "process backend supports at most " << detail::kMaxProcRanks
                                                    << " ranks, got "
                                                    << n_ranks);
  detail::MappedGroup group(n_ranks, ring_bytes);
  detail::ProcShared& g = group.shared();
  g.hdr->respawn_budget.store(policy.max_respawns, std::memory_order_relaxed);

  struct Child {
    pid_t pid = -1;
    int fd = -1;          // parent's read end of the result pipe
    std::string buf;      // bytes received so far
    bool eof = false;
    bool reaped = false;
    bool evaluated = false;
    int status = 0;       // waitpid status once reaped
    int incarnation = 0;  // how many times this slot has been respawned
    bool respawn_due = false;            // a replacement fork is scheduled
    CommClock::time_point respawn_at{};  // when the backoff elapses
    CommClock::time_point last_spawn{};  // flap-window reference point
  };
  std::vector<Child> children(static_cast<std::size_t>(n_ranks));
  std::vector<int> error_order;  // ranks with error reports, arrival order
  std::vector<detail::ChildReport> reports(static_cast<std::size_t>(n_ranks));
  int open_pipes = 0;
  int alive = 0;
  int scheduled_respawns = 0;

  // Fork one rank with clean stdio: a child that exits (or is killed) must
  // not flush a duplicated copy of the parent's buffered output. The child
  // closes every other live child's read end (their write ends were already
  // closed in the parent right after their own fork), so a dead sibling's
  // pipe still delivers EOF to the parent alone.
  const auto spawn = [&](int r, bool rejoin) {
    std::array<int, 2> p{};
    KB2_CHECK_MSG(::pipe(p.data()) == 0, "ProcComm: pipe() failed");
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = ::fork();
    KB2_CHECK_MSG(pid >= 0, "ProcComm: fork() failed for rank " << r);
    if (pid == 0) {
      ::close(p[0]);
      for (const Child& sibling : children) {
        if (sibling.fd >= 0 && !sibling.eof) ::close(sibling.fd);
      }
      detail::child_main(g, r, p[1], fn, rejoin);
    }
    Child& c = children[static_cast<std::size_t>(r)];
    c.pid = pid;
    c.fd = p[0];
    ::close(p[1]);
    c.buf.clear();
    c.eof = c.reaped = c.evaluated = false;
    c.status = 0;
    c.last_spawn = CommClock::now();
    ++open_pipes;
    ++alive;
  };
  for (int r = 0; r < n_ranks; ++r) spawn(r, /*rejoin=*/false);

  // Monitor: drain result pipes and reap children until both are done. The
  // parent is the group's failure detector — a child that dies by signal
  // (or exits without a complete report) is marked failed in shared memory
  // so the survivors' blocked operations wake with an attributed error.
  // While respawn budget remains, it is also the recovery supervisor: a
  // failed slot whose death reserved budget is forked again after a
  // deterministic backoff and rejoins through the held-open agreement.
  std::vector<pollfd> fds;
  std::vector<int> fd_rank;
  char chunk[65536];
  while (open_pipes > 0 || alive > 0 || scheduled_respawns > 0) {
    fds.clear();
    fd_rank.clear();
    for (int r = 0; r < n_ranks; ++r) {
      Child& c = children[static_cast<std::size_t>(r)];
      if (c.eof) continue;
      fds.push_back(pollfd{c.fd, POLLIN, 0});
      fd_rank.push_back(r);
    }
    if (!fds.empty()) {
      ::poll(fds.data(), fds.size(), 100);
      for (std::size_t i = 0; i < fds.size(); ++i) {
        if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        Child& c = children[static_cast<std::size_t>(fd_rank[i])];
        const ssize_t n = ::read(c.fd, chunk, sizeof(chunk));
        if (n > 0) {
          c.buf.append(chunk, static_cast<std::size_t>(n));
        } else if (n == 0 || (n < 0 && errno != EINTR && errno != EAGAIN)) {
          ::close(c.fd);
          c.eof = true;
          --open_pipes;
        }
      }
    }
    for (int r = 0; r < n_ranks; ++r) {
      Child& c = children[static_cast<std::size_t>(r)];
      if (c.reaped) continue;
      const pid_t got = ::waitpid(c.pid, &c.status, WNOHANG);
      if (got == c.pid) {
        c.reaped = true;
        --alive;
      }
    }
    // A child is fully accounted once its pipe closed and it was reaped;
    // only then can we distinguish "reported, then exited" from "died
    // mid-flight" (its report, if any, is truncated).
    for (int r = 0; r < n_ranks; ++r) {
      Child& c = children[static_cast<std::size_t>(r)];
      if (c.evaluated || !c.reaped || !c.eof) continue;
      c.evaluated = true;
      auto& rep = reports[static_cast<std::size_t>(r)];
      rep = detail::parse_report(c.buf);
      c.buf.clear();
      c.buf.shrink_to_fit();
      if (rep.complete) {
        // The child recorded its own fate in shared memory before exiting;
        // nothing to mark — just remember error arrival order.
        if (!rep.ok) error_order.push_back(r);
        continue;
      }
      std::string reason;
      if (WIFSIGNALED(c.status)) {
        reason = "killed by signal " + std::to_string(WTERMSIG(c.status));
      } else {
        reason = "exited (status " +
                 std::to_string(WIFEXITED(c.status) ? WEXITSTATUS(c.status)
                                                    : c.status) +
                 ") without reporting";
      }
      if (!detail::mark_failed_in_shared(g, r, reason, detail::kErrUnknown)) {
        // It had already marked itself departed but died before its result
        // crossed the pipe: the result is lost, which peers must learn.
        detail::mark_failed_in_shared(g, r, reason + " (result lost)",
                                      detail::kErrUnknown,
                                      RankState::kDeparted);
      }
      // Abnormal death observed at the supervisor: let the forensics layer
      // freeze and dump the black-box rings before any respawn reuses them.
      if (on_abnormal_death) on_abnormal_death(r, c.incarnation, reason);
    }
    // Schedule reserved respawns. A death that won budget (respawn_reserved
    // set inside mark_failed_in_shared, before the state flip) gets a
    // replacement fork after a deterministic backoff — unless the slot is
    // flapping (died again too soon after its last respawn), in which case
    // the reservation is cancelled and the held-open agreement finalizes as
    // an ordinary shrink: the ladder falls to the next rung.
    for (int r = 0; r < n_ranks; ++r) {
      Child& c = children[static_cast<std::size_t>(r)];
      if (!c.evaluated || c.respawn_due) continue;
      detail::PerRank& p = g.ranks[r];
      if (p.respawn_reserved.load(std::memory_order_acquire) == 0) continue;
      const auto now = CommClock::now();
      if (policy.flap_window_seconds > 0.0 && c.incarnation > 0 &&
          std::chrono::duration<double>(now - c.last_spawn).count() <
              policy.flap_window_seconds) {
        p.respawn_reserved.store(0, std::memory_order_relaxed);
        g.hdr->respawn_pending.fetch_sub(1, std::memory_order_acq_rel);
        detail::try_finalize_shrink(g);
        detail::wake_group(g);
        continue;
      }
      const double delay = backoff_ms(
          policy, c.incarnation,
          (static_cast<std::uint64_t>(static_cast<std::uint32_t>(r)) << 32) ^
              static_cast<std::uint64_t>(c.incarnation));
      c.respawn_at = now + std::chrono::microseconds(
                               static_cast<std::int64_t>(delay * 1000.0));
      c.respawn_due = true;
      ++scheduled_respawns;
    }
    // Fire due respawns: resurrect the slot in shared memory, fork the
    // replacement, then release the held-open agreement. Ordering matters —
    // the slot must read kLive before respawn_pending drops, so a waiter
    // re-scanning at that instant needs the newcomer for quorum and the
    // agreement can never finalize at shrunken width in the gap.
    for (int r = 0; r < n_ranks; ++r) {
      Child& c = children[static_cast<std::size_t>(r)];
      if (!c.respawn_due || CommClock::now() < c.respawn_at) continue;
      detail::PerRank& p = g.ranks[r];
      p.reason_len.store(0, std::memory_order_relaxed);
      p.reason_kind.store(0, std::memory_order_relaxed);
      p.respawn_reserved.store(0, std::memory_order_relaxed);
      p.incarnation.fetch_add(1, std::memory_order_relaxed);
      p.state.store(static_cast<std::uint8_t>(RankState::kLive),
                    std::memory_order_release);
      // The dead incarnation no longer speaks for this slot: its report and
      // place in the error order are superseded by whatever the replacement
      // produces.
      reports[static_cast<std::size_t>(r)] = {};
      std::erase(error_order, r);
      c.respawn_due = false;
      --scheduled_respawns;
      ++c.incarnation;
      spawn(r, /*rejoin=*/true);
      g.hdr->respawns_total.fetch_add(1, std::memory_order_relaxed);
      g.hdr->respawn_pending.fetch_sub(1, std::memory_order_acq_rel);
      detail::wake_group(g);
    }
    if (fds.empty() && scheduled_respawns > 0) {
      // Every pipe is closed but a replacement fork is pending: nap through
      // the backoff instead of spinning.
      const timespec nap{0, 2'000'000};
      ::nanosleep(&nap, nullptr);
    }
  }

  ProcRunResult out;
  out.results.resize(static_cast<std::size_t>(n_ranks));
  for (int r = 0; r < n_ranks; ++r) {
    auto& rep = reports[static_cast<std::size_t>(r)];
    if (rep.complete && rep.ok) {
      out.results[static_cast<std::size_t>(r)] = std::move(rep.result);
    }
  }
  for (const int r : error_order) {
    out.first_error =
        detail::reconstruct_error(reports[static_cast<std::size_t>(r)]);
    break;
  }
  for (int r = 0; r < n_ranks; ++r) {
    const detail::PerRank& p = g.ranks[r];
    out.total_stats += TrafficStats{
        p.messages_sent.load(std::memory_order_relaxed),
        p.bytes_sent.load(std::memory_order_relaxed),
        p.messages_received.load(std::memory_order_relaxed),
        p.bytes_received.load(std::memory_order_relaxed),
    };
  }
  out.respawns_total = static_cast<int>(
      g.hdr->respawns_total.load(std::memory_order_relaxed));
  out.regrow_epochs = static_cast<int>(
      g.hdr->regrow_epochs.load(std::memory_order_relaxed));
  return out;
}

ProcRunResult proc_run_ranks(
    int n_ranks, std::size_t ring_bytes,
    const std::function<std::vector<std::byte>(Communicator&)>& fn) {
  return proc_run_ranks(n_ranks, ring_bytes, RecoveryPolicy{}, fn);
}

#else  // !__linux__

namespace detail {
struct ProcShared {};
}  // namespace detail

namespace {
[[noreturn]] void no_proc_backend() {
  throw Error(
      "the process-backed communicator requires Linux "
      "(shm_open + futex); use the thread backend here");
}
}  // namespace

ProcComm::ProcComm(detail::ProcShared*, int) { no_proc_backend(); }
int ProcComm::size() const { no_proc_backend(); }
void ProcComm::send(int, int, std::span<const std::byte>) { no_proc_backend(); }
std::vector<std::byte> ProcComm::recv(int, int) { no_proc_backend(); }
void ProcComm::barrier() { no_proc_backend(); }
TrafficStats ProcComm::stats() const { no_proc_backend(); }
void ProcComm::recycle_buffer(std::vector<std::byte>&&) { no_proc_backend(); }
std::vector<int> ProcComm::failed_ranks() const { no_proc_backend(); }
std::vector<int> ProcComm::agree_survivors() { no_proc_backend(); }
int ProcComm::incarnation() const { no_proc_backend(); }
std::uint64_t ProcComm::respawns_total() const { no_proc_backend(); }
std::uint64_t ProcComm::regrow_epochs() const { no_proc_backend(); }
void ProcComm::drain_rings() { no_proc_backend(); }
void ProcComm::throw_rank_failed(const char*, int, int, int) {
  no_proc_backend();
}

ProcRunResult proc_run_ranks(
    int, std::size_t, const RecoveryPolicy&,
    const std::function<std::vector<std::byte>(Communicator&)>&,
    const AbnormalDeathFn&) {
  no_proc_backend();
}

ProcRunResult proc_run_ranks(
    int, std::size_t,
    const std::function<std::vector<std::byte>(Communicator&)>&) {
  no_proc_backend();
}

#endif  // __linux__

}  // namespace keybin2::comm
