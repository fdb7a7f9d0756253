// The per-rank shared-memory segment (DESIGN.md §8, §10): one mapping per
// launch carries every rank's live telemetry slot and its flight-recorder
// ring.
//
// Layout (every offset a multiple of 256 bytes up to the rings):
//
//   [SegmentHeader]                         magic, version, n_ranks, ...
//   [TelemetrySlot x n_ranks]               latest values, for kb2_top
//   [RankControl + FlightRecord x slots_per_rank] x n_ranks
//                                           black-box rings, for dumps
//
// Lifecycle. The launcher creates the segment before any fork, so forked
// ranks and their respawned incarnations inherit the MAP_SHARED mapping at
// the same address; under the thread backend every rank shares it directly.
//   * Named ("/kb2-tele-smoke"): a POSIX shm object that stays linked while
//     the job runs — that is kb2_top's attach surface — and is unlinked by
//     its creator's destructor. Forked ranks leave through _exit and never
//     run it, so the unlink happens exactly once.
//   * Anonymous (empty name): MAP_SHARED|MAP_ANONYMOUS, nothing to leak or
//     unlink; the flight recorder still dumps it from the launcher.
//
// Every word two processes touch concurrently is a plain POD field read and
// written through load_shared/store_shared (std::atomic_ref), so the structs
// stay trivially fork-shareable while each access gets real ordering.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>

namespace keybin2::runtime {

namespace profile {
struct TelemetrySlot;
}
namespace flight {
struct RankControl;
struct FlightRecord;
}  // namespace flight

template <class T>
T load_shared(const T& word, std::memory_order order) {
  return std::atomic_ref<const T>(word).load(order);
}

template <class T>
void store_shared(T& word, std::type_identity_t<T> value,
                  std::memory_order order) {
  std::atomic_ref<T>(word).store(value, order);
}

// Aligned like the telemetry slots, so the slot array that follows it starts
// on a 256-byte boundary.
struct alignas(256) SegmentHeader {
  static constexpr std::uint64_t kMagic = 0x4b42325445'4c4531ull;  // "KB2TELE1"
  static constexpr std::uint32_t kVersion = 4;  // bumped on layout changes
  std::uint64_t magic = 0;  // published last, with release ordering
  std::uint32_t version = 0;
  std::uint32_t n_ranks = 0;
  std::uint32_t slots_per_rank = 0;  // flight ring capacity per rank
  std::uint32_t frozen = 0;          // flight writers drop records while set
  std::int32_t creator_pid = 0;
  std::int64_t created_ns = 0;
  char job[64] = {};
};

class RankSegment {
 public:
  static constexpr std::uint32_t kDefaultSlots = 1024;

  /// Creator side. A non-empty `name` is a POSIX shm name (a missing
  /// leading slash is added; a stale object of that name is replaced).
  /// Throws on failure — a requested plane silently missing would be worse.
  RankSegment(int n_ranks, std::string_view job, std::string name = {},
              std::uint32_t slots_per_rank = kDefaultSlots);
  ~RankSegment();
  RankSegment(const RankSegment&) = delete;
  RankSegment& operator=(const RankSegment&) = delete;

  /// Observer side: map a named segment read-only. Returns nullptr (with
  /// *error naming the segment) when it is missing, is not a segment of
  /// this version, or is shorter than its header's layout — an attach tool
  /// wants a message, not an exception or a SIGBUS. Never unlinks.
  static std::unique_ptr<RankSegment> attach(const std::string& name,
                                             std::string* error);

  /// The shm name ("/kb2-tele-smoke"), or empty when anonymous.
  const std::string& name() const { return name_; }
  const SegmentHeader& header() const { return *header_; }
  int n_ranks() const { return static_cast<int>(header_->n_ranks); }
  std::uint32_t slots_per_rank() const { return header_->slots_per_rank; }

  profile::TelemetrySlot* slot(int rank) const;
  flight::RankControl* rank_control(int rank) const;
  flight::FlightRecord* ring(int rank) const;

  /// Stop every flight writer (they observe the flag on their next record
  /// and count it as dropped). Safe from any process sharing the mapping.
  void freeze() { store_shared(header_->frozen, 1, std::memory_order_release); }
  /// Re-arm the writers after a dump, so a respawned incarnation keeps
  /// recording.
  void unfreeze() {
    store_shared(header_->frozen, 0, std::memory_order_release);
  }
  bool frozen() const {
    return load_shared(header_->frozen, std::memory_order_acquire) != 0;
  }

 private:
  RankSegment() = default;

  std::string name_;
  SegmentHeader* header_ = nullptr;
  std::size_t len_ = 0;
  bool creator_ = false;
};

}  // namespace keybin2::runtime
