// Crash-forensics flight recorder (DESIGN.md §10).
//
// Every rank owns a fixed-size ring of 64-byte FlightRecords in the launch's
// RankSegment (runtime/segment.hpp), created *before* any fork, so forked
// ranks (and their respawned incarnations) inherit the same memory and the
// supervisor can still read a rank's trail after SIGKILL. The owning
// runtime Context is the one writer: it records stage transitions (as the
// Tracer's scope observer), comm operations (begin/end as the comm probe —
// an unmatched begin is the in-flight evidence), and checkpoint/recovery
// events.
//
// Signal-safety argument: record() performs only std::atomic_ref stores over
// plain POD fields plus one clock_gettime — no locks, no allocation, no
// syscalls that can block — so it is safe from a SIGPROF handler and from
// two incarnations of a rank racing across a respawn. Each slot is
// seqlock-published with a position-derived sequence (odd while writing,
// 2*pos+2 when record `pos` is complete); a reader that snapshots
// concurrently drops torn or overwritten slots instead of blocking.
//
// On abnormal death the supervisor freezes all rings (the segment's frozen
// flag, which every writer polls) and serializes them into a dump file in
// the same checked container as checkpoints (common/container.hpp).
// kb2_postmortem reads the dump and reconstructs the cross-rank story.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/container.hpp"
#include "runtime/segment.hpp"

namespace keybin2::runtime::flight {

/// What one flight record describes.
enum class EventType : std::uint8_t {
  kStage = 0,      // pipeline scope open/close (detail = stage path tail)
  kSend = 1,       // comm op, peer/tag/bytes meaningful
  kRecv = 2,
  kBarrier = 3,
  kAgree = 4,      // survivor agreement
  kCheckpoint = 5, // checkpoint written/restored (detail says which)
  kRecovery = 6,   // shrink/regrow/retry ladder event (detail says which)
  kMailbox = 7,    // mailbox depth (bytes = depth); no longer written, kept
                   // so older dumps still parse
};

enum class EventPhase : std::uint8_t {
  kBegin = 0,
  kEnd = 1,
  kPoint = 2,  // instantaneous event
};

/// One ring slot. 64 bytes, trivially copyable, shared across processes.
/// `seq` is the seqlock word: 2*pos+1 while the writer fills the slot,
/// 2*pos+2 once record number `pos` is complete. A reader expecting position
/// `pos` accepts the slot only at exactly 2*pos+2 — anything else is torn or
/// already overwritten by a later lap.
struct FlightRecord {
  std::uint64_t seq;
  std::int64_t t_ns;
  std::uint32_t incarnation;
  std::uint8_t type;   // EventType
  std::uint8_t phase;  // EventPhase
  std::uint16_t pad;
  std::int32_t peer;   // -1 where not meaningful
  std::int32_t tag;    // -1 where not meaningful
  std::uint64_t bytes;
  char detail[24];     // NUL-padded tail of the stage path / event label
};
static_assert(sizeof(FlightRecord) == 64);
static_assert(std::is_trivially_copyable_v<FlightRecord>);

/// Per-rank control block ahead of that rank's slots. Single writer (the
/// rank's current incarnation); read concurrently by the dumping supervisor.
struct alignas(64) RankControl {
  std::uint64_t head;         // records ever written (atomic_ref, release)
  std::uint32_t incarnation;  // stamped by the writer when it binds
  std::uint32_t bound;        // a writer ever bound to this ring
  std::int64_t epoch_ns;      // when that incarnation bound (satellite: keeps
                              // respawn trails separable in merged traces)
  std::uint64_t dropped;      // records refused because the ring was frozen
};
static_assert(sizeof(RankControl) == 64);

/// Lock-free single-writer handle for one rank's ring. Binding stamps the
/// control block with (incarnation, epoch_ns); record() publishes one slot.
class FlightWriter {
 public:
  FlightWriter(RankSegment* seg, int rank, int incarnation);

  /// Async-signal-safe: atomic_ref stores over shared POD plus one
  /// monotonic-clock read, no allocation. Keeps the tail of a `detail`
  /// longer than the record holds. Drops (and counts) the record while
  /// frozen.
  void record(EventType type, EventPhase phase, int peer, int tag,
              std::uint64_t bytes, std::string_view detail);

 private:
  RankSegment* seg_ = nullptr;
  RankControl* ctl_ = nullptr;
  FlightRecord* slots_ = nullptr;
  std::uint32_t n_slots_ = 0;
  std::uint32_t incarnation_ = 0;
};

// ---- dump container ----

/// A dump read back from disk: the frozen story of every rank's ring, plus
/// the deaths the supervisor attributed at dump time.
struct RankTrail {
  int rank = 0;
  std::uint32_t incarnation = 0;  // latest writer's incarnation
  std::int64_t epoch_ns = 0;      // when that incarnation bound its writer
  std::uint64_t records_total = 0;
  std::uint64_t dropped = 0;
  bool dead = false;
  std::string death_reason;
  std::vector<FlightRecord> records;  // valid tail, oldest first
};

struct FlightDump {
  std::string job;
  std::string reason;  // why the dump was taken
  std::int64_t dump_t_ns = 0;
  std::vector<RankTrail> ranks;
};

/// One rank's death as attributed by the supervisor (waitpid signal reap,
/// fatal error report, watchdog expiry).
struct FlightDeath {
  int rank = -1;
  int incarnation = 0;
  std::string reason;
};

/// Typed defect in a dump file; `defect` is one of "missing", "truncated",
/// "bad_magic", "version_skew", "crc_mismatch", "malformed" — the
/// vocabulary kb2_postmortem reports instead of crashing.
using FlightDumpError = ContainerError;

/// Magic "KB2FLT01" as a u64 (the bytes on disk read "BK2FLT01"),
/// version 1.
inline constexpr ContainerFormat kFlightDumpFile{
    0x3130544c46324b42ULL, 1, "flight dump", "KB2FLT",
    /*keep_previous=*/false};

/// Snapshot every ring (seqlock-validated, torn slots dropped) and write the
/// CRC-checked dump. The caller freezes first if it wants a consistent
/// death-moment snapshot; a concurrent writer only costs dropped slots.
void write_flight_dump(const std::string& path, const RankSegment& seg,
                       const std::string& reason,
                       std::span<const FlightDeath> deaths);

/// Read and verify a dump; throws FlightDumpError naming the defect.
FlightDump read_flight_dump(const std::string& path);

}  // namespace keybin2::runtime::flight
