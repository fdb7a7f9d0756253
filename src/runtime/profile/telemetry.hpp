// The shared-memory telemetry plane (DESIGN.md §8).
//
// A running job publishes one seqlock-versioned snapshot per rank into a
// named POSIX shm segment, and any observer (tools/kb2_top, tests) attaches
// read-only by name and renders the table. Same publish-after-copy
// discipline as the ProcComm ring heads: bump the slot sequence odd, write
// the payload, bump it even with release ordering; readers copy and retry.
//
// Lifecycle (the part that makes respawn work):
//   * The *launcher* creates the segment before run_ranks(). Under the
//     process backend every rank — including respawned incarnations, which
//     are forked by the parent — inherits the MAP_SHARED mapping through
//     fork, so a SIGKILL'd rank's replacement writes the same slot with its
//     new incarnation number. Under the thread backend all ranks share the
//     launcher's mapping directly.
//   * Unlike the ProcComm group segment (unlinked immediately — invisible
//     by design), the telemetry segment STAYS LINKED so kb2_top can attach;
//     the creator unlinks it in ~TelemetrySegment(). The residue check in
//     test_profile holds jobs to that contract.
//
// Writer rules: exactly one writer per slot — the rank thread. The SIGPROF
// handler never publishes (it would nest inside an interrupted writer). A
// stale published_ns is information, not a bug: a hung rank's heartbeat age
// is how kb2_top shows it hanging.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace keybin2::runtime::profile {

/// One rank's live snapshot. Fixed-size POD so the segment layout is just
/// header + n_ranks slots; 256-byte aligned to keep writers off each
/// other's cache lines.
struct alignas(256) TelemetrySlot {
  static constexpr std::uint32_t kEmpty = 0;
  static constexpr std::uint32_t kLive = 1;
  static constexpr std::uint32_t kDone = 2;
  static constexpr std::size_t kMaxStage = 96;

  std::uint32_t seq = 0;          // seqlock: odd while mid-write
  std::uint32_t state = kEmpty;
  std::uint32_t incarnation = 0;  // comm::Communicator::incarnation()
  std::int32_t pid = 0;
  std::int64_t published_ns = 0;  // now_ns() at publish; age = staleness
  std::uint64_t samples = 0;      // profiler samples accounted so far
  std::uint64_t points_total = 0;
  double points_per_sec = 0.0;
  double wait_ratio = 0.0;        // recv+barrier wait / wall
  std::uint64_t rss_kb = 0;
  std::uint64_t anomalies = 0;    // HealthMonitor::anomalies()
  // Recovery-ladder accounting (v2): group-wide respawn/regrow totals from
  // the communicator, plus this rank's recovery-latency quantiles.
  std::uint64_t respawns_total = 0;
  std::uint64_t regrow_epochs = 0;
  std::int64_t recovery_p50_ns = 0;
  std::int64_t recovery_p99_ns = 0;
  char stage[kMaxStage] = {};     // current scope path (tail-truncated)
};

// Aligned like the slots, so the slot array that follows it starts on a
// 256-byte boundary.
struct alignas(256) TelemetryHeader {
  static constexpr std::uint64_t kMagic = 0x4b42325445'4c4531ull;  // "KB2TELE1"
  static constexpr std::uint32_t kVersion = 3;  // bumped on layout changes
  std::uint64_t magic = 0;
  std::uint32_t version = 0;
  std::uint32_t n_ranks = 0;
  std::int32_t creator_pid = 0;
  std::int64_t created_ns = 0;
  char job[64] = {};
};

/// Value-type copy of one slot, as read (untorn) by an observer.
struct TelemetrySample {
  int rank = 0;
  TelemetrySlot slot;
};

/// Creator side: shm_open + ftruncate + mmap, linked for the segment's
/// lifetime. Construct in the launcher BEFORE run_ranks().
class TelemetrySegment {
 public:
  /// `name` is a POSIX shm name ("/kb2-tele-1234"; a missing leading slash
  /// is added). Empty -> "/kb2-tele-<pid>". Throws on failure — telemetry
  /// was explicitly requested, silent absence would be worse.
  TelemetrySegment(std::string name, int n_ranks, std::string_view job);
  ~TelemetrySegment();
  TelemetrySegment(const TelemetrySegment&) = delete;
  TelemetrySegment& operator=(const TelemetrySegment&) = delete;

  const std::string& name() const { return name_; }
  int n_ranks() const { return n_ranks_; }
  TelemetrySlot* slot(int rank);

 private:
  std::string name_;
  int n_ranks_ = 0;
  void* base_ = nullptr;
  std::size_t len_ = 0;
};

/// Rank side: owns the periodic publish into one slot. Rate-limited — call
/// maybe_publish() as often as you like (scope open/close), it writes at
/// most once per cadence. publish_now() bypasses the rate limit (state
/// transitions, final flush).
class TelemetryPublisher {
 public:
  TelemetryPublisher(TelemetrySlot* slot, std::int64_t cadence_ns)
      : slot_(slot), cadence_ns_(cadence_ns) {}

  /// Fields the caller updates between publishes.
  struct Update {
    std::uint32_t state = TelemetrySlot::kLive;
    std::uint32_t incarnation = 0;
    std::uint64_t samples = 0;
    std::uint64_t points_total = 0;
    double points_per_sec = 0.0;
    double wait_ratio = 0.0;
    std::uint64_t anomalies = 0;
    std::uint64_t respawns_total = 0;
    std::uint64_t regrow_epochs = 0;
    std::int64_t recovery_p50_ns = 0;
    std::int64_t recovery_p99_ns = 0;
    std::string_view stage;
  };

  void maybe_publish(const Update& u);
  void publish_now(const Update& u);

 private:
  TelemetrySlot* slot_;
  std::int64_t cadence_ns_;
  std::int64_t last_publish_ns_ = 0;
};

/// Observer side: attach read-only by name or pid and copy out untorn
/// snapshots. Detaches (but never unlinks) on destruction.
class TelemetryReader {
 public:
  /// Returns nullptr (with *error set) when the segment is missing or
  /// malformed — an attach tool wants a message, not an exception.
  static std::unique_ptr<TelemetryReader> attach(const std::string& name,
                                                 std::string* error);
  ~TelemetryReader();
  TelemetryReader(const TelemetryReader&) = delete;
  TelemetryReader& operator=(const TelemetryReader&) = delete;

  const TelemetryHeader& header() const { return header_; }

  /// Copy every slot, seqlock-retried. Torn slots (writer mid-publish on
  /// every retry) are skipped this round — the next refresh gets them.
  std::vector<TelemetrySample> snapshot() const;

 private:
  TelemetryReader() = default;
  TelemetryHeader header_;
  void* base_ = nullptr;
  std::size_t len_ = 0;
};

/// Canonical segment name for a launcher pid ("/kb2-tele-<pid>").
std::string telemetry_name_for_pid(int pid);

/// Current resident set size of the calling process, in KiB (0 if unknown).
std::uint64_t read_rss_kb();

/// The kb2_top --once --json payload: header + one object per readable
/// slot, with heartbeat ages computed against `now_ns`. Shared between the
/// tool and test_profile so the schema is checked where it is produced.
std::string top_snapshot_json(const TelemetryReader& reader,
                              std::int64_t now_ns);

}  // namespace keybin2::runtime::profile
