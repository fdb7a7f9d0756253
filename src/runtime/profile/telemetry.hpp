// The live telemetry plane (DESIGN.md §8).
//
// A running job publishes one seqlock-versioned snapshot per rank into its
// slot of the launch's RankSegment (runtime/segment.hpp), and any observer
// (tools/kb2_top, tests) attaches read-only by name and renders the table.
// Same publish-after-copy discipline as the ProcComm ring heads: bump the
// slot sequence odd, write the payload, bump it even with release ordering;
// readers copy and retry.
//
// Slots are only visible from outside when the segment is named: the
// launcher names it with --telemetry, and it stays linked for kb2_top until
// the launcher exits. A respawned incarnation inherits the mapping through
// fork and writes the same slot with its new incarnation number.
//
// Writer rules: exactly one writer per slot — the rank thread. The SIGPROF
// handler never publishes (it would nest inside an interrupted writer). A
// stale published_ns is information, not a bug: a hung rank's heartbeat age
// is how kb2_top shows it hanging.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/segment.hpp"

namespace keybin2::runtime::profile {

/// One rank's live snapshot. Fixed-size POD, 256-byte aligned to keep
/// writers off each other's cache lines.
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
  std::uint64_t anomalies = 0;    // the registry's health_*_anomalies
  // Recovery-ladder accounting (v2): group-wide respawn/regrow totals from
  // the communicator, plus this rank's recovery-latency quantiles.
  std::uint64_t respawns_total = 0;
  std::uint64_t regrow_epochs = 0;
  std::int64_t recovery_p50_ns = 0;
  std::int64_t recovery_p99_ns = 0;
  char stage[kMaxStage] = {};     // current scope path (tail-truncated)
};

/// Value-type copy of one slot, as read (untorn) by an observer.
struct TelemetrySample {
  int rank = 0;
  TelemetrySlot slot;
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

/// Copy every rank's slot out of `seg`, seqlock-retried. Torn slots
/// (writer mid-publish on every retry) are skipped this round — the next
/// refresh gets them.
std::vector<TelemetrySample> read_telemetry(const RankSegment& seg);

/// Canonical segment name for a launcher pid ("/kb2-tele-<pid>").
std::string telemetry_name_for_pid(int pid);

/// Current resident set size of the calling process, in KiB (0 if unknown).
std::uint64_t read_rss_kb();

/// The kb2_top --once --json payload: header + one object per readable
/// slot, with heartbeat ages computed against `now_ns`. Shared between the
/// tool and test_profile so the schema is checked where it is produced.
std::string top_snapshot_json(const RankSegment& seg, std::int64_t now_ns);

}  // namespace keybin2::runtime::profile
