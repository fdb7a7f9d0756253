// kb2_top — attach to a running keybin2 job's telemetry segment and render
// a refreshing per-rank table (DESIGN.md §8).
//
//   kb2_top --pid 12345               # attach to /kb2-tele-12345
//   kb2_top --segment kb2-tele-smoke  # attach by explicit segment name
//   kb2_top --once --json             # one machine-readable snapshot
//
// The tool is a pure reader: it maps the segment read-only, copies slots
// with the seqlock protocol, and never blocks or perturbs the job. A rank
// whose heartbeat age keeps growing is hung or dead — that staleness being
// visible is the point.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common/timer.hpp"
#include "runtime/profile/telemetry.hpp"
#include "runtime/segment.hpp"

namespace {

using keybin2::runtime::RankSegment;
using keybin2::runtime::profile::TelemetrySlot;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s (--pid PID | --segment NAME) [options]\n"
               "  --pid PID         attach to the job launched by PID\n"
               "  --segment NAME    attach to an explicit shm segment name\n"
               "  --once            print one snapshot and exit\n"
               "  --json            machine-readable output (implies table "
               "off)\n"
               "  --interval-ms N   refresh cadence (default 500)\n",
               argv0);
  return 2;
}

const char* state_name(std::uint32_t state) {
  switch (state) {
    case TelemetrySlot::kLive: return "live";
    case TelemetrySlot::kDone: return "done";
    default: return "-";
  }
}

void print_table(const RankSegment& seg, bool clear_screen) {
  if (clear_screen) std::fputs("\x1b[H\x1b[2J", stdout);
  const auto& hdr = seg.header();
  std::printf("kb2_top — job \"%s\" (launcher pid %d, %u ranks)\n\n",
              hdr.job, hdr.creator_pid, hdr.n_ranks);
  std::printf("%4s %5s %-7s %3s %-28s %12s %8s %9s %8s %6s %4s %4s %8s %8s "
              "%8s\n",
              "rank", "pid", "state", "inc", "stage", "points/s", "wait",
              "rss", "samples", "anom", "rsp", "rgr", "rec-p50", "rec-p99",
              "beat(ms)");
  const std::int64_t now = keybin2::now_ns();
  for (const auto& s : keybin2::runtime::profile::read_telemetry(seg)) {
    const double age_ms =
        s.slot.published_ns == 0
            ? -1.0
            : static_cast<double>(now - s.slot.published_ns) * 1e-6;
    // Long stage paths keep their tail — the leaf is the current stage.
    const char* stage = s.slot.stage;
    const std::size_t len = std::strlen(stage);
    if (len > 28) stage += len - 28;
    // Recovery latencies render in milliseconds; a rank that never ran the
    // survivor rendezvous shows "-" rather than a misleading zero.
    char p50[16];
    char p99[16];
    if (s.slot.recovery_p50_ns > 0) {
      std::snprintf(p50, sizeof(p50), "%.1fms",
                    static_cast<double>(s.slot.recovery_p50_ns) * 1e-6);
      std::snprintf(p99, sizeof(p99), "%.1fms",
                    static_cast<double>(s.slot.recovery_p99_ns) * 1e-6);
    } else {
      std::snprintf(p50, sizeof(p50), "-");
      std::snprintf(p99, sizeof(p99), "-");
    }
    std::printf("%4d %5d %-7s %3u %-28s %12.0f %7.1f%% %8lluK %8llu %6llu "
                "%4llu %4llu %8s %8s %8.0f\n",
                s.rank, s.slot.pid, state_name(s.slot.state),
                s.slot.incarnation, stage, s.slot.points_per_sec,
                s.slot.wait_ratio * 100.0,
                static_cast<unsigned long long>(s.slot.rss_kb),
                static_cast<unsigned long long>(s.slot.samples),
                static_cast<unsigned long long>(s.slot.anomalies),
                static_cast<unsigned long long>(s.slot.respawns_total),
                static_cast<unsigned long long>(s.slot.regrow_epochs), p50,
                p99, age_ms);
  }
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  std::string segment;
  bool once = false;
  bool json = false;
  long interval_ms = 500;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--pid") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      segment = keybin2::runtime::profile::telemetry_name_for_pid(
          std::atoi(v));
    } else if (arg == "--segment") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      segment = v;
    } else if (arg == "--once") {
      once = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--interval-ms") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      interval_ms = std::atol(v);
      if (interval_ms < 10) interval_ms = 10;
    } else {
      return usage(argv[0]);
    }
  }
  if (segment.empty()) return usage(argv[0]);

  std::string error;
  auto reader = RankSegment::attach(segment, &error);
  if (reader == nullptr) {
    std::fprintf(stderr, "kb2_top: %s\n", error.c_str());
    return 1;
  }

  if (once) {
    if (json) {
      std::fputs(
          keybin2::runtime::profile::top_snapshot_json(*reader,
                                                       keybin2::now_ns())
              .c_str(),
          stdout);
    } else {
      print_table(*reader, /*clear_screen=*/false);
    }
    return 0;
  }

  // Refresh until the job unlinks the segment (our mapping stays valid; a
  // fresh attach failing is the job-ended signal).
  for (;;) {
    if (json) {
      std::fputs(
          keybin2::runtime::profile::top_snapshot_json(*reader,
                                                       keybin2::now_ns())
              .c_str(),
          stdout);
      std::fflush(stdout);
    } else {
      print_table(*reader, /*clear_screen=*/true);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    std::string probe_error;
    if (RankSegment::attach(segment, &probe_error) == nullptr) {
      if (!json) std::printf("\njob ended (%s)\n", probe_error.c_str());
      return 0;
    }
  }
}
