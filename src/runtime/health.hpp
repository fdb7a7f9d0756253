// In-process health monitoring: EWMA baselines of stage latency and
// wait-ratio, with anomalies surfaced live through the EventLog.
//
// Post-mortem trace analysis (runtime/analysis) tells you where a finished
// run spent its time; the HealthMonitor tells you *while the run is still
// going* that a stage suddenly takes 3x its moving baseline, or that a rank
// went from computing to mostly waiting — the live symptom of a straggling
// or fault-injected peer. It observes two streams:
//
//   * Tracer scope closes, relayed by the owning Context — per-path wall
//     time. Repeated scopes ("fit/trial3/bin" folds to "fit/trial*/bin")
//     build an EWMA baseline; a close that exceeds `latency_factor` x
//     baseline after warmup emits a "stage_latency_anomaly" event.
//   * Comm waits — recv/barrier blocked time, read from the registry's
//     "recv_wait" + "barrier_wait" histograms (MetricsRegistry::blocked_ns,
//     filled by the owning Context's comm probe). Each scope close also
//     checks the fraction of its wall spent blocked against an EWMA
//     wait-ratio baseline; a jump beyond `wait_ratio_slack` emits
//     "wait_ratio_anomaly".
//
// Both events carry the stage, the observed value, and the baseline, so a
// degraded run under fault injection is visible in the JSONL log as it
// happens, not just in the post-mortem report. Anomaly counts also land in
// the MetricsRegistry ("health_latency_anomalies" / "health_wait_anomalies")
// so merged metrics show which rank saw them, and the profiler publishes
// their sum to telemetry.
//
// Single-writer like the Tracer: all calls arrive on the owning rank's
// thread.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/tracer.hpp"

namespace keybin2::runtime {

class EventLog;
class MetricsRegistry;

struct HealthConfig {
  double ewma_alpha = 0.2;        // weight of the newest observation
  double latency_factor = 3.0;    // anomaly: wall > factor x EWMA baseline
  double wait_ratio_slack = 0.3;  // anomaly: wait/wall > baseline + slack
  int warmup = 3;                 // observations before a path can alarm
  std::int64_t min_wall_ns = 200'000;  // ignore scopes too short to matter
};

class HealthMonitor final {
 public:
  HealthMonitor(EventLog* log, MetricsRegistry* metrics,
                HealthConfig config = {})
      : log_(log), metrics_(metrics), config_(config) {}

  /// Scope boundaries, called by the owning Context on the rank thread.
  void on_scope_open(std::string_view path);
  void on_scope_close(std::string_view path, std::int64_t wall_ns);

  /// Anomalies emitted so far (latency + wait-ratio).
  std::uint64_t anomalies() const { return anomalies_; }

  /// "fit/trial12/bin" -> "fit/trial*/bin": repeated per-iteration scopes
  /// share one baseline instead of each seeing a single cold sample.
  static std::string baseline_key(std::string_view path);

 private:
  struct Baseline {
    int count = 0;
    double ewma_wall_ns = 0.0;
    double ewma_wait_ratio = 0.0;
  };

  struct OpenScope {
    std::string key;
    std::int64_t blocked_at_open = 0;
  };

  std::int64_t blocked_ns() const;

  EventLog* log_;
  MetricsRegistry* metrics_;
  HealthConfig config_;
  std::vector<OpenScope> open_;
  std::map<std::string, Baseline> baselines_;
  std::uint64_t anomalies_ = 0;
};

}  // namespace keybin2::runtime
