// The continuous profiler facade (DESIGN.md §8): one object per Context
// that ties the sampling pieces together.
//
//   Tracer scope open/close ──> Context ──> Profiler
//     ├── StageCursor     republished with the current path; the Sampler
//     │                   (SIGPROF or hub thread) reads it asynchronously
//     ├── PerfCounterGroup read at scope boundaries; per-stage deltas become
//     │                   perf/<stage>/ipc and perf/<stage>/llc_per_kinst
//     │                   gauges at stop()
//     └── TelemetryPublisher rate-limited slot publish (stage, rates, RSS,
//                         anomaly count, incarnation) for kb2_top
//
// The profiler reads everything else through its owning Context when it
// needs it — the communicator, the metrics registry (wait time, anomaly
// counters, points binned), the event log and the timeline (the
// sample_density track at stop()) — so the order in which a Context
// enables its planes does not matter.
//
// Everything perf-derived lands in GAUGES, never counters: counters feed
// deterministic_fingerprint(), and hardware counts differ run to run.
// When perf_event_open is refused (hardened container, CI), the profiler
// degrades to timing-only and records one `profiler_degraded` event plus a
// profiler_degraded gauge — visible, silent, never fatal.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "runtime/profile/perf_counters.hpp"
#include "runtime/profile/sampler.hpp"
#include "runtime/profile/stage_cursor.hpp"
#include "runtime/profile/telemetry.hpp"
#include "runtime/tracer.hpp"

namespace keybin2::runtime {
class Context;
}

namespace keybin2::runtime::profile {

struct ProfilerConfig {
  SamplerMode sampler_mode = SamplerMode::kAuto;
  std::int64_t sample_interval_us = 2000;       // 500 Hz of CPU time
  bool perf_counters = true;
  std::int64_t telemetry_cadence_ns = 25'000'000;  // 25 ms between publishes
};

class Profiler {
 public:
  /// `slot` (nullable) is this rank's slot of the launcher's RankSegment;
  /// the segment must outlive the profiler.
  Profiler(Context& ctx, ProfilerConfig config, TelemetrySlot* slot);
  ~Profiler();
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Probe perf, start the sampler, publish the first telemetry snapshot.
  /// Idempotent.
  void start();
  /// Stop sampling, flush perf + sample gauges and density counters, mark
  /// the telemetry slot done. Idempotent; also run by the destructor.
  void stop();

  bool running() const { return running_; }
  /// The sampler engine actually in use (valid after start()).
  SamplerMode active_mode() const { return active_mode_; }
  bool perf_available() const;

  std::uint64_t samples() const { return table_.total(); }
  std::uint64_t dropped_samples() const { return table_.dropped(); }

  /// Collapsed-stack (flamegraph) output: one "fit;trial*;bin <count>" line
  /// per folded stage, plus "(dropped) <n>" so totals reconcile. Call after
  /// stop().
  std::string folded_output() const;

  /// Scope boundaries, called by the owning Context on the rank thread.
  void on_scope_open(std::string_view path);
  void on_scope_close(std::string_view path);

 private:
  TelemetryPublisher::Update telemetry_update(std::uint32_t state);
  void publish_telemetry(bool force, std::uint32_t state);
  void flush();

  Context& ctx_;
  ProfilerConfig config_;

  StageCursor cursor_;
  SampleTable table_;
  DensitySeries density_;
  Sampler sampler_;
  std::unique_ptr<PerfCounterGroup> perf_;
  std::unique_ptr<TelemetryPublisher> telemetry_;

  bool running_ = false;
  SamplerMode active_mode_ = SamplerMode::kAuto;
  std::int64_t start_ns_ = 0;

  // Scope bookkeeping (rank thread only). The paths mirror the tracer's
  // stack from the moment we attached; closes seen without opens (observer
  // attached mid-scope) are skipped.
  std::vector<std::string> path_stack_;
  std::vector<PerfSample> perf_stack_;
  std::map<std::string, PerfSample> perf_by_stage_;  // folded path -> deltas

  // Windowed points/sec for telemetry.
  std::uint64_t rate_last_points_ = 0;
  std::int64_t rate_last_ns_ = 0;
  double rate_value_ = 0.0;
};

}  // namespace keybin2::runtime::profile
