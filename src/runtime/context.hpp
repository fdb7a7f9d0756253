// The runtime Context: everything a pipeline stage needs from its
// environment, bundled per rank.
//
//   Context
//   ├── comm::Communicator  — this rank's endpoint (owned SelfComm for
//   │                         serial runs, or borrowed from the SPMD harness)
//   ├── ThreadPool          — worker pool for data-parallel kernels
//   │                         (defaults to the process-wide global_pool())
//   ├── Rng                 — deterministic per-context random stream,
//   │                         seeded explicitly
//   ├── Tracer              — per-rank timed scopes + traffic attribution
//   ├── MetricsRegistry     — counters/gauges/latency histograms + traffic
//   │                         matrix (populated once enable_comm_metrics())
//   ├── EventLog            — structured events (silent until a sink is set)
//   └── optional planes, each switched on by its enable_*() call:
//       Timeline, HealthMonitor, profile::Profiler, flight::FlightRecorder
//
// Every clustering driver (batch fit, streaming refit, out-of-core,
// md::insitu) executes its stages against a Context, so timing,
// communication volume, and randomness are owned in exactly one place.
//
// The Context is the only place that knows which planes are on. A plane
// that needs a sibling looks it up through its owning Context when it uses
// it (the profiler asks for the timeline at stop(); the comm probe below
// asks for it at every message), and the health monitor and the profiler
// read waits and anomaly counts from the registry — so the planes may be
// enabled in any order.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>

#include "comm/communicator.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "runtime/flight/flight.hpp"
#include "runtime/health.hpp"
#include "runtime/log.hpp"
#include "runtime/metrics.hpp"
#include "runtime/profile/profiler.hpp"
#include "runtime/segment.hpp"
#include "runtime/timeline.hpp"
#include "runtime/tracer.hpp"

namespace keybin2::runtime {

class Context : private comm::CommProbe {
 public:
  /// Distributed context: borrow this rank's communicator endpoint (the
  /// caller — typically run_ranks() — keeps it alive for the context's
  /// lifetime).
  explicit Context(comm::Communicator& comm, std::uint64_t seed = 42,
                   ThreadPool* pool = nullptr)
      : comm_(&comm), pool_(pool != nullptr ? pool : &global_pool()),
        rng_(seed), tracer_(&comm), log_(comm.rank()) {}

  /// Serial context: owns a single-rank SelfComm.
  explicit Context(std::uint64_t seed = 42, ThreadPool* pool = nullptr)
      : owned_comm_(std::make_unique<comm::SelfComm>()),
        comm_(owned_comm_.get()),
        pool_(pool != nullptr ? pool : &global_pool()), rng_(seed),
        tracer_(owned_comm_.get()) {}

  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  ~Context() override {
    // The communicator may be borrowed and outlive us; never leave it
    // holding hooks into this (about to die) context.
    if (comm_metrics_) comm_->set_probe(nullptr);
    if (flight_ != nullptr) comm_->set_flight_hook(nullptr);
    // Detach the observers so a scope racing destruction can't call a dead
    // one, and stop the profiler now: its final flush reads the
    // communicator, registry and timeline through this context, and the
    // subgroups it may be using die before it in member order.
    if (profiler_ != nullptr) tracer_.remove_observer(profiler_.get());
    if (flight_ != nullptr) tracer_.remove_observer(flight_.get());
    profiler_.reset();
  }

  comm::Communicator& comm() { return *comm_; }
  const comm::Communicator& comm() const { return *comm_; }
  ThreadPool& pool() { return *pool_; }
  Rng& rng() { return rng_; }
  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }

  int rank() const { return comm_->rank(); }
  int size() const { return comm_->size(); }
  bool is_root() const { return comm_->rank() == 0; }

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  EventLog& log() { return log_; }
  /// Non-null once enable_timeline() was called.
  Timeline* timeline() { return timeline_.get(); }

  /// Start deep comm instrumentation: this context becomes the
  /// communicator's probe and feeds its MetricsRegistry with the per-(peer,
  /// tag) traffic matrix, recv/barrier wait histograms, and mailbox depth
  /// gauges (plus flow events, once the timeline is on). Idempotent.
  void enable_comm_metrics() {
    comm_->set_probe(this);
    comm_metrics_ = true;
  }

  /// Start timeline capture: tracer scopes become spans, and (via the comm
  /// probe, enabled as a side effect) each send/recv becomes one end of a
  /// flow event. Idempotent.
  void enable_timeline() {
    if (timeline_ == nullptr) {
      timeline_ = std::make_unique<Timeline>(comm_->rank());
      // A respawned rank's events render on their own track ("rank N
      // (inc I)") in the Chrome export, and the capture epoch anchors the
      // lane so incarnations stay aligned in merged traces.
      timeline_->set_incarnation(comm_->incarnation());
      timeline_->set_epoch_ns(now_ns());
      tracer_.set_timeline(timeline_.get());
    }
    enable_comm_metrics();
  }

  /// Start live health monitoring: an EWMA-baseline HealthMonitor observes
  /// every tracer scope close and, through the registry's wait histograms
  /// (the comm probe is enabled as a side effect), every recv/barrier wait,
  /// emitting stage_latency_anomaly / wait_ratio_anomaly events into this
  /// context's EventLog. Idempotent; the config of the first call wins.
  void enable_health_monitor(HealthConfig config = {}) {
    if (health_ == nullptr) {
      health_ = std::make_unique<HealthMonitor>(&log_, &metrics_, config);
      tracer_.add_observer(health_.get());
    }
    enable_comm_metrics();
  }

  /// Non-null once enable_health_monitor() was called.
  HealthMonitor* health() { return health_.get(); }

  /// Start the continuous profiler (DESIGN.md §8): a sampling profiler over
  /// the tracer's stage scopes, per-stage hardware counters (degrading to
  /// timing-only where perf_event_open is refused), and — when `slot` is
  /// non-null — live telemetry publishes into that slot of the launcher's
  /// RankSegment. Deep comm metrics come on as a side effect (the telemetry
  /// wait ratio needs the wait histograms). Idempotent; the config and slot
  /// of the first call win. The profiler flushes its gauges and density
  /// counters at stop() — called from the Context destructor, or explicitly
  /// for mid-run reports.
  void enable_profiler(profile::ProfilerConfig config = {},
                       profile::TelemetrySlot* slot = nullptr) {
    if (profiler_ == nullptr) {
      profiler_ = std::make_unique<profile::Profiler>(*this, config, slot);
      tracer_.add_observer(profiler_.get());
    }
    enable_comm_metrics();
    profiler_->start();
  }

  /// Non-null once enable_profiler() was called.
  profile::Profiler* profiler() { return profiler_.get(); }

  /// Attach this rank to the flight rings of the launcher's pre-fork
  /// RankSegment (DESIGN.md §10): stage transitions (tracer observer) and
  /// comm op begin/end (FlightHook on the communicator) stream into the
  /// rank's black-box ring, which the supervisor dumps on abnormal death.
  /// Idempotent; the first segment wins.
  void enable_flight_recorder(RankSegment* segment) {
    if (segment == nullptr || flight_ != nullptr) return;
    flight_ = std::make_unique<flight::FlightRecorder>(
        segment, comm_->rank(), comm_->incarnation());
    tracer_.add_observer(flight_.get());
    comm_->set_flight_hook(flight_.get());
  }

  /// Non-null once enable_flight_recorder() was called.
  flight::FlightRecorder* flight() { return flight_.get(); }

  /// Merge all ranks' traces at root (collective; see reduce_report()).
  TraceReport trace_report() { return reduce_report(tracer_, *comm_); }

  /// Merge all ranks' metrics at root (collective; see merge_metrics()).
  MetricsReport metrics_report() { return merge_metrics(metrics_, *comm_); }

  /// ULFM-style shrink-and-continue: after a comm::CommError, every
  /// surviving rank calls this in step. It runs the agree_survivors()
  /// rendezvous and, if ranks were lost, swaps this context's communicator
  /// for a SubgroupComm over the survivors (densely renumbered; rank()/
  /// size()/is_root() all reflect the shrunken group afterwards), rebinds
  /// the tracer, and records the loss in the "degraded_ranks" counter (at
  /// the new root only, so the cross-rank counter sum equals the total
  /// number of excluded ranks). Returns false when nobody was lost — the
  /// failure was transient (e.g. a corrupt frame) and the caller should
  /// simply retry over the same group.
  bool shrink_to_survivors() {
    // Failures visible before the rendezvous tell regrow apart from a plain
    // transient retry: if somebody was dead going in but the agreed set is
    // still full-width, a respawned incarnation rejoined and the group grew
    // back (process backend, recovery ladder rung 3).
    const bool had_failures = !comm_->failed_ranks().empty();
    const auto t0 = std::chrono::steady_clock::now();
    auto survivors = comm_->agree_survivors();
    const std::int64_t latency_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count();
    metrics_.histogram("recovery_latency_ns").record(latency_ns);
    const int lost = comm_->size() - static_cast<int>(survivors.size());
    if (lost == 0) {
      if (had_failures) {
        metrics_.add("regrow_epochs");
        log_.warn("regrow", {{"size", std::to_string(comm_->size())}});
        if (timeline_ != nullptr) timeline_->add_instant("regrow", now_ns());
        if (flight_ != nullptr) {
          flight_->event(flight::EventType::kRecovery, "regrow",
                         static_cast<std::uint64_t>(comm_->size()));
        }
      }
      return false;
    }
    auto sub =
        std::make_unique<comm::SubgroupComm>(*comm_, std::move(survivors));
    comm_ = sub.get();
    // Earlier subgroups must stay alive: each SubgroupComm borrows its
    // parent, so repeated shrinks form a chain down to the original comm.
    subgroups_.push_back(std::move(sub));
    tracer_.rebind(comm_);
    excluded_ranks_ += lost;
    metrics_.add("survivor_shrinks");
    log_.warn("survivor_shrink",
              {{"lost", std::to_string(lost)},
               {"survivors", std::to_string(comm_->size())}});
    if (timeline_ != nullptr) {
      timeline_->add_instant("survivor_shrink", now_ns());
    }
    if (flight_ != nullptr) {
      flight_->event(flight::EventType::kRecovery, "shrink",
                     static_cast<std::uint64_t>(comm_->size()));
    }
    if (comm_->rank() == 0) {
      tracer_.counter("degraded_ranks", static_cast<double>(lost));
    }
    return true;
  }

  /// True once shrink_to_survivors() has excluded at least one rank.
  bool degraded() const { return excluded_ranks_ > 0; }

  /// Total ranks excluded across all shrinks of this context.
  int excluded_ranks() const { return excluded_ranks_; }

 private:
  // comm::CommProbe, attached by enable_comm_metrics(): every completed
  // send/recv/barrier lands in the registry and, once the timeline is on,
  // on it as a flow endpoint or a wait.
  void on_send(int, int dest, int tag, std::size_t bytes,
               std::uint64_t flow_id, std::size_t queue_depth) override {
    metrics_.record_send(dest, tag, bytes, queue_depth);
    if (timeline_ != nullptr) {
      timeline_->add_flow(flow_id, now_ns(), /*start=*/true, dest, tag, bytes);
    }
  }
  void on_recv(int, int src, int tag, std::size_t bytes, std::uint64_t flow_id,
               std::int64_t wait_ns) override {
    metrics_.record_recv(src, tag, bytes, wait_ns);
    if (timeline_ != nullptr) {
      timeline_->add_flow(flow_id, now_ns(), /*start=*/false, src, tag, bytes,
                          wait_ns);
    }
  }
  void on_barrier(int, std::int64_t wait_ns) override {
    metrics_.record_barrier(wait_ns);
    if (timeline_ != nullptr) timeline_->add_wait("barrier", now_ns(), wait_ns);
  }

  std::unique_ptr<comm::Communicator> owned_comm_;  // serial mode only
  comm::Communicator* comm_;
  ThreadPool* pool_;
  Rng rng_;
  Tracer tracer_;
  MetricsRegistry metrics_;
  EventLog log_;
  std::unique_ptr<Timeline> timeline_;
  std::unique_ptr<HealthMonitor> health_;
  bool comm_metrics_ = false;  // this context is the communicator's probe
  std::unique_ptr<profile::Profiler> profiler_;
  std::unique_ptr<flight::FlightRecorder> flight_;
  std::vector<std::unique_ptr<comm::SubgroupComm>> subgroups_;
  int excluded_ranks_ = 0;
};

}  // namespace keybin2::runtime
