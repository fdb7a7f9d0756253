// The runtime Context: everything a pipeline stage needs from its
// environment, bundled per rank.
//
//   Context
//   ├── comm::Communicator  — this rank's endpoint (owned SelfComm for
//   │                         serial runs, or borrowed from the SPMD harness)
//   ├── Rng                 — deterministic per-context random stream,
//   │                         seeded explicitly
//   ├── Tracer              — per-rank timed scopes + traffic attribution
//   ├── MetricsRegistry     — counters/gauges/latency histograms + traffic
//   │                         matrix (populated once enable_comm_metrics())
//   ├── EventLog            — structured events (silent until a sink is set)
//   └── optional planes, each switched on by its enable_*() call:
//       Timeline, HealthMonitor, profile::Profiler, flight::FlightWriter
//
// Every clustering driver (batch fit, streaming refit, out-of-core,
// md::insitu) executes its stages against a Context, so timing,
// communication volume, and randomness are owned in exactly one place.
//
// The Context is the only place that knows which planes are on, the only
// receiver of events and the only writer of planes. Each event is emitted
// once, into the Context, which fans it out to the planes that are on:
//   * a stage boundary — the Context is the Tracer's one scope observer;
//   * a comm op begin or completion — the Context is the communicator's one
//     CommProbe;
//   * a runtime event (survivor shrink, regrow, checkpoint write/restore,
//     retry, abandon) — one event() call.
// A plane that needs a sibling looks it up through its owning Context when
// it uses it (the profiler asks for the timeline at stop()), and the health
// monitor and the profiler read waits and anomaly counts from the registry
// — so the planes may be enabled in any order.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>

#include "comm/communicator.hpp"
#include "common/rng.hpp"
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

class Context : private comm::CommProbe, private ScopeObserver {
 public:
  /// Distributed context: borrow this rank's communicator endpoint (the
  /// caller — typically run_ranks() — keeps it alive for the context's
  /// lifetime).
  explicit Context(comm::Communicator& comm, std::uint64_t seed = 42)
      : comm_(&comm), rng_(seed), tracer_(&comm), log_(comm.rank()) {}

  /// Serial context: owns a single-rank SelfComm.
  explicit Context(std::uint64_t seed = 42)
      : owned_comm_(std::make_unique<comm::SelfComm>()),
        comm_(owned_comm_.get()), rng_(seed), tracer_(owned_comm_.get()) {}

  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  ~Context() override {
    // The communicator may be borrowed and outlive us; never leave it
    // holding a hook into this (about to die) context.
    if (comm_metrics_ || flight_ != nullptr) comm_->set_probe(nullptr);
    // Stop the profiler now: its final flush reads the communicator,
    // registry and timeline through this context, and the subgroups it may
    // be using die before it in member order.
    profiler_.reset();
  }

  comm::Communicator& comm() { return *comm_; }
  const comm::Communicator& comm() const { return *comm_; }
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

  /// Start deep comm instrumentation: the registry gets the per-(peer,
  /// tag) traffic matrix, recv/barrier wait histograms, and mailbox depth
  /// gauges. Idempotent.
  void enable_comm_metrics() {
    comm_metrics_ = true;
    hook();
  }

  /// Start timeline capture: tracer scopes become spans, each send/recv one
  /// end of a flow event, each runtime event an instant (comm metrics come
  /// on as a side effect). Idempotent.
  void enable_timeline() {
    if (timeline_ == nullptr) {
      timeline_ = std::make_unique<Timeline>(comm_->rank());
      // A respawned rank's events render on their own track ("rank N
      // (inc I)") in the Chrome export, and the capture epoch anchors the
      // lane so incarnations stay aligned in merged traces.
      timeline_->set_incarnation(comm_->incarnation());
      timeline_->set_epoch_ns(now_ns());
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
    }
    enable_comm_metrics();
    profiler_->start();
  }

  /// Non-null once enable_profiler() was called.
  profile::Profiler* profiler() { return profiler_.get(); }

  /// Attach this rank to the flight rings of the launcher's pre-fork
  /// RankSegment (DESIGN.md §10): stage transitions, comm op begins and
  /// completions, and runtime events stream into the rank's black-box
  /// ring, which the supervisor dumps on abnormal death. Puts nothing into
  /// the registry. Idempotent; the first segment wins.
  void enable_flight_recorder(RankSegment* segment) {
    if (segment == nullptr || flight_ != nullptr) return;
    flight_ = std::make_unique<flight::FlightWriter>(segment, comm_->rank(),
                                                     comm_->incarnation());
    hook();
  }

  /// One runtime event, emitted once: the EventLog gets `name` at `level`
  /// with `attrs`; and, for whichever planes are on, the timeline gets an
  /// instant and the flight ring a point record of `type` carrying `value`.
  void event(LogLevel level, std::string_view name, flight::EventType type,
             std::uint64_t value,
             std::vector<std::pair<std::string, std::string>> attrs) {
    log_.event(level, name, std::move(attrs));
    if (timeline_ != nullptr) {
      timeline_->add_instant(std::string(name), now_ns());
    }
    record_flight(type, flight::EventPhase::kPoint, -1, -1, value, name);
  }

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
        event(LogLevel::kWarn, "regrow", flight::EventType::kRecovery,
              static_cast<std::uint64_t>(comm_->size()),
              {{"size", std::to_string(comm_->size())}});
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
    event(LogLevel::kWarn, "survivor_shrink", flight::EventType::kRecovery,
          static_cast<std::uint64_t>(comm_->size()),
          {{"lost", std::to_string(lost)},
           {"survivors", std::to_string(comm_->size())}});
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
  /// Become the communicator's probe and the tracer's observer: the one
  /// path every comm op and stage boundary takes to the planes.
  void hook() {
    comm_->set_probe(this);
    tracer_.set_observer(this);
  }

  void record_flight(flight::EventType type, flight::EventPhase phase,
                     int peer, int tag, std::uint64_t bytes,
                     std::string_view detail = {}) {
    if (flight_ != nullptr) {
      flight_->record(type, phase, peer, tag, bytes, detail);
    }
  }

  // ScopeObserver: each stage boundary, fanned out to the planes.
  void on_scope_open(std::string_view path) override {
    record_flight(flight::EventType::kStage, flight::EventPhase::kBegin, -1,
                  -1, 0, path);
    if (health_ != nullptr) health_->on_scope_open(path);
    if (profiler_ != nullptr) profiler_->on_scope_open(path);
  }
  void on_scope_close(std::string_view path, std::int64_t t0_ns,
                      std::int64_t t1_ns) override {
    if (timeline_ != nullptr) {
      timeline_->add_span(std::string(path), t0_ns, t1_ns);
    }
    record_flight(flight::EventType::kStage, flight::EventPhase::kEnd, -1, -1,
                  static_cast<std::uint64_t>(t1_ns - t0_ns), path);
    if (health_ != nullptr) health_->on_scope_close(path, t1_ns - t0_ns);
    if (profiler_ != nullptr) profiler_->on_scope_close(path);
  }

  // comm::CommProbe: each op's begin and completion. A begin only reaches
  // the flight ring (an unmatched one is the post-mortem's in-flight
  // evidence); a completion also lands in the registry and, once the
  // timeline is on, on it as a flow endpoint or a wait.
  static flight::EventType flight_type(Op op) {
    switch (op) {
      case kSend: return flight::EventType::kSend;
      case kRecv: return flight::EventType::kRecv;
      case kBarrier: return flight::EventType::kBarrier;
      default: return flight::EventType::kAgree;
    }
  }
  void on_begin(int, Op op, int peer, int tag, std::size_t bytes) override {
    record_flight(flight_type(op), flight::EventPhase::kBegin, peer, tag,
                  bytes);
  }
  void on_send(int, int dest, int tag, std::size_t bytes,
               std::uint64_t flow_id, std::size_t queue_depth) override {
    if (comm_metrics_) metrics_.record_send(dest, tag, bytes, queue_depth);
    if (timeline_ != nullptr) {
      timeline_->add_flow(flow_id, now_ns(), /*start=*/true, dest, tag, bytes);
    }
    record_flight(flight::EventType::kSend, flight::EventPhase::kEnd, dest,
                  tag, bytes);
  }
  void on_recv(int, int src, int tag, std::size_t bytes, std::uint64_t flow_id,
               std::int64_t wait_ns) override {
    if (comm_metrics_) metrics_.record_recv(src, tag, bytes, wait_ns);
    if (timeline_ != nullptr) {
      timeline_->add_flow(flow_id, now_ns(), /*start=*/false, src, tag, bytes,
                          wait_ns);
    }
    record_flight(flight::EventType::kRecv, flight::EventPhase::kEnd, src, tag,
                  bytes);
  }
  void on_barrier(int, std::int64_t wait_ns) override {
    if (comm_metrics_) metrics_.record_barrier(wait_ns);
    if (timeline_ != nullptr) timeline_->add_wait("barrier", now_ns(), wait_ns);
    record_flight(flight::EventType::kBarrier, flight::EventPhase::kEnd, -1,
                  -1, 0);
  }
  void on_agree(int, std::size_t survivors) override {
    record_flight(flight::EventType::kAgree, flight::EventPhase::kEnd, -1, -1,
                  survivors);
  }

  std::unique_ptr<comm::Communicator> owned_comm_;  // serial mode only
  comm::Communicator* comm_;
  Rng rng_;
  Tracer tracer_;
  MetricsRegistry metrics_;
  EventLog log_;
  std::unique_ptr<Timeline> timeline_;
  std::unique_ptr<HealthMonitor> health_;
  bool comm_metrics_ = false;  // completions feed the registry
  std::unique_ptr<profile::Profiler> profiler_;
  std::unique_ptr<flight::FlightWriter> flight_;
  std::vector<std::unique_ptr<comm::SubgroupComm>> subgroups_;
  int excluded_ranks_ = 0;
};

}  // namespace keybin2::runtime
