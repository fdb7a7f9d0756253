#include "runtime/profile/profiler.hpp"

#include <algorithm>

#include "common/timer.hpp"
#include "runtime/context.hpp"

namespace keybin2::runtime::profile {

Profiler::Profiler(Context& ctx, ProfilerConfig config, TelemetrySlot* slot)
    : ctx_(ctx), config_(config), sampler_(&cursor_, &table_, &density_) {
  if (slot != nullptr) {
    telemetry_ = std::make_unique<TelemetryPublisher>(
        slot, config_.telemetry_cadence_ns);
  }
}

Profiler::~Profiler() { stop(); }

bool Profiler::perf_available() const {
  return perf_ != nullptr && perf_->available();
}

void Profiler::start() {
  if (running_) return;
  running_ = true;
  start_ns_ = now_ns();
  density_.t0_ns = start_ns_;
  rate_last_ns_ = start_ns_;

  if (config_.perf_counters) {
    perf_ = std::make_unique<PerfCounterGroup>();
    if (!perf_->available()) {
      // Degrade loudly-but-once: hardened containers refuse even
      // self-monitoring perf_event_open, and that must not kill the run.
      ctx_.log().info("profiler_degraded",
                      {{"reason", "perf_event_open unavailable"}});
      ctx_.metrics().gauge_max("profiler_degraded", 1.0);
    }
  }

  cursor_.publish("");
  active_mode_ = sampler_.start(config_.sampler_mode,
                                config_.sample_interval_us,
                                ctx_.comm().process_isolated());
  publish_telemetry(/*force=*/true, TelemetrySlot::kLive);
}

void Profiler::stop() {
  if (!running_) return;
  sampler_.stop();
  running_ = false;
  flush();
  publish_telemetry(/*force=*/true, TelemetrySlot::kDone);
}

void Profiler::flush() {
  auto& metrics = ctx_.metrics();
  metrics.gauge_max("profiler_samples", static_cast<double>(table_.total()));
  metrics.gauge_max("profiler_dropped_samples",
                    static_cast<double>(table_.dropped()));
  // Per-stage hardware ratios. Gauges, never counters: counters feed the
  // deterministic fingerprint and hardware counts vary run to run.
  for (const auto& [stage, sample] : perf_by_stage_) {
    if (sample.cycles == 0) continue;
    metrics.gauge_max("perf/" + stage + "/ipc",
                      static_cast<double>(sample.instructions) /
                          static_cast<double>(sample.cycles));
    if (sample.instructions > 0) {
      metrics.gauge_max("perf/" + stage + "/llc_per_kinst",
                        1000.0 * static_cast<double>(sample.llc_misses) /
                            static_cast<double>(sample.instructions));
    }
  }
  if (Timeline* timeline = ctx_.timeline()) {
    // Sample density as a counter track: one point per non-empty bucket
    // (single-threaded here — sampling has stopped).
    for (std::size_t i = 0; i < DensitySeries::kMaxBuckets; ++i) {
      const auto n = density_.counts[i].load(std::memory_order_relaxed);
      if (n == 0) continue;
      timeline->add_counter(
          "sample_density", density_.t0_ns + static_cast<std::int64_t>(i) *
                                                 density_.bucket_ns,
          static_cast<double>(n));
    }
  }
}

std::string Profiler::folded_output() const {
  // Fold iteration instances ("trial12" -> "trial*") so the flamegraph
  // merges per-trial frames, then collapse '/' to ';' per the collapsed
  // stack convention.
  std::map<std::string, std::uint64_t> folded;
  table_.for_each([&](std::string_view path, std::uint64_t count) {
    folded[collapse_stack(fold_scope_path(path))] += count;
  });
  std::string out;
  for (const auto& [stack, count] : folded) {
    out += stack;
    out += ' ';
    out += std::to_string(count);
    out += '\n';
  }
  if (table_.dropped() > 0) {
    out += "(dropped) " + std::to_string(table_.dropped()) + '\n';
  }
  return out;
}

void Profiler::on_scope_open(std::string_view path) {
  cursor_.publish(path);
  path_stack_.emplace_back(path);
  if (perf_available()) {
    PerfSample at_open;
    perf_->read(&at_open);
    perf_stack_.push_back(at_open);
  }
  publish_telemetry(/*force=*/false, TelemetrySlot::kLive);
}

void Profiler::on_scope_close(std::string_view path) {
  // Attached mid-scope: closes may arrive for opens we never saw. Only pop
  // frames we pushed.
  if (!path_stack_.empty() && path_stack_.back() == path) {
    path_stack_.pop_back();
    if (!perf_stack_.empty()) {
      if (perf_available()) {
        PerfSample at_close;
        perf_->read(&at_close);
        // Inclusive per-stage attribution: nested stages also accrue to
        // their ancestors. Fine for the ratio gauges this feeds.
        perf_by_stage_[fold_scope_path(path)] +=
            at_close - perf_stack_.back();
      }
      perf_stack_.pop_back();
    }
  }
  cursor_.publish(path_stack_.empty() ? std::string_view{}
                                      : std::string_view{path_stack_.back()});
  publish_telemetry(/*force=*/false, TelemetrySlot::kLive);
}

TelemetryPublisher::Update Profiler::telemetry_update(std::uint32_t state) {
  const auto& metrics = ctx_.metrics();
  TelemetryPublisher::Update u;
  u.state = state;
  u.incarnation = static_cast<std::uint32_t>(ctx_.comm().incarnation());
  u.samples = table_.total();
  u.stage = path_stack_.empty() ? std::string_view{}
                                : std::string_view{path_stack_.back()};
  const std::int64_t t = now_ns();
  u.points_total = metrics.counter("points_binned");
  // Windowed points/sec: refresh the rate every >=200 ms so it reads as
  // "current throughput", not the whole-run average.
  if (t - rate_last_ns_ >= 200'000'000) {
    rate_value_ = static_cast<double>(u.points_total - rate_last_points_) *
                  1e9 / static_cast<double>(t - rate_last_ns_);
    rate_last_points_ = u.points_total;
    rate_last_ns_ = t;
  }
  u.points_per_sec = rate_value_;
  const double wall_ns = static_cast<double>(t - start_ns_);
  u.wait_ratio =
      wall_ns > 0
          ? std::min(1.0, static_cast<double>(metrics.blocked_ns()) / wall_ns)
          : 0.0;
  u.anomalies = metrics.counter("health_latency_anomalies") +
                metrics.counter("health_wait_anomalies");
  // Recovery-ladder accounting (telemetry v2): group-wide respawn/regrow
  // totals from the transport, per-rank latency quantiles from the
  // shrink_to_survivors() histogram. All timing-derived values stay out of
  // the counters (fingerprint discipline).
  u.respawns_total = ctx_.comm().respawns_total();
  u.regrow_epochs = ctx_.comm().regrow_epochs();
  const auto hit = metrics.histograms().find("recovery_latency_ns");
  if (hit != metrics.histograms().end() && hit->second.count() > 0) {
    u.recovery_p50_ns = static_cast<std::int64_t>(hit->second.quantile(0.5));
    u.recovery_p99_ns = static_cast<std::int64_t>(hit->second.quantile(0.99));
  }
  return u;
}

void Profiler::publish_telemetry(bool force, std::uint32_t state) {
  if (telemetry_ == nullptr) return;
  const auto u = telemetry_update(state);
  if (force) {
    telemetry_->publish_now(u);
  } else {
    telemetry_->maybe_publish(u);
  }
}

}  // namespace keybin2::runtime::profile
