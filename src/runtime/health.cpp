#include "runtime/health.hpp"

#include <cstdio>

#include "runtime/log.hpp"
#include "runtime/metrics.hpp"

namespace keybin2::runtime {

namespace {

std::string format_ms(double ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", ns * 1e-6);
  return buf;
}

std::string format_ratio(double r) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", r);
  return buf;
}

}  // namespace

std::string HealthMonitor::baseline_key(std::string_view path) {
  return fold_scope_path(path);
}

std::int64_t HealthMonitor::blocked_ns() const {
  return metrics_ != nullptr ? metrics_->blocked_ns() : 0;
}

void HealthMonitor::on_scope_open(std::string_view path) {
  open_.push_back(OpenScope{baseline_key(path), blocked_ns()});
}

void HealthMonitor::on_scope_close(std::string_view path,
                                   std::int64_t wall_ns) {
  const std::string key = baseline_key(path);
  std::int64_t wait_ns = 0;
  if (!open_.empty() && open_.back().key == key) {
    wait_ns = blocked_ns() - open_.back().blocked_at_open;
    open_.pop_back();
  } else {
    // Attached mid-run: this close has no recorded open. Drop any stale
    // frames (they can never match again) and skip the wait attribution.
    open_.clear();
  }

  auto& b = baselines_[key];
  const auto wall = static_cast<double>(wall_ns);
  const double ratio =
      wall_ns > 0 ? static_cast<double>(wait_ns) / wall : 0.0;

  if (b.count >= config_.warmup && wall_ns >= config_.min_wall_ns) {
    if (wall > config_.latency_factor * b.ewma_wall_ns &&
        b.ewma_wall_ns > 0.0) {
      ++anomalies_;
      if (metrics_ != nullptr) metrics_->add("health_latency_anomalies");
      if (log_ != nullptr) {
        log_->warn("stage_latency_anomaly",
                   {{"stage", key},
                    {"wall_ms", format_ms(wall)},
                    {"baseline_ms", format_ms(b.ewma_wall_ns)}});
      }
    }
    if (ratio > b.ewma_wait_ratio + config_.wait_ratio_slack) {
      ++anomalies_;
      if (metrics_ != nullptr) metrics_->add("health_wait_anomalies");
      if (log_ != nullptr) {
        log_->warn("wait_ratio_anomaly",
                   {{"stage", key},
                    {"wait_ratio", format_ratio(ratio)},
                    {"baseline", format_ratio(b.ewma_wait_ratio)}});
      }
    }
  }

  // Baseline update comes after the check so one slow outlier alarms
  // instead of dragging its own threshold up first.
  if (b.count == 0) {
    b.ewma_wall_ns = wall;
    b.ewma_wait_ratio = ratio;
  } else {
    b.ewma_wall_ns += config_.ewma_alpha * (wall - b.ewma_wall_ns);
    b.ewma_wait_ratio += config_.ewma_alpha * (ratio - b.ewma_wait_ratio);
  }
  ++b.count;
}

}  // namespace keybin2::runtime
