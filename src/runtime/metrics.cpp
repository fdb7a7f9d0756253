#include "runtime/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <set>

#include "common/serialize.hpp"
#include "common/timer.hpp"
#include "runtime/health.hpp"
#include "runtime/json.hpp"
#include "runtime/timeline.hpp"

namespace keybin2::runtime {

std::string human_bytes(std::uint64_t bytes) {
  char buf[32];
  if (bytes >= 10ull * 1024 * 1024) {
    std::snprintf(buf, sizeof(buf), "%.1f MiB",
                  static_cast<double>(bytes) / (1024.0 * 1024.0));
  } else if (bytes >= 10ull * 1024) {
    std::snprintf(buf, sizeof(buf), "%.1f KiB",
                  static_cast<double>(bytes) / 1024.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%llu B",
                  static_cast<unsigned long long>(bytes));
  }
  return buf;
}

// ---- LatencyHistogram ----

namespace {

int bucket_index(std::int64_t ns) {
  if (ns <= 1) return 0;
  return std::bit_width(static_cast<std::uint64_t>(ns)) - 1;
}

// Both terms are non-negative; a sum past INT64_MAX saturates there.
std::int64_t saturating_add(std::int64_t a, std::int64_t b) {
  std::int64_t sum = 0;
  return __builtin_add_overflow(a, b, &sum)
             ? std::numeric_limits<std::int64_t>::max()
             : sum;
}

}  // namespace

void LatencyHistogram::record(std::int64_t ns) {
  if (ns < 0) ns = 0;
  ++buckets_[static_cast<std::size_t>(bucket_index(ns))];
  if (count_ == 0 || ns < min_ns_) min_ns_ = ns;
  if (ns > max_ns_) max_ns_ = ns;
  sum_ns_ = saturating_add(sum_ns_, ns);
  ++count_;
}

void LatencyHistogram::merge(const LatencyHistogram& o) {
  if (o.count_ == 0) return;
  for (int i = 0; i < kBuckets; ++i) buckets_[i] += o.buckets_[i];
  if (count_ == 0 || o.min_ns_ < min_ns_) min_ns_ = o.min_ns_;
  max_ns_ = std::max(max_ns_, o.max_ns_);
  sum_ns_ = saturating_add(sum_ns_, o.sum_ns_);
  count_ += o.count_;
}

double LatencyHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto target = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  std::uint64_t cum = 0;
  for (int i = 0; i < kBuckets; ++i) {
    cum += buckets_[static_cast<std::size_t>(i)];
    if (cum >= std::max<std::uint64_t>(target, 1)) {
      // The bucket spans [2^i, 2^(i+1)); report its upper edge, clamped to
      // the observed extremes so tails are not overstated.
      const double upper = i >= 62 ? static_cast<double>(max_ns_)
                                   : static_cast<double>(1ull << (i + 1));
      return std::clamp(upper, static_cast<double>(min_ns()),
                        static_cast<double>(max_ns_));
    }
  }
  return static_cast<double>(max_ns_);
}

// ---- MetricsRegistry ----

void MetricsRegistry::add(std::string_view name, std::uint64_t delta) {
  counters_[std::string(name)] += delta;
}

void MetricsRegistry::gauge_max(std::string_view name, double value) {
  auto [it, inserted] = gauges_.try_emplace(std::string(name), value);
  if (!inserted) it->second = std::max(it->second, value);
}

LatencyHistogram& MetricsRegistry::histogram(std::string_view name) {
  return histograms_[std::string(name)];
}

void MetricsRegistry::record_send(int peer, int tag, std::size_t bytes,
                                  std::size_t queue_depth) {
  auto& ch = sent_[{peer, tag}];
  ++ch.messages;
  ch.bytes += bytes;
  gauge_max("mailbox_depth", static_cast<double>(queue_depth));
}

void MetricsRegistry::record_recv(int peer, int tag, std::size_t bytes,
                                  std::int64_t wait_ns) {
  auto& ch = received_[{peer, tag}];
  ++ch.messages;
  ch.bytes += bytes;
  histogram("recv_wait").record(wait_ns);
}

void MetricsRegistry::record_barrier(std::int64_t wait_ns) {
  histogram("barrier_wait").record(wait_ns);
}

bool MetricsRegistry::empty() const {
  return counters_.empty() && gauges_.empty() && histograms_.empty() &&
         sent_.empty() && received_.empty();
}

void MetricsRegistry::reset() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
  sent_.clear();
  received_.clear();
}

// ---- CommMonitor ----

void CommMonitor::on_send(int self, int dest, int tag, std::size_t bytes,
                          std::uint64_t flow_id, std::size_t queue_depth) {
  (void)self;
  registry_->record_send(dest, tag, bytes, queue_depth);
  if (timeline_ != nullptr) {
    timeline_->add_flow(flow_id, now_ns(), /*start=*/true, dest, tag, bytes);
  }
}

void CommMonitor::on_recv(int self, int src, int tag, std::size_t bytes,
                          std::uint64_t flow_id, std::int64_t wait_ns) {
  (void)self;
  registry_->record_recv(src, tag, bytes, wait_ns);
  if (timeline_ != nullptr) {
    timeline_->add_flow(flow_id, now_ns(), /*start=*/false, src, tag, bytes,
                        wait_ns);
  }
  if (health_ != nullptr) health_->record_wait(wait_ns);
}

void CommMonitor::on_barrier(int self, std::int64_t wait_ns) {
  (void)self;
  registry_->record_barrier(wait_ns);
  if (timeline_ != nullptr) {
    timeline_->add_wait("barrier", now_ns(), wait_ns);
  }
  if (health_ != nullptr) health_->record_wait(wait_ns);
}

// ---- merge_metrics / MetricsReport ----

MetricsReport merge_metrics(const MetricsRegistry& registry,
                            comm::Communicator& comm, int root) {
  ByteWriter writer;
  writer.write<std::uint64_t>(registry.counters().size());
  for (const auto& [name, value] : registry.counters()) {
    writer.write_string(name);
    writer.write(value);
  }
  writer.write<std::uint64_t>(registry.gauges().size());
  for (const auto& [name, value] : registry.gauges()) {
    writer.write_string(name);
    writer.write(value);
  }
  writer.write<std::uint64_t>(registry.histograms().size());
  for (const auto& [name, hist] : registry.histograms()) {
    writer.write_string(name);
    writer.write(hist);  // trivially copyable: fixed buckets + scalars
  }
  writer.write<std::uint64_t>(registry.sent().size());
  for (const auto& [key, traffic] : registry.sent()) {
    writer.write(key.first);
    writer.write(key.second);
    writer.write(traffic);
  }

  const auto gathered = comm.gather(writer.bytes(), root);
  MetricsReport report;
  if (comm.rank() != root) return report;

  report.ranks = comm.size();
  for (std::size_t src = 0; src < gathered.size(); ++src) {
    ByteReader reader(gathered[src]);
    const auto n_counters = reader.read<std::uint64_t>();
    for (std::uint64_t i = 0; i < n_counters; ++i) {
      const auto name = reader.read_string();
      report.counters[name] += reader.read<std::uint64_t>();
    }
    const auto n_gauges = reader.read<std::uint64_t>();
    for (std::uint64_t i = 0; i < n_gauges; ++i) {
      const auto name = reader.read_string();
      const auto value = reader.read<double>();
      auto [it, inserted] = report.gauges.try_emplace(name, value);
      if (!inserted) it->second = std::max(it->second, value);
    }
    const auto n_hists = reader.read<std::uint64_t>();
    for (std::uint64_t i = 0; i < n_hists; ++i) {
      const auto name = reader.read_string();
      report.histograms[name].merge(reader.read<LatencyHistogram>());
    }
    const auto n_sent = reader.read<std::uint64_t>();
    for (std::uint64_t i = 0; i < n_sent; ++i) {
      const auto dst = reader.read<int>();
      const auto tag = reader.read<int>();
      const auto traffic = reader.read<ChannelTraffic>();
      auto& ch = report.channels[{static_cast<int>(src), dst, tag}];
      ch.messages += traffic.messages;
      ch.bytes += traffic.bytes;
    }
  }
  return report;
}

std::string MetricsReport::heatmap() const {
  // Collapse channels over tags into a src -> dst byte matrix.
  std::map<std::pair<int, int>, std::uint64_t> matrix;
  std::map<int, ChannelTraffic> by_tag;
  for (const auto& [key, traffic] : channels) {
    const auto& [src, dst, tag] = key;
    matrix[{src, dst}] += traffic.bytes;
    auto& t = by_tag[tag];
    t.messages += traffic.messages;
    t.bytes += traffic.bytes;
  }

  std::string out = "comm heatmap (bytes sent, row=src, col=dst)\n";
  char cell[64];
  std::snprintf(cell, sizeof(cell), "%8s", "");
  out += cell;
  for (int dst = 0; dst < ranks; ++dst) {
    std::snprintf(cell, sizeof(cell), " %10s",
                  ("dst " + std::to_string(dst)).c_str());
    out += cell;
  }
  out += '\n';
  for (int src = 0; src < ranks; ++src) {
    std::snprintf(cell, sizeof(cell), "%8s",
                  ("src " + std::to_string(src)).c_str());
    out += cell;
    for (int dst = 0; dst < ranks; ++dst) {
      const auto it = matrix.find({src, dst});
      const std::uint64_t bytes = it == matrix.end() ? 0 : it->second;
      std::snprintf(cell, sizeof(cell), " %10s",
                    bytes == 0 ? "." : human_bytes(bytes).c_str());
      out += cell;
    }
    out += '\n';
  }

  out += "per-tag totals\n";
  for (const auto& [tag, traffic] : by_tag) {
    std::snprintf(cell, sizeof(cell), "  %-16s %6llu msgs %12s\n",
                  comm::tag_name(tag).c_str(),
                  static_cast<unsigned long long>(traffic.messages),
                  human_bytes(traffic.bytes).c_str());
    out += cell;
  }
  return out;
}

std::string MetricsReport::format() const {
  std::string out;
  char line[160];
  if (!counters.empty()) {
    out += "metrics counters\n";
    for (const auto& [name, value] : counters) {
      std::snprintf(line, sizeof(line), "  %-28s %llu\n", name.c_str(),
                    static_cast<unsigned long long>(value));
      out += line;
    }
  }
  if (!histograms.empty()) {
    std::snprintf(line, sizeof(line), "%-16s %8s %10s %10s %10s %10s\n",
                  "latency", "count", "p50(us)", "p95(us)", "p99(us)",
                  "max(us)");
    out += line;
    for (const auto& [name, hist] : histograms) {
      std::snprintf(line, sizeof(line),
                    "%-16s %8llu %10.1f %10.1f %10.1f %10.1f\n", name.c_str(),
                    static_cast<unsigned long long>(hist.count()),
                    hist.quantile(0.50) / 1e3, hist.quantile(0.95) / 1e3,
                    hist.quantile(0.99) / 1e3,
                    static_cast<double>(hist.max_ns()) / 1e3);
      out += line;
    }
  }
  if (!gauges.empty()) {
    out += "gauges (max)\n";
    for (const auto& [name, value] : gauges) {
      std::snprintf(line, sizeof(line), "  %-28s %.6g\n", name.c_str(), value);
      out += line;
    }
  }
  if (!channels.empty()) out += heatmap();
  return out;
}

std::string MetricsReport::deterministic_fingerprint() const {
  // Maps iterate in key order, so the rendering is stable by construction.
  std::string out;
  char line[160];
  for (const auto& [name, value] : counters) {
    std::snprintf(line, sizeof(line), "counter %s=%llu\n", name.c_str(),
                  static_cast<unsigned long long>(value));
    out += line;
  }
  for (const auto& [key, traffic] : channels) {
    const auto& [src, dst, tag] = key;
    std::snprintf(line, sizeof(line), "chan %d->%d %s msgs=%llu bytes=%llu\n",
                  src, dst, comm::tag_name(tag).c_str(),
                  static_cast<unsigned long long>(traffic.messages),
                  static_cast<unsigned long long>(traffic.bytes));
    out += line;
  }
  for (const auto& [name, hist] : histograms) {
    std::snprintf(line, sizeof(line), "hist %s count=%llu\n", name.c_str(),
                  static_cast<unsigned long long>(hist.count()));
    out += line;
  }
  return out;
}

void MetricsReport::to_json(JsonWriter& w) const {
  w.begin_object();
  w.key("ranks").value(ranks);

  w.key("deterministic").begin_object();
  w.key("counters").begin_object();
  for (const auto& [name, value] : counters) {
    w.key(name).value(std::uint64_t(value));
  }
  w.end_object();
  w.key("channels").begin_array();
  for (const auto& [key, traffic] : channels) {
    const auto& [src, dst, tag] = key;
    w.begin_object();
    w.key("src").value(src);
    w.key("dst").value(dst);
    w.key("tag").value(comm::tag_name(tag));
    w.key("messages").value(std::uint64_t(traffic.messages));
    w.key("bytes").value(std::uint64_t(traffic.bytes));
    w.end_object();
  }
  w.end_array();
  w.key("histogram_counts").begin_object();
  for (const auto& [name, hist] : histograms) {
    w.key(name).value(std::uint64_t(hist.count()));
  }
  w.end_object();
  w.end_object();  // deterministic

  w.key("timing").begin_object();
  w.key("histograms").begin_object();
  for (const auto& [name, hist] : histograms) {
    w.key(name).begin_object();
    w.key("p50_us").value(hist.quantile(0.50) / 1e3);
    w.key("p95_us").value(hist.quantile(0.95) / 1e3);
    w.key("p99_us").value(hist.quantile(0.99) / 1e3);
    w.key("max_us").value(static_cast<double>(hist.max_ns()) / 1e3);
    w.key("mean_us").value(hist.mean_ns() / 1e3);
    w.end_object();
  }
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, value] : gauges) w.key(name).value(value);
  w.end_object();
  w.end_object();  // timing

  w.end_object();
}

}  // namespace keybin2::runtime
