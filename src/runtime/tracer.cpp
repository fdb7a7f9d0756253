#include "runtime/tracer.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "common/error.hpp"
#include "common/serialize.hpp"
#include "runtime/metrics.hpp"   // human_bytes

namespace keybin2::runtime {

std::string fold_scope_path(std::string_view path) {
  std::string key;
  key.reserve(path.size());
  std::size_t start = 0;
  while (start <= path.size()) {
    auto slash = path.find('/', start);
    if (slash == std::string_view::npos) slash = path.size();
    auto part = path.substr(start, slash - start);
    // A component with a digit tail is an iteration instance: trial0,
    // trial17, chunk3 all fold onto one stage.
    std::size_t digits = part.size();
    while (digits > 0 && part[digits - 1] >= '0' && part[digits - 1] <= '9') {
      --digits;
    }
    if (!key.empty()) key += '/';
    key += part.substr(0, digits);
    if (digits != part.size()) key += '*';
    start = slash + 1;
  }
  return key;
}

Tracer::Scope& Tracer::Scope::operator=(Scope&& o) noexcept {
  if (this != &o) {
    close();
    tracer_ = o.tracer_;
    o.tracer_ = nullptr;
  }
  return *this;
}

void Tracer::Scope::close() {
  if (tracer_ != nullptr) {
    tracer_->close_top();
    tracer_ = nullptr;
  }
}

Tracer::Scope Tracer::scope(std::string_view name) {
  Frame frame;
  if (!stack_.empty()) {
    frame.path = stack_.back().path;
    frame.path += '/';
  }
  frame.path += name;
  if (comm_ != nullptr) frame.at_open = comm_->stats();
  stack_.push_back(std::move(frame));
  if (observer_ != nullptr) observer_->on_scope_open(stack_.back().path);
  return Scope(this);
}

void Tracer::close_top() {
  KB2_CHECK_MSG(!stack_.empty(), "Tracer scope closed with empty stack");
  Frame frame = std::move(stack_.back());
  stack_.pop_back();

  const std::int64_t t1 = now_ns();
  if (observer_ != nullptr) {
    observer_->on_scope_close(frame.path, frame.t0_ns, t1);
  }
  auto& entry = entries_[frame.path];
  ++entry.calls;
  entry.seconds += static_cast<double>(t1 - frame.t0_ns) * 1e-9;
  if (comm_ != nullptr) {
    const auto delta = comm_->stats() - frame.at_open;
    // Exclusive attribution: children already claimed their share.
    entry.traffic += delta - frame.child_traffic;
    if (!stack_.empty()) stack_.back().child_traffic += delta;
  }
}

void Tracer::counter(std::string_view name, double delta) {
  counters_[std::string(name)] += delta;
}

comm::TrafficStats Tracer::total_traffic() const {
  comm::TrafficStats total;
  for (const auto& [path, entry] : entries_) total += entry.traffic;
  return total;
}

void Tracer::reset() {
  KB2_CHECK_MSG(stack_.empty(), "Tracer::reset with open scopes");
  entries_.clear();
  counters_.clear();
}

comm::TrafficStats TraceReport::total_traffic() const {
  comm::TrafficStats total;
  for (const auto& s : stages) total += s.traffic;
  return total;
}

std::string TraceReport::format() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-36s %6s %10s %10s %10s %14s %14s\n",
                "stage", "calls", "min(ms)", "mean(ms)", "max(ms)",
                "sent", "recv");
  out += line;
  for (const auto& s : stages) {
    std::snprintf(line, sizeof(line),
                  "%-36s %6llu %10.3f %10.3f %10.3f %9s/%-4llu %9s/%-4llu\n",
                  s.path.c_str(), static_cast<unsigned long long>(s.calls),
                  s.min_seconds * 1e3, s.mean_seconds * 1e3,
                  s.max_seconds * 1e3, human_bytes(s.traffic.bytes_sent).c_str(),
                  static_cast<unsigned long long>(s.traffic.messages_sent),
                  human_bytes(s.traffic.bytes_received).c_str(),
                  static_cast<unsigned long long>(s.traffic.messages_received));
    out += line;
  }
  const auto total = total_traffic();
  std::snprintf(line, sizeof(line),
                "%-36s %6s %10s %10s %10s %9s/%-4llu %9s/%-4llu\n", "total",
                "", "", "", "", human_bytes(total.bytes_sent).c_str(),
                static_cast<unsigned long long>(total.messages_sent),
                human_bytes(total.bytes_received).c_str(),
                static_cast<unsigned long long>(total.messages_received));
  out += line;
  for (const auto& [name, value] : counters) {
    std::snprintf(line, sizeof(line), "%-36s %.6g\n", name.c_str(), value);
    out += line;
  }
  return out;
}

TraceReport reduce_report(const Tracer& tracer, comm::Communicator& comm,
                          int root) {
  // Serialize this rank's trace...
  ByteWriter writer;
  writer.write<std::uint64_t>(tracer.entries().size());
  for (const auto& [path, entry] : tracer.entries()) {
    writer.write_string(path);
    writer.write(entry.calls);
    writer.write(entry.seconds);
    writer.write(entry.traffic);
  }
  writer.write<std::uint64_t>(tracer.counters().size());
  for (const auto& [name, value] : tracer.counters()) {
    writer.write_string(name);
    writer.write(value);
  }

  // ...and gather all ranks at root.
  const auto gathered = comm.gather(writer.bytes(), root);
  TraceReport report;
  if (comm.rank() != root) return report;

  struct Merged {
    int ranks = 0;
    std::uint64_t calls = 0;
    double min_s = std::numeric_limits<double>::infinity();
    double sum_s = 0.0;
    double max_s = 0.0;
    comm::TrafficStats traffic;
  };
  std::map<std::string, Merged> merged;
  for (const auto& blob : gathered) {
    ByteReader reader(blob);
    const auto n_entries = reader.read<std::uint64_t>();
    for (std::uint64_t i = 0; i < n_entries; ++i) {
      const auto path = reader.read_string();
      auto& m = merged[path];
      ++m.ranks;
      m.calls = std::max(m.calls, reader.read<std::uint64_t>());
      const auto seconds = reader.read<double>();
      m.min_s = std::min(m.min_s, seconds);
      m.sum_s += seconds;
      m.max_s = std::max(m.max_s, seconds);
      m.traffic += reader.read<comm::TrafficStats>();
    }
    const auto n_counters = reader.read<std::uint64_t>();
    for (std::uint64_t i = 0; i < n_counters; ++i) {
      const auto name = reader.read_string();
      report.counters[name] += reader.read<double>();
    }
  }

  report.ranks = comm.size();
  report.stages.reserve(merged.size());
  for (const auto& [path, m] : merged) {
    StageStats s;
    s.path = path;
    s.ranks = m.ranks;
    s.calls = m.calls;
    s.min_seconds = m.min_s;
    s.mean_seconds = m.sum_s / static_cast<double>(m.ranks);
    s.max_seconds = m.max_s;
    s.traffic = m.traffic;
    report.stages.push_back(std::move(s));
  }
  return report;
}

}  // namespace keybin2::runtime
