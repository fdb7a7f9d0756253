// MetricsRegistry: per-rank counters, gauges, log-bucketed latency
// histograms, and per-(peer, tag) traffic matrices, with a collective merge
// mirroring the Tracer's reduce_report.
//
// The registry is rank-private (one per Context, written from that rank's
// thread only — same ownership discipline as Tracer). The owning Context
// feeds it from the communicator's probe (Context::enable_comm_metrics):
//   * sent/received traffic per (peer, tag)   — the heatmap's raw data,
//   * "recv_wait" / "barrier_wait" histograms — time blocked, in ns, and the
//     one wait ledger the health monitor and the profiler both read,
//   * "mailbox_depth" gauge                   — destination backlog at send.
//
// merge_metrics() gathers every rank's registry at a root into a
// MetricsReport: counters summed, gauges maxed, histograms bucket-summed,
// and the per-rank send matrices laid out as (src, dst, tag) channels. The
// report knows which of its fields are seed-deterministic (message counts,
// bytes, histogram totals) and which are timing-derived (quantiles, gauges);
// deterministic_fingerprint() covers exactly the former, so two runs with
// the same seed produce bit-identical fingerprints.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <tuple>

#include "comm/communicator.hpp"

namespace keybin2::runtime {

class JsonWriter;

/// "1.2 KiB"-style rendering shared by trace and metrics tables.
std::string human_bytes(std::uint64_t bytes);

/// Fixed-size histogram over power-of-two nanosecond buckets: bucket i
/// counts observations v with floor(log2(v)) == i (v <= 1ns lands in bucket
/// 0). Recording is O(1) with no allocation; quantiles interpolate on the
/// cumulative bucket counts and clamp to the observed min/max.
class LatencyHistogram {
 public:
  static constexpr int kBuckets = 64;

  void record(std::int64_t ns);
  void merge(const LatencyHistogram& o);

  std::uint64_t count() const { return count_; }
  std::int64_t min_ns() const { return count_ == 0 ? 0 : min_ns_; }
  std::int64_t max_ns() const { return max_ns_; }
  /// Sum of every observation (saturating at INT64_MAX).
  std::int64_t sum_ns() const { return sum_ns_; }
  double mean_ns() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_ns_) /
                             static_cast<double>(count_);
  }

  /// Value (ns) at quantile q in [0, 1]: p50 = quantile(0.5).
  double quantile(double q) const;

  const std::array<std::uint64_t, kBuckets>& buckets() const {
    return buckets_;
  }

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::int64_t sum_ns_ = 0;
  std::int64_t min_ns_ = 0;
  std::int64_t max_ns_ = 0;
};

/// Message/byte totals of one directed (peer, tag) channel.
struct ChannelTraffic {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

class MetricsRegistry {
 public:
  /// Monotone counter (events, items, retries).
  void add(std::string_view name, std::uint64_t delta = 1);

  /// High-watermark gauge: keeps the maximum observed value.
  void gauge_max(std::string_view name, double value);

  /// Named latency histogram (created on first use).
  LatencyHistogram& histogram(std::string_view name);

  // Comm-side records, fed by the owning Context's comm probe.
  void record_send(int peer, int tag, std::size_t bytes,
                   std::size_t queue_depth);
  void record_recv(int peer, int tag, std::size_t bytes, std::int64_t wait_ns);
  void record_barrier(std::int64_t wait_ns);

  /// Value of counter `name`; 0 if it was never added to.
  std::uint64_t counter(std::string_view name) const;

  /// Time blocked in recv and barrier so far: the sums of the "recv_wait"
  /// and "barrier_wait" histograms.
  std::int64_t blocked_ns() const;

  const std::map<std::string, std::uint64_t>& counters() const {
    return counters_;
  }
  const std::map<std::string, double>& gauges() const { return gauges_; }
  const std::map<std::string, LatencyHistogram>& histograms() const {
    return histograms_;
  }
  /// (peer, tag) -> traffic, send and receive sides of this rank.
  const std::map<std::pair<int, int>, ChannelTraffic>& sent() const {
    return sent_;
  }
  const std::map<std::pair<int, int>, ChannelTraffic>& received() const {
    return received_;
  }

  bool empty() const;
  void reset();

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, LatencyHistogram> histograms_;
  std::map<std::pair<int, int>, ChannelTraffic> sent_;
  std::map<std::pair<int, int>, ChannelTraffic> received_;
};

/// Cross-rank merge of every rank's registry; valid at the merge root.
struct MetricsReport {
  int ranks = 0;
  std::map<std::string, std::uint64_t> counters;       // summed over ranks
  std::map<std::string, double> gauges;                // max over ranks
  std::map<std::string, LatencyHistogram> histograms;  // bucket-summed
  /// Directed channels from the send side: (src, dst, tag) -> traffic.
  std::map<std::tuple<int, int, int>, ChannelTraffic> channels;

  bool empty() const {
    return counters.empty() && histograms.empty() && channels.empty();
  }

  /// rank×rank heatmap of bytes sent (rows = src, cols = dst), followed by
  /// per-tag totals.
  std::string heatmap() const;

  /// Full human-readable report: counters, latency quantiles, heatmap.
  std::string format() const;

  /// Stable text over the seed-deterministic fields ONLY: counters, channel
  /// message/byte totals, and histogram observation counts. Excludes wall
  /// times, quantiles, and gauges, so two runs of a deterministic workload
  /// compare bit-identically.
  std::string deterministic_fingerprint() const;

  /// Emit as JSON: a "deterministic" section (fingerprint fields) and a
  /// "timing" section (quantiles, means, gauges).
  void to_json(JsonWriter& w) const;
};

/// Collective: gather every rank's registry at `root` and merge. Must be
/// entered by all ranks in step; the root returns the merged report, other
/// ranks an empty one. The gather's own traffic is not included.
MetricsReport merge_metrics(const MetricsRegistry& registry,
                            comm::Communicator& comm, int root = 0);

}  // namespace keybin2::runtime
