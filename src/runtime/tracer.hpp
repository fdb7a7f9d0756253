// Per-rank execution tracing for the staged clustering pipeline.
//
// A Tracer records a hierarchy of timed scopes ("fit/trial0/bin") plus named
// counters, per rank. Scopes are RAII and strictly nested; each scope
// attributes to itself
//   * wall time      — inclusive of children (the natural stage reading), and
//   * traffic deltas — EXCLUSIVE of children (sampled from the attached
//     Communicator's TrafficStats at open/close, minus what child scopes
//     consumed), so summing traffic over every scope reproduces the
//     communicator's own totals.
// reduce_report() is a collective that gathers every rank's trace at root
// and merges it into min/mean/max wall time per stage and summed traffic —
// the per-stage breakdown the benches and `keybin2_cli --trace` print.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "comm/communicator.hpp"
#include "common/timer.hpp"

namespace keybin2::runtime {

/// "fit/trial12/bin" -> "fit/trial*/bin": fold per-iteration scope instances
/// onto one canonical stage path (a digit-tailed component becomes "name*").
/// Shared by the HealthMonitor's EWMA baselines and the post-mortem stage
/// table, so live anomalies and kb2_analyze rows use identical keys.
std::string fold_scope_path(std::string_view path);

/// Live observation of scope boundaries. The one observer is the owning
/// runtime Context, which fans each boundary out to the planes it has on.
/// Calls arrive on the tracer's own rank thread, strictly nested, open/close
/// balanced from the moment the observer is attached (an observer attached
/// with scopes already open sees their closes without the opens and must
/// tolerate it). A close carries the scope's open and close stamps on the
/// shared now_ns() clock.
class ScopeObserver {
 public:
  virtual ~ScopeObserver() = default;
  virtual void on_scope_open(std::string_view path) = 0;
  virtual void on_scope_close(std::string_view path, std::int64_t t0_ns,
                              std::int64_t t1_ns) = 0;
};

class Tracer {
 public:
  /// Accumulated measurements of one scope path on one rank.
  struct Entry {
    std::uint64_t calls = 0;
    double seconds = 0.0;          // inclusive wall time
    comm::TrafficStats traffic;    // exclusive: this scope's own traffic
  };

  /// `comm` supplies the traffic counters sampled at scope boundaries; pass
  /// nullptr to trace wall time only.
  explicit Tracer(const comm::Communicator* comm = nullptr) : comm_(comm) {}

  /// Swap the communicator the traffic counters are sampled from — used when
  /// a Context shrinks to a survivor subgroup mid-run. Safe with scopes open
  /// as long as the new communicator's stats() continue the old one's
  /// counters (SubgroupComm delegates to its parent, so they do): open
  /// frames hold their at-open sample by value and deltas stay monotone.
  void rebind(const comm::Communicator* comm) { comm_ = comm; }

  /// Report every scope open/close to `observer` (nullptr detaches). The
  /// observer must outlive its attachment.
  void set_observer(ScopeObserver* observer) { observer_ = observer; }

  /// RAII handle closing its scope on destruction. Scopes must nest: close
  /// (destroy) inner scopes before outer ones.
  class Scope {
   public:
    Scope() = default;
    Scope(Scope&& o) noexcept : tracer_(o.tracer_) { o.tracer_ = nullptr; }
    Scope& operator=(Scope&& o) noexcept;
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { close(); }

    /// Close early (idempotent).
    void close();

   private:
    friend class Tracer;
    explicit Scope(Tracer* tracer) : tracer_(tracer) {}
    Tracer* tracer_ = nullptr;
  };

  /// Open the scope `name` under the currently open scope (path components
  /// joined with '/').
  [[nodiscard]] Scope scope(std::string_view name);

  /// Add `delta` to the named counter.
  void counter(std::string_view name, double delta);

  /// Entries keyed by full scope path, e.g. "fit/trial0/bin".
  const std::map<std::string, Entry>& entries() const { return entries_; }
  const std::map<std::string, double>& counters() const { return counters_; }

  /// Sum of every scope's (exclusive) traffic — matches the communicator's
  /// own counters when all communication happened inside traced scopes.
  comm::TrafficStats total_traffic() const;

  void reset();

 private:
  friend class Scope;

  struct Frame {
    std::string path;
    std::int64_t t0_ns = now_ns();  // shared clock: comparable to flow events
    comm::TrafficStats at_open;
    comm::TrafficStats child_traffic;  // claimed by closed children
  };

  void close_top();

  const comm::Communicator* comm_;
  ScopeObserver* observer_ = nullptr;
  std::vector<Frame> stack_;
  std::map<std::string, Entry> entries_;
  std::map<std::string, double> counters_;
};

/// One stage row of a merged (cross-rank) report.
struct StageStats {
  std::string path;
  int ranks = 0;                 // how many ranks entered this scope
  std::uint64_t calls = 0;       // max over ranks
  double min_seconds = 0.0;      // min over ranks of per-rank total
  double mean_seconds = 0.0;     // mean over reporting ranks
  double max_seconds = 0.0;      // max over ranks
  comm::TrafficStats traffic;    // summed over ranks
};

/// Merged trace: valid at the reduce root, empty elsewhere.
struct TraceReport {
  std::vector<StageStats> stages;          // sorted by path
  std::map<std::string, double> counters;  // summed over ranks
  int ranks = 0;

  bool empty() const { return stages.empty() && counters.empty(); }

  /// Sum of per-stage traffic (== group-wide communicator totals when all
  /// traffic was scoped).
  comm::TrafficStats total_traffic() const;

  /// Human-readable per-stage table.
  std::string format() const;
};

/// Collective: every rank of `comm` contributes its tracer state; the root
/// returns the merged report, every other rank an empty one. Must be entered
/// by all ranks in step (it gathers). The report reflects the tracer state
/// at entry — the gather's own traffic is not included.
TraceReport reduce_report(const Tracer& tracer, comm::Communicator& comm,
                          int root = 0);

}  // namespace keybin2::runtime
