// Shared plumbing for the table/figure reproduction harnesses.
//
// Every bench accepts (the three counts must be at least 1):
//   --points-per-rank N   shard size (default: scaled-down for a laptop/CI)
//   --ranks N             simulated MPI ranks
//   --runs N              independent repetitions (paper: 20)
//   --seed S              base seed
//   --full                the paper's sizes (80,000 points per rank, 20 runs)
//   --trace               per-stage pipeline breakdown (wall time + traffic)
// and prints the same rows the paper's table/figure reports, as
// mean +/- stddev over the runs.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/utsname.h>
#include <unistd.h>
#endif

#include "comm/launch.hpp"
#include "core/keybin2.hpp"
#include "data/gaussian_mixture.hpp"
#include "data/partition.hpp"
#include "runtime/context.hpp"
#include "runtime/json.hpp"
#include "runtime/metrics.hpp"
#include "runtime/tracer.hpp"
#include "stats/distributions.hpp"
#include "stats/metrics.hpp"

// Build provenance, injected by the kb2_provenance CMake interface target.
// The fallbacks keep bench_util.hpp compilable from targets that don't link
// it — their reports just say "unknown", and the compare warns accordingly.
#ifndef KB2_GIT_SHA
#define KB2_GIT_SHA "unknown"
#endif
#ifndef KB2_COMPILER_ID
#define KB2_COMPILER_ID "unknown"
#endif
#ifndef KB2_COMPILER_VERSION
#define KB2_COMPILER_VERSION ""
#endif
#ifndef KB2_BUILD_FLAGS
#define KB2_BUILD_FLAGS "unknown"
#endif

namespace keybin2::bench {

struct Options {
  std::size_t points_per_rank = 2000;
  int ranks = 16;
  int runs = 3;
  std::uint64_t seed = 42;
  bool full = false;
  bool trace = false;
  std::string name = "bench";  // argv[0] basename; names BENCH_<name>.json

  static Options parse(int argc, char** argv) {
    Options o;
    if (argc >= 1 && argv[0] != nullptr) {
      std::string_view path = argv[0];
      if (const auto slash = path.find_last_of('/');
          slash != std::string_view::npos) {
        path.remove_prefix(slash + 1);
      }
      if (!path.empty()) o.name = std::string(path);
    }
    for (int i = 1; i < argc; ++i) {
      auto next = [&](const char* flag) -> const char* {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "missing value for %s\n", flag);
          std::exit(2);
        }
        return argv[++i];
      };
      // A count below 1 would measure nothing (or crash the harness).
      auto count = [&](const char* flag) -> long long {
        const long long v = std::strtoll(next(flag), nullptr, 10);
        if (v < 1 || v > std::numeric_limits<int>::max()) {
          std::fprintf(stderr, "%s must be a count from 1 to %d\n", flag,
                       std::numeric_limits<int>::max());
          std::exit(2);
        }
        return v;
      };
      if (!std::strcmp(argv[i], "--points-per-rank")) {
        o.points_per_rank =
            static_cast<std::size_t>(count("--points-per-rank"));
      } else if (!std::strcmp(argv[i], "--ranks")) {
        o.ranks = static_cast<int>(count("--ranks"));
      } else if (!std::strcmp(argv[i], "--runs")) {
        o.runs = static_cast<int>(count("--runs"));
      } else if (!std::strcmp(argv[i], "--seed")) {
        o.seed = std::strtoull(next("--seed"), nullptr, 10);
      } else if (!std::strcmp(argv[i], "--full")) {
        o.full = true;
        o.points_per_rank = 80000;
        o.runs = 20;
      } else if (!std::strcmp(argv[i], "--trace")) {
        o.trace = true;
      } else if (!std::strcmp(argv[i], "--help")) {
        std::printf(
            "usage: %s [--points-per-rank N] [--ranks N] [--runs N] "
            "[--seed S] [--full] [--trace]\n",
            argv[0]);
        std::exit(0);
      } else {
        std::fprintf(stderr, "unknown flag %s (try --help)\n", argv[i]);
        std::exit(2);
      }
    }
    return o;
  }
};

/// Print a merged per-stage trace (from Context::trace_report()) under a
/// caption. No-op for empty reports, so non-root ranks can call it freely.
inline void print_trace(const char* caption,
                        const runtime::TraceReport& report) {
  if (report.empty()) return;
  std::printf("-- %s --\n%s", caption, report.format().c_str());
}

/// mean +/- stddev accumulator over runs.
class Series {
 public:
  void add(double x) { m_.add(x); }
  double mean() const { return m_.mean(); }
  double stddev() const { return m_.stddev(); }
  std::string str(int precision = 3) const {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f +/- %.*f", precision, mean(),
                  precision, stddev());
    return buf;
  }

 private:
  stats::OnlineMoments m_;
};

/// Accuracy row for one method on one run: noise labels (-1) become
/// singletons, matching how the paper scores pdsdbscan's output.
struct Accuracy {
  double clusters = 0.0;
  double recall = 0.0;
  double precision = 0.0;
  double f1 = 0.0;
};

inline Accuracy score_labels(std::vector<int> predicted,
                             const std::vector<int>& truth) {
  int next = 0;
  for (int l : predicted) next = std::max(next, l + 1);
  for (auto& l : predicted) {
    if (l < 0) l = next++;
  }
  const auto s = stats::pairwise_scores(predicted, truth);
  Accuracy a;
  a.clusters = static_cast<double>(stats::distinct_labels(predicted));
  a.recall = s.recall;
  a.precision = s.precision;
  a.f1 = s.f1;
  return a;
}

/// Machine-readable mirror of what a bench prints, written to
/// BENCH_<name>.json at exit. Collects three kinds of payload:
///   * rows    — every MethodSeries::print_row call (mean/stddev per column),
///   * series  — ad-hoc named scalar series a bench wants persisted,
///   * captures — merged trace + metrics reports from instrumented fits.
/// A report carries only what its bench measured: a bench that never
/// captures writes an empty captures array. A singleton so print_row can
/// feed it without threading a handle through every harness.
class Reporter {
 public:
  static Reporter& global() {
    static Reporter r;
    return r;
  }

  /// Label attached to subsequently recorded rows (e.g. "ranks=4").
  void set_section(std::string section) { section_ = std::move(section); }

  void add_row(const char* method, const Series& clusters,
               const Series& recall, const Series& precision, const Series& f1,
               const Series& time) {
    rows_.push_back(Row{section_, method, clusters, recall, precision, f1,
                        time});
  }

  void add_series(const std::string& key, const Series& s) {
    series_.emplace_back(key, s);
  }

  /// Collective over ctx.comm(): merge this fit's trace + metrics; the root
  /// rank stores them under `label`, every other rank stores nothing. Call
  /// ctx.enable_comm_metrics() before the fit or the traffic matrix and wait
  /// histograms come back empty.
  void capture(runtime::Context& ctx, const std::string& label) {
    auto trace = ctx.trace_report();
    auto metrics = ctx.metrics_report();
    if (ctx.is_root()) {
      captures_.push_back(
          Capture{label, std::move(trace), std::move(metrics)});
    }
  }

  /// Write BENCH_<opt.name>.json into the working directory.
  void write(const Options& opt) {
    runtime::JsonWriter w;
    w.begin_object();
    w.key("bench").value(opt.name);
    emit_machine(w);
    emit_provenance(w);
    w.key("options").begin_object();
    w.key("points_per_rank").value(static_cast<std::uint64_t>(
        opt.points_per_rank));
    w.key("ranks").value(opt.ranks);
    w.key("runs").value(opt.runs);
    w.key("seed").value(opt.seed);
    w.key("full").value(opt.full);
    w.end_object();

    w.key("rows").begin_array();
    for (const auto& r : rows_) {
      w.begin_object();
      if (!r.section.empty()) w.key("section").value(r.section);
      w.key("method").value(r.method);
      emit_series(w, "clusters", r.clusters);
      emit_series(w, "recall", r.recall);
      emit_series(w, "precision", r.precision);
      emit_series(w, "f1", r.f1);
      emit_series(w, "time_s", r.time);
      w.end_object();
    }
    w.end_array();

    w.key("series").begin_object();
    for (const auto& [key, s] : series_) emit_series(w, key, s);
    w.end_object();

    w.key("captures").begin_array();
    for (const auto& c : captures_) {
      w.begin_object();
      w.key("label").value(c.label);
      emit_trace(w, c.trace);
      w.key("metrics");
      c.metrics.to_json(w);
      w.end_object();
    }
    w.end_array();
    w.end_object();

    const std::string path = "BENCH_" + opt.name + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return;
    }
    std::fwrite(w.str().data(), 1, w.str().size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("wrote %s (%zu rows, %zu captures)\n", path.c_str(),
                rows_.size(), captures_.size());
  }

 private:
  struct Row {
    std::string section;
    std::string method;
    Series clusters, recall, precision, f1, time;
  };
  struct Capture {
    std::string label;
    runtime::TraceReport trace;
    runtime::MetricsReport metrics;
  };

  /// Machine provenance so a committed baseline records where its numbers
  /// came from. The perf gate compares options, not machines — but a FAIL
  /// against a baseline from different hardware is diagnosable from this
  /// block instead of a mystery.
  static void emit_machine(runtime::JsonWriter& w) {
    w.key("machine").begin_object();
    w.key("hardware_concurrency")
        .value(static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
#if defined(__unix__) || defined(__APPLE__)
    char host[256] = {};
    if (gethostname(host, sizeof(host) - 1) == 0) {
      w.key("hostname").value(host);
    }
    struct utsname uts{};
    if (uname(&uts) == 0) {
      w.key("os").value(std::string(uts.sysname) + " " + uts.release);
      w.key("arch").value(uts.machine);
    }
#endif
    w.end_object();
  }

  /// Build provenance next to the machine block: which commit, compiler,
  /// and flags produced these numbers. kb2_analyze --compare warns (never
  /// fails) when a report and its baseline disagree here — a regression
  /// measured against a baseline from another compiler is a different
  /// conversation than one from the same build.
  static void emit_provenance(runtime::JsonWriter& w) {
    w.key("provenance").begin_object();
    w.key("git_sha").value(KB2_GIT_SHA);
    w.key("compiler").value(KB2_COMPILER_ID " " KB2_COMPILER_VERSION);
    w.key("flags").value(KB2_BUILD_FLAGS);
    w.end_object();
  }

  static void emit_series(runtime::JsonWriter& w, std::string_view key,
                          const Series& s) {
    w.key(key).begin_object();
    w.key("mean").value(s.mean());
    w.key("stddev").value(s.stddev());
    w.end_object();
  }

  static void emit_trace(runtime::JsonWriter& w,
                         const runtime::TraceReport& trace) {
    w.key("trace").begin_object();
    w.key("ranks").value(trace.ranks);
    w.key("counters").begin_object();
    for (const auto& [name, v] : trace.counters) w.key(name).value(v);
    w.end_object();
    w.key("stages").begin_array();
    for (const auto& s : trace.stages) {
      w.begin_object();
      w.key("path").value(s.path);
      w.key("ranks").value(s.ranks);
      w.key("calls").value(s.calls);
      w.key("min_s").value(s.min_seconds);
      w.key("mean_s").value(s.mean_seconds);
      w.key("max_s").value(s.max_seconds);
      w.key("messages_sent").value(s.traffic.messages_sent);
      w.key("bytes_sent").value(s.traffic.bytes_sent);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }

  std::string section_;
  std::vector<Row> rows_;
  std::vector<std::pair<std::string, Series>> series_;
  std::vector<Capture> captures_;
};

/// One printed table row, paper format:
/// method | clusters | recall | precision | F1 | time (s)
struct MethodSeries {
  Series clusters, recall, precision, f1, time;

  void add(const Accuracy& a, double seconds) {
    clusters.add(a.clusters);
    recall.add(a.recall);
    precision.add(a.precision);
    f1.add(a.f1);
    time.add(seconds);
  }

  void print_row(const char* method) const {
    std::printf("%-18s %18s %16s %16s %16s %18s\n", method,
                clusters.str(2).c_str(), recall.str(3).c_str(),
                precision.str(3).c_str(), f1.str(3).c_str(),
                time.str(2).c_str());
    Reporter::global().add_row(method, clusters, recall, precision, f1, time);
  }
};

inline void print_header() {
  std::printf("%-18s %18s %16s %16s %16s %18s\n", "Method", "Clusters",
              "Recall", "Precision", "F1", "Time (sec)");
}

}  // namespace keybin2::bench
