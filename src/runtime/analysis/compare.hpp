// Baseline/current comparison for the continuous perf-regression gate.
//
// compare_reports() diffs two JSON documents of the same shape — either two
// bench reports (BENCH_<name>.json, written by bench::Reporter) or two
// trace-analysis reports (kb2_analyze --json) — and classifies every shared
// metric:
//   * timing series   — lower-better walls ("*_seconds", "time_s") and
//     higher-better speedups. The tolerance is noise-calibrated: each bench
//     series carries mean/stddev over its runs, so the acceptance band is
//       tol = min(0.9, max(time_tol, noise_k * cv)),  cv = stddev/mean.
//     A quiet series gets the floor tolerance; a noisy one gets a band wide
//     enough that k-sigma jitter cannot trip the gate. The 0.9 cap means a
//     genuine 2x slowdown always fails, no matter how noisy the baseline.
//   * byte counters   — "reduce_bytes_*", per-stage bytes_sent. These are
//     seed-deterministic, so they get the tight bytes_tol with no noise
//     widening; growth beyond it is a regression even when runtime is fine.
//   * imbalance       — per-stage max/mean factors, gated only for stages
//     big enough to measure (min_stage_seconds) and only against a 2x-style
//     relative threshold, because thread-simulated ranks on a shared CI box
//     jitter hard.
// Structural mismatches (different bench options, a baseline from a machine
// with a different hardware_concurrency, a metric present in the baseline
// but missing now) are errors, not silently skipped: losing coverage must
// fail the gate too.
//
// scale_time exists for the gate's self-test: it multiplies current timing
// values by a synthetic factor, so `--perf-gate` can prove the gate trips
// on a 2x slowdown without actually slowing the machine down.
#pragma once

#include <string>
#include <vector>

namespace keybin2::runtime {

class JsonValue;

struct CompareOptions {
  double time_tol = 0.5;        // floor tolerance for timing series
  double bytes_tol = 0.10;      // deterministic byte counters
  double imbalance_tol = 1.0;   // stage imbalance may grow up to (1+tol)x
  double noise_k = 3.0;         // widen timing tol to k * cv
  double scale_time = 1.0;      // synthetic slowdown injected into `current`
  double min_stage_seconds = 1e-3;  // ignore smaller stages for imbalance
};

/// One compared metric. `ratio` is current/baseline (after scale_time);
/// `tolerance` the effective acceptance band that was applied.
struct CompareFinding {
  std::string metric;
  double baseline = 0.0;
  double current = 0.0;
  double ratio = 1.0;
  double tolerance = 0.0;
  bool gated = false;      // participated in pass/fail (vs. informational)
  bool regressed = false;
};

struct CompareResult {
  std::vector<CompareFinding> findings;
  std::vector<std::string> errors;  // structural problems; any entry fails
  // Advisory notes that never gate: provenance drift (different commit,
  // compiler, or flags between baseline and current) changes what a timing
  // difference *means* but is a legitimate state during development, so it
  // is surfaced loudly in format() without failing ok().
  std::vector<std::string> warnings;

  bool ok() const {
    if (!errors.empty()) return false;
    for (const auto& f : findings) {
      if (f.regressed) return false;
    }
    return true;
  }
  int regressions() const {
    int n = 0;
    for (const auto& f : findings) n += f.regressed ? 1 : 0;
    return n;
  }

  /// Human-readable table: every gated metric, regressions flagged, errors
  /// listed, one-line verdict at the end.
  std::string format() const;
};

/// Diff `current` against `baseline`. Dispatches on document shape: a
/// "bench" key selects the bench-report comparison, a "critical_path" key
/// the trace-analysis comparison; anything else is a structural error.
CompareResult compare_reports(const JsonValue& baseline,
                              const JsonValue& current,
                              const CompareOptions& opts = {});

}  // namespace keybin2::runtime
