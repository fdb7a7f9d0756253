#include "runtime/analysis/compare.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "runtime/json.hpp"

namespace keybin2::runtime {

namespace {

// How a metric is judged.
enum class Rule {
  kTimeLower,   // walls: bigger is worse, noise-calibrated tolerance
  kTimeHigher,  // speedups: smaller is worse, noise-calibrated tolerance
  kBytesLower,  // deterministic counters: growth beyond bytes_tol is worse
  kImbalance,   // load-balance factor: growth beyond (1+imbalance_tol)x
  kInfo,        // recorded but never gated (accuracy scores etc.)
};

struct MetricValue {
  double mean = 0.0;
  double stddev = 0.0;
  bool present = false;
};

MetricValue read_series(const JsonValue* v) {
  MetricValue m;
  if (v == nullptr || !v->is_object()) return m;
  const auto* mean = v->find("mean");
  if (mean == nullptr || !mean->is_number()) return m;
  m.mean = mean->number();
  m.stddev = JsonValue::number_or(v->find("stddev"), 0.0);
  m.present = true;
  return m;
}

MetricValue read_number(const JsonValue* v) {
  MetricValue m;
  if (v == nullptr || !v->is_number()) return m;
  m.mean = v->number();
  m.present = true;
  return m;
}

bool contains(std::string_view hay, std::string_view needle) {
  return hay.find(needle) != std::string_view::npos;
}

/// Classify a series by name. "reduce_bytes_savings" is a higher-better
/// deterministic ratio; treat it as informational (its byte inputs are
/// gated directly, gating the derived ratio would double-count).
Rule classify(std::string_view key) {
  if (contains(key, "savings")) return Rule::kInfo;
  if (contains(key, "bytes")) return Rule::kBytesLower;
  if (contains(key, "speedup")) return Rule::kTimeHigher;
  if (contains(key, "seconds") || contains(key, "time") ||
      contains(key, "_ns") || contains(key, "_s")) {
    return Rule::kTimeLower;
  }
  return Rule::kInfo;
}

class Comparer {
 public:
  Comparer(const CompareOptions& opts, CompareResult* out)
      : opts_(opts), out_(out) {}

  void error(std::string msg) { out_->errors.push_back(std::move(msg)); }

  void warn(std::string msg) { out_->warnings.push_back(std::move(msg)); }

  void metric(const std::string& name, Rule rule, MetricValue base,
              MetricValue cur) {
    if (!base.present) return;  // baseline never tracked it: nothing to hold
    if (!cur.present) {
      error("metric '" + name + "' present in baseline but missing now");
      return;
    }
    CompareFinding f;
    f.metric = name;
    f.baseline = base.mean;
    f.current = cur.mean;

    switch (rule) {
      case Rule::kTimeLower:
        f.current *= opts_.scale_time;
        f.tolerance = time_tolerance(base);
        f.gated = true;
        f.regressed = f.current > base.mean * (1.0 + f.tolerance) &&
                      f.current - base.mean > kAbsSlackSeconds(name);
        break;
      case Rule::kTimeHigher:
        f.current /= opts_.scale_time;
        f.tolerance = time_tolerance(base);
        f.gated = true;
        f.regressed = f.current < base.mean * (1.0 - f.tolerance /
                                                          (1.0 + f.tolerance));
        break;
      case Rule::kBytesLower:
        f.tolerance = opts_.bytes_tol;
        f.gated = true;
        f.regressed = f.current > base.mean * (1.0 + f.tolerance);
        break;
      case Rule::kImbalance:
        f.tolerance = opts_.imbalance_tol;
        f.gated = true;
        // Imbalance floors at 1.0; require both relative growth and a
        // non-trivial absolute factor so 1.01 -> 1.2 jitter never trips.
        f.regressed = f.current > base.mean * (1.0 + f.tolerance) &&
                      f.current > 2.0;
        break;
      case Rule::kInfo:
        break;
    }
    f.ratio = base.mean != 0.0 ? f.current / base.mean : 0.0;
    out_->findings.push_back(std::move(f));
  }

 private:
  /// Quiet series get the floor; noisy ones k-sigma; nobody escapes 0.9.
  double time_tolerance(const MetricValue& base) const {
    const double cv =
        base.mean > 0.0 ? base.stddev / base.mean : 0.0;
    return std::min(0.9, std::max(opts_.time_tol, opts_.noise_k * cv));
  }

  /// Sub-millisecond walls on a shared box are pure jitter; require an
  /// absolute budget on top of the relative band for *_s series only
  /// (nanosecond-named series come from the analysis side, already large).
  static double kAbsSlackSeconds(const std::string& name) {
    return contains(name, "_ns") ? 0.0 : 1e-4;
  }

  const CompareOptions& opts_;
  CompareResult* out_;
};

void compare_options_block(const JsonValue& base, const JsonValue& cur,
                           Comparer& c) {
  static constexpr const char* kKeys[] = {"points_per_rank", "ranks", "runs",
                                          "seed"};
  for (const char* key : kKeys) {
    const double b = JsonValue::number_or(base.find("options", key), -1.0);
    const double v = JsonValue::number_or(cur.find("options", key), -1.0);
    if (b != v) {
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    "option mismatch: %s baseline=%g current=%g", key, b, v);
      c.error(buf);
    }
  }
}

/// A baseline timed on a machine with another core count gates nothing on
/// this one, so the gate refuses it rather than compare. Reports without a
/// machine block skip the check.
void compare_machine(const JsonValue& base, const JsonValue& cur,
                     Comparer& c) {
  const double b = JsonValue::number_or(
      base.find("machine", "hardware_concurrency"), -1.0);
  const double v = JsonValue::number_or(
      cur.find("machine", "hardware_concurrency"), -1.0);
  if (b >= 0.0 && v >= 0.0 && b != v) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "machine mismatch: hardware_concurrency baseline=%g "
                  "current=%g (re-record the baseline on this machine)",
                  b, v);
    c.error(buf);
  }
}

/// Provenance drift is advisory only: reports produced by a different
/// commit, compiler, or flag set are still comparable numbers, but the
/// reader should know the code under test changed. Old baselines predate
/// the provenance block entirely, so the check only fires when both
/// documents carry one.
void compare_provenance(const JsonValue& base, const JsonValue& cur,
                        Comparer& c) {
  const auto* bp = base.find("provenance");
  const auto* cp = cur.find("provenance");
  if (bp == nullptr || !bp->is_object() || cp == nullptr ||
      !cp->is_object()) {
    return;
  }
  static constexpr const char* kKeys[] = {"git_sha", "compiler", "flags"};
  for (const char* key : kKeys) {
    const auto* bv = bp->find(key);
    const auto* cv = cp->find(key);
    const std::string bs =
        bv != nullptr && bv->is_string() ? bv->string() : "?";
    const std::string cs =
        cv != nullptr && cv->is_string() ? cv->string() : "?";
    if (bs != cs) {
      c.warn("provenance mismatch: " + std::string(key) + " baseline='" +
             bs + "' current='" + cs + "'");
    }
  }
}

void compare_bench(const JsonValue& base, const JsonValue& cur,
                   const CompareOptions& opts, Comparer& c) {
  compare_options_block(base, cur, c);
  compare_machine(base, cur, c);
  compare_provenance(base, cur, c);

  // Named scalar series.
  const auto* bs = base.find("series");
  const auto* cs = cur.find("series");
  if (bs != nullptr && bs->is_object()) {
    for (const auto& [key, v] : bs->members()) {
      c.metric("series/" + key, classify(key), read_series(&v),
               read_series(cs != nullptr ? cs->find(key) : nullptr));
    }
  }

  // Row timings, matched by (section, method).
  auto row_key = [](const JsonValue& row) {
    const auto* section = row.find("section");
    const auto* method = row.find("method");
    std::string key = "rows/";
    if (section != nullptr && section->is_string()) {
      key += section->string() + "/";
    }
    if (method != nullptr && method->is_string()) key += method->string();
    return key;
  };
  const auto* brows = base.find("rows");
  const auto* crows = cur.find("rows");
  if (brows != nullptr && brows->is_array()) {
    for (const auto& brow : brows->array()) {
      const JsonValue* match = nullptr;
      if (crows != nullptr && crows->is_array()) {
        for (const auto& crow : crows->array()) {
          if (row_key(crow) == row_key(brow)) {
            match = &crow;
            break;
          }
        }
      }
      c.metric(row_key(brow) + "/time_s", Rule::kTimeLower,
               read_series(brow.find("time_s")),
               read_series(match != nullptr ? match->find("time_s")
                                            : nullptr));
    }
  }

  // Capture stage walls: per-stage imbalance + deterministic bytes.
  const auto* bcaps = base.find("captures");
  const auto* ccaps = cur.find("captures");
  if (bcaps == nullptr || !bcaps->is_array()) return;
  for (const auto& bcap : bcaps->array()) {
    const auto* label = bcap.find("label");
    if (label == nullptr || !label->is_string()) continue;
    const JsonValue* ccap = nullptr;
    if (ccaps != nullptr && ccaps->is_array()) {
      for (const auto& cand : ccaps->array()) {
        const auto* cl = cand.find("label");
        if (cl != nullptr && cl->is_string() &&
            cl->string() == label->string()) {
          ccap = &cand;
          break;
        }
      }
    }
    const auto* bstages = bcap.find("trace", "stages");
    if (bstages == nullptr || !bstages->is_array()) continue;
    for (const auto& bstage : bstages->array()) {
      const auto* path = bstage.find("path");
      if (path == nullptr || !path->is_string()) continue;
      const JsonValue* cstage = nullptr;
      const auto* cstages =
          ccap != nullptr ? ccap->find("trace", "stages") : nullptr;
      if (cstages != nullptr && cstages->is_array()) {
        for (const auto& cand : cstages->array()) {
          const auto* cp = cand.find("path");
          if (cp != nullptr && cp->is_string() &&
              cp->string() == path->string()) {
            cstage = &cand;
            break;
          }
        }
      }
      const std::string prefix =
          "captures/" + label->string() + "/" + path->string();

      MetricValue bbytes = read_number(bstage.find("bytes_sent"));
      MetricValue cbytes = read_number(
          cstage != nullptr ? cstage->find("bytes_sent") : nullptr);
      c.metric(prefix + "/bytes_sent", Rule::kBytesLower, bbytes, cbytes);

      const double bmean = JsonValue::number_or(bstage.find("mean_s"), 0.0);
      if (bmean < opts.min_stage_seconds) continue;  // too small to judge
      auto imbalance = [](const JsonValue* stage) {
        MetricValue m;
        if (stage == nullptr) return m;
        const double mean = JsonValue::number_or(stage->find("mean_s"), 0.0);
        const double max = JsonValue::number_or(stage->find("max_s"), 0.0);
        if (mean <= 0.0) return m;
        m.mean = max / mean;
        m.present = true;
        return m;
      };
      c.metric(prefix + "/imbalance", Rule::kImbalance, imbalance(&bstage),
               imbalance(cstage));
    }
  }
}

void compare_analysis(const JsonValue& base, const JsonValue& cur,
                      const CompareOptions& opts, Comparer& c) {
  static constexpr const char* kPathKeys[] = {"total_ns", "compute_ns",
                                              "comm_ns", "wait_ns"};
  c.metric("wall_ns", Rule::kTimeLower, read_number(base.find("wall_ns")),
           read_number(cur.find("wall_ns")));
  for (const char* key : kPathKeys) {
    c.metric(std::string("critical_path/") + key, Rule::kTimeLower,
             read_number(base.find("critical_path", key)),
             read_number(cur.find("critical_path", key)));
  }

  const auto* bstages = base.find("stages");
  const auto* cstages = cur.find("stages");
  if (bstages == nullptr || !bstages->is_array()) return;
  for (const auto& bstage : bstages->array()) {
    const auto* name = bstage.find("stage");
    if (name == nullptr || !name->is_string()) continue;
    if (JsonValue::number_or(bstage.find("mean_ns"), 0.0) <
        opts.min_stage_seconds * 1e9) {
      continue;
    }
    const JsonValue* match = nullptr;
    if (cstages != nullptr && cstages->is_array()) {
      for (const auto& cand : cstages->array()) {
        const auto* cn = cand.find("stage");
        if (cn != nullptr && cn->is_string() &&
            cn->string() == name->string()) {
          match = &cand;
          break;
        }
      }
    }
    c.metric("stages/" + name->string() + "/imbalance", Rule::kImbalance,
             read_number(bstage.find("imbalance")),
             read_number(match != nullptr ? match->find("imbalance")
                                          : nullptr));
  }
}

}  // namespace

CompareResult compare_reports(const JsonValue& baseline,
                              const JsonValue& current,
                              const CompareOptions& opts) {
  CompareResult result;
  Comparer c(opts, &result);
  const bool base_bench = baseline.find("bench") != nullptr;
  const bool cur_bench = current.find("bench") != nullptr;
  const bool base_analysis = baseline.find("critical_path") != nullptr;
  const bool cur_analysis = current.find("critical_path") != nullptr;

  if (base_bench && cur_bench) {
    compare_bench(baseline, current, opts, c);
  } else if (base_analysis && cur_analysis) {
    compare_analysis(baseline, current, opts, c);
  } else {
    c.error("documents are not two bench reports or two analysis reports");
  }
  return result;
}

std::string CompareResult::format() const {
  std::string out;
  char line[320];
  std::snprintf(line, sizeof(line), "%-52s %12s %12s %7s %7s  %s\n", "metric",
                "baseline", "current", "ratio", "tol", "verdict");
  out += line;
  for (const auto& f : findings) {
    const char* verdict =
        !f.gated ? "info" : (f.regressed ? "REGRESSED" : "ok");
    std::snprintf(line, sizeof(line), "%-52s %12.6g %12.6g %7.3f %7.3f  %s\n",
                  f.metric.c_str(), f.baseline, f.current, f.ratio,
                  f.tolerance, verdict);
    out += line;
  }
  for (const auto& w : warnings) {
    out += "warning: ";
    out += w;
    out += '\n';
  }
  for (const auto& e : errors) {
    out += "error: ";
    out += e;
    out += '\n';
  }
  std::snprintf(line, sizeof(line),
                "perf gate: %s (%d regression(s), %zu error(s), %zu metrics)\n",
                ok() ? "PASS" : "FAIL", regressions(), errors.size(),
                findings.size());
  out += line;
  return out;
}

}  // namespace keybin2::runtime
