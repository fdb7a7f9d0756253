// kb2_perfbench: the benchmark worker that run.py drives.
//
//   kb2_perfbench reference --workload W --seed N --out FILE
//       Serial core::fit of the workload's concatenated shards; FILE holds
//       the model bytes and labels every distributed fit must reproduce.
//   kb2_perfbench run --workload W --seed N --measure S --trace 0|1
//                     [--ref FILE] [--artifacts DIR]
//       Set up (inputs, rank launch, warm-up operations), then run
//       operations back to back until S seconds after the warm-up ended.
//
// A "run" prints one JSON object per line on stdout: {"ev":"ready"} once the
// warm-up finished, {"ev":"op"} per operation (warm-ups included), and
// {"ev":"done"} after the ranks joined. Rank 0 assembles each op line from a
// gather of every rank's record, so a rank that dies mid-operation leaves
// that operation without a line; run.py counts it as failed.
//
// An operation is one distributed core::fit (batch workloads) or one in-situ
// episode: every rank streams its own trajectory through an InSituAnalyzer,
// which refits across ranks every kRefitInterval frames. With --trace 1 every
// odd operation runs over TracedComm and times the calls into each layer;
// even operations stay plain and give the base of the tracing overhead.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "comm/launch.hpp"
#include "common/serialize.hpp"
#include "core/keybin2.hpp"
#include "data/dataset.hpp"
#include "data/gaussian_mixture.hpp"
#include "data/partition.hpp"
#include "md/insitu.hpp"
#include "md/synthetic.hpp"
#include "runtime/json.hpp"
#include "stats/metrics.hpp"
#include "traced_comm.hpp"

namespace keybin2::perfbench {
namespace {

constexpr std::size_t kRefitInterval = 500;  // InSituAnalyzer's default
// The workloads' mixtures keep the geometry they were sized with; --seed
// draws the points, so runs of different seeds fit the same problem.
constexpr std::uint64_t kMixtureSeed = 42;

struct Workload {
  const char* name;
  comm::Backend backend;
  int ranks;
  // Batch workloads: make_paper_mixture(dims, comps), points per rank.
  std::size_t dims = 0, comps = 0, points_per_rank = 0;
  int max_depth = core::Params{}.max_depth;
  // In-situ workload: residues and frames of each rank's trajectory.
  std::size_t residues = 0, frames = 0;

  bool insitu() const { return residues > 0; }
};

const Workload kWorkloads[] = {
    {"batch_thread", comm::Backend::kThread, 4, 8, 4, 80000},
    {"deep_proc", comm::Backend::kProcess, 4, 32, 6, 10000, 12},
    {"insitu_proc", comm::Backend::kProcess, 4, 0, 0, 0,
     core::Params{}.max_depth, 200, 5000},
};

struct Args {
  std::string mode;
  const Workload* w = nullptr;
  std::uint64_t seed = 42;
  double measure_s = 1.0;
  bool trace = false;
  std::string ref, out, artifacts;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "kb2_perfbench: %s\n", why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  if (argc < 2) usage("missing mode (reference|run)");
  a.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      for (const auto& w : kWorkloads) {
        if (v == w.name) a.w = &w;
      }
      if (a.w == nullptr) usage("unknown workload " + v);
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--measure") {
      a.measure_s = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--ref") {
      a.ref = v;
    } else if (k == "--out") {
      a.out = v;
    } else if (k == "--artifacts") {
      a.artifacts = v;
    } else {
      usage("unknown option " + k);
    }
  }
  if (a.w == nullptr) usage("--workload is required");
  return a;
}

// ---- small utilities ----

double seconds_between(std::int64_t a_ns, std::int64_t b_ns) {
  return static_cast<double>(b_ns - a_ns) * 1e-9;
}

/// This process's user + system CPU seconds (all its threads).
double process_cpu_s() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// Peak resident set (VmHWM) of process `pid`, in MiB; 0 when unreadable.
double peak_rss_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;

std::uint64_t fnv1a(std::span<const std::byte> bytes,
                    std::uint64_t h = kFnvBasis) {
  for (auto b : bytes) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 1099511628211ULL;
  }
  return h;
}

template <typename T>
std::uint64_t fnv1a_of(const std::vector<T>& v, std::uint64_t h) {
  return fnv1a(std::as_bytes(std::span<const T>(v)), h);
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::vector<std::byte> model_bytes(const core::Model& m) {
  ByteWriter w;
  m.serialize(w);
  return w.take();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// One whole line to stdout with write(2): forked ranks _Exit without
/// flushing stdio, and a single writer per line keeps lines whole.
void emit(const std::string& json) {
  std::string line = json + "\n";
  const char* p = line.data();
  std::size_t left = line.size();
  while (left > 0) {
    const ssize_t n = ::write(STDOUT_FILENO, p, left);
    if (n <= 0) std::_Exit(3);
    p += n;
    left -= static_cast<std::size_t>(n);
  }
}

// ---- inputs ----

struct BatchInput {
  std::vector<data::Dataset> shards;
  std::vector<int> truth;            // labels of the concatenated shards
  std::vector<std::size_t> offsets;  // first global row of each shard
};

BatchInput make_batch_input(const Workload& w, std::uint64_t seed) {
  const auto spec = data::make_paper_mixture(w.dims, w.comps, kMixtureSeed);
  auto d = data::sample(
      spec, w.points_per_rank * static_cast<std::size_t>(w.ranks), seed);
  BatchInput in;
  in.truth = d.labels;
  in.shards = data::shard(d, w.ranks);
  std::size_t off = 0;
  for (const auto& s : in.shards) {
    in.offsets.push_back(off);
    off += s.size();
  }
  return in;
}

core::Params make_params(const Workload& w) {
  core::Params p;
  p.max_depth = w.max_depth;
  return p;
}

struct Reference {
  std::vector<std::byte> model;
  std::vector<int> labels;
};

Reference read_reference(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  KB2_CHECK_MSG(in.good(), "cannot read reference " << path);
  std::vector<char> raw((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  std::vector<std::byte> bytes(raw.size());
  std::memcpy(bytes.data(), raw.data(), raw.size());
  ByteReader r(bytes);
  Reference ref;
  ref.model = r.read_vec<std::byte>();
  ref.labels = r.read_vec<int>();
  return ref;
}

int run_reference(const Args& a) {
  const auto in = make_batch_input(*a.w, a.seed);
  const auto all = data::concat(in.shards);
  const auto res = core::fit(all.points, make_params(*a.w));
  ByteWriter w;
  w.write_vec(model_bytes(res.model));
  w.write_vec(res.labels);
  const auto bytes = w.take();
  const std::string tmp = a.out + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    KB2_CHECK_MSG(out.good(), "cannot write " << tmp);
  }
  KB2_CHECK_MSG(std::rename(tmp.c_str(), a.out.c_str()) == 0,
                "cannot rename " << tmp);
  return 0;
}

// ---- per-fit counts from the program's own tracer and metrics ----

/// Assess calls per bootstrap trial and locally counted cells, read from a
/// rank's Context; the difference of two snapshots describes the fits run
/// between them.
struct CoreCounts {
  std::map<std::string, std::uint64_t> assess_calls;  // per trial scope
  std::uint64_t cells = 0;
};

CoreCounts core_counts(runtime::Context& ctx) {
  CoreCounts c;
  for (const auto& [path, e] : ctx.tracer().entries()) {
    const std::string suffix = "/assess";
    if (path.size() > suffix.size() &&
        path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0) {
      const auto trial_end = path.size() - suffix.size();
      const auto trial_begin = path.rfind('/', trial_end - 1);
      const auto trial =
          path.substr(trial_begin + 1, trial_end - trial_begin - 1);
      c.assess_calls[trial] += e.calls;
    }
  }
  const auto& counters = ctx.metrics().counters();
  if (auto it = counters.find("cells_assessed"); it != counters.end()) {
    c.cells = it->second;
  }
  return c;
}

// ---- per-rank record of one operation ----

/// One fit inside an operation: a batch fit, or one refit event in situ.
struct FitRecord {
  std::int64_t t0 = 0, t1 = 0;  // this rank's window
  double cpu_s = 0.0;           // this rank's process CPU over the window
  // Traced operations only (rank 0's copy is the one reported).
  std::uint64_t candidates = 0, collapsed = 0, cells = 0;
};

struct RankRecord {
  std::int64_t entry_ns = 0;    // when this rank's function started
  double generate_s = 0.0;      // input generation seen by this rank
  std::int64_t t0 = 0, t1 = 0;  // operation window
  double cpu_s = 0.0;
  double cpu_total_s = 0.0;  // this process's CPU since it started
  std::uint64_t hash = 0;
  std::string problem;  // empty when this rank's checks passed
  double ari = 0.0;     // in situ: this rank's ARI
  double rss_mb = 0.0;
  std::vector<FitRecord> fits;
  std::vector<float> frame_us;  // in situ: non-refit push_frame times
  std::vector<int> labels;      // batch warm-up only, for the ARI
  // Traced operations.
  double predict_s = 0.0;
  std::vector<float> featurize_us, push_us;
  std::vector<CommSpan> spans;
  comm::TrafficStats stats_delta;

  void write(ByteWriter& w) const {
    w.write(entry_ns);
    w.write(generate_s);
    w.write(t0);
    w.write(t1);
    w.write(cpu_s);
    w.write(cpu_total_s);
    w.write(hash);
    w.write_string(problem);
    w.write(ari);
    w.write(rss_mb);
    w.write_vec(fits);
    w.write_vec(frame_us);
    w.write_vec(labels);
    w.write(predict_s);
    w.write_vec(featurize_us);
    w.write_vec(push_us);
    w.write_vec(spans);
    w.write(stats_delta);
  }

  static RankRecord read(ByteReader& r) {
    RankRecord x;
    x.entry_ns = r.read<std::int64_t>();
    x.generate_s = r.read<double>();
    x.t0 = r.read<std::int64_t>();
    x.t1 = r.read<std::int64_t>();
    x.cpu_s = r.read<double>();
    x.cpu_total_s = r.read<double>();
    x.hash = r.read<std::uint64_t>();
    x.problem = r.read_string();
    x.ari = r.read<double>();
    x.rss_mb = r.read<double>();
    x.fits = r.read_vec<FitRecord>();
    x.frame_us = r.read_vec<float>();
    x.labels = r.read_vec<int>();
    x.predict_s = r.read<double>();
    x.featurize_us = r.read_vec<float>();
    x.push_us = r.read_vec<float>();
    x.spans = r.read_vec<CommSpan>();
    x.stats_delta = r.read<comm::TrafficStats>();
    return x;
  }
};

// ---- Perfetto (Chrome JSON) trace of the benchmark's spans ----

class PerfettoTrace {
 public:
  static constexpr int kMaxOps = 3;  // traced operations kept in the file

  PerfettoTrace() { w_.begin_object().key("traceEvents").begin_array(); }

  bool wants_more() const { return ops_ < kMaxOps; }

  void add_op(int op, const std::vector<RankRecord>& ranks, bool insitu) {
    ++ops_;
    if (base_ns_ == 0) base_ns_ = ranks[0].t0;
    for (std::size_t r = 0; r < ranks.size(); ++r) {
      const auto& x = ranks[r];
      const int tid = static_cast<int>(r);
      span(insitu ? "episode" : "fit", x.t0, x.t1, tid, op);
      if (insitu) {
        for (const auto& f : x.fits) span("refit", f.t0, f.t1, tid, op);
      }
      for (const auto& s : x.spans) {
        static const char* kNames[] = {"send", "recv", "barrier"};
        w_.begin_object();
        common(kNames[s.kind], s.begin_ns, s.end_ns, tid);
        w_.key("args").begin_object();
        w_.key("op").value(op);
        w_.key("peer").value(s.peer);
        w_.key("tag").value(s.tag);
        w_.key("bytes").value(s.bytes);
        w_.end_object();
        w_.end_object();
      }
    }
  }

  void write(const std::string& path, int ranks) {
    for (int r = 0; r < ranks; ++r) {
      w_.begin_object();
      w_.key("name").value("thread_name");
      w_.key("ph").value("M");
      w_.key("pid").value(1);
      w_.key("tid").value(r);
      w_.key("args").begin_object();
      w_.key("name").value("rank " + std::to_string(r));
      w_.end_object();
      w_.end_object();
    }
    w_.end_array();
    w_.key("displayTimeUnit").value("ms");
    w_.end_object();
    std::ofstream(path) << w_.str();
  }

 private:
  void common(const char* name, std::int64_t b, std::int64_t e, int tid) {
    w_.key("name").value(name);
    w_.key("ph").value("X");
    w_.key("pid").value(1);
    w_.key("tid").value(tid);
    w_.key("ts").value(static_cast<double>(b - base_ns_) * 1e-3);
    w_.key("dur").value(static_cast<double>(e - b) * 1e-3);
  }

  void span(const char* name, std::int64_t b, std::int64_t e, int tid, int op) {
    w_.begin_object();
    common(name, b, e, tid);
    w_.key("args").begin_object().key("op").value(op).end_object();
    w_.end_object();
  }

  runtime::JsonWriter w_;
  std::int64_t base_ns_ = 0;
  int ops_ = 0;
};

// ---- the rank loop ----

struct Shared {
  const Args* args = nullptr;
  const BatchInput* batch = nullptr;      // batch workloads
  const Reference* reference = nullptr;   // when --ref was given
  std::int64_t launch_ns = 0;             // parent, just before the launch
  double parent_cpu_s = 0.0;              // parent CPU, just before the launch
  double generate_s = 0.0;                // parent-side input generation
};

/// Comm time of `spans` that falls inside [t0, t1].
double comm_inside(const std::vector<CommSpan>& spans, std::int64_t t0,
                   std::int64_t t1) {
  double s = 0.0;
  for (const auto& c : spans) {
    if (c.begin_ns >= t0 && c.end_ns <= t1) {
      s += seconds_between(c.begin_ns, c.end_ns);
    }
  }
  return s;
}

class RankLoop {
 public:
  RankLoop(const Shared& sh, comm::Communicator& c)
      : sh_(sh), a_(*sh.args), w_(*a_.w), comm_(c), traced_comm_(c),
        plain_(c, a_.seed), traced_(traced_comm_, a_.seed),
        params_(make_params(w_)), rank_(c.rank()),
        process_ranks_(c.process_isolated()) {}

  std::vector<std::byte> run() {
    const std::int64_t entry_ns = now_ns();
    double generate_s = sh_.generate_s;
    if (w_.insitu()) {
      const std::int64_t g0 = now_ns();
      md::SyntheticTrajectoryConfig cfg;
      cfg.residues = w_.residues;
      cfg.frames = w_.frames;
      cfg.seed = a_.seed + static_cast<std::uint64_t>(rank_);
      traj_ = md::generate_trajectory(cfg);
      generate_s = seconds_between(g0, now_ns());
    }

    // Warm-up operations end set-up. A fresh batch worker's second fit still
    // runs cold now and then, so batch workloads warm up with two.
    const int warmups = w_.insitu() ? 1 : 2;
    std::int64_t deadline_ns = 0;
    PerfettoTrace perfetto;
    for (int op = 0;; ++op) {
      if (op >= warmups) {
        // Rank 0 alone decides whether another operation starts, so every
        // rank agrees at the deadline.
        std::vector<std::byte> go(1, std::byte{0});
        if (rank_ == 0 && now_ns() < deadline_ns) go[0] = std::byte{1};
        comm_.broadcast(go, 0);
        if (go[0] == std::byte{0}) break;
      }
      const bool traced = a_.trace && op % 2 == 1;
      comm_.barrier();
      RankRecord rec =
          w_.insitu() ? episode(traced) : batch_fit(traced, op == 0);
      rec.entry_ns = entry_ns;
      rec.generate_s = generate_s;
      rec.rss_mb = peak_rss_mb(::getpid());
      rec.cpu_total_s = process_cpu_s();

      ByteWriter bw;
      rec.write(bw);
      const auto gathered = comm_.gather(bw.take(), 0);
      if (rank_ != 0) continue;
      // Thread ranks share one process: its CPU delta up to the completed
      // gather covers every rank's fit.
      const double cpu_end = process_cpu_s();

      std::vector<RankRecord> ranks;
      for (const auto& blob : gathered) {
        ByteReader br(blob);
        ranks.push_back(RankRecord::read(br));
      }
      if (!process_ranks_) ranks[0].cpu_s = cpu_end - op_cpu0_;
      const bool warm = op < warmups;
      emit(op_line(op, warm, traced, ranks));
      if (traced && !warm && !a_.artifacts.empty() && perfetto.wants_more()) {
        perfetto.add_op(op, ranks, w_.insitu());
      }
      if (op == warmups - 1) {
        runtime::JsonWriter j;
        j.begin_object();
        j.key("ev").value("ready");
        double launch_s = 0.0, gen_s = 0.0;
        // Set-up CPU: the whole process for thread ranks; for process ranks
        // the parent up to the launch plus every rank process so far.
        double setup_cpu_s = process_ranks_ ? sh_.parent_cpu_s : cpu_end;
        for (const auto& r : ranks) {
          launch_s = std::max(launch_s,
                              seconds_between(sh_.launch_ns, r.entry_ns));
          gen_s = std::max(gen_s, r.generate_s);
          if (process_ranks_) setup_cpu_s += r.cpu_total_s;
        }
        j.key("setup_cpu_s").value(setup_cpu_s);
        j.key("launch_s").value(launch_s);
        j.key("generate_s").value(gen_s);
        j.key("hardware_concurrency")
            .value(static_cast<int>(std::thread::hardware_concurrency()));
        j.key("build_flags").value(PB_BUILD_FLAGS);
        j.end_object();
        emit(j.str());
        deadline_ns = now_ns() + static_cast<std::int64_t>(a_.measure_s * 1e9);
      }
    }

    if (a_.trace && !a_.artifacts.empty()) {
      // The per-stage table of the program's own tracer, beside the trace.
      const auto report = plain_.trace_report();
      if (rank_ == 0) {
        perfetto.write(a_.artifacts + "/trace.json", w_.ranks);
        std::ofstream(a_.artifacts + "/stages.txt") << report.format();
      }
    }
    ByteWriter out;
    out.write(now_ns());
    return out.take();
  }

 private:
  double cpu_now() const {
    return process_ranks_ || rank_ == 0 ? process_cpu_s() : 0.0;
  }

  runtime::Context& ctx(bool traced) { return traced ? traced_ : plain_; }

  void arm(bool traced, RankRecord& rec) {
    if (!traced) return;
    rec.stats_delta = comm_.stats();
    traced_comm_.take_spans();
    traced_comm_.arm(true);
  }

  void disarm(bool traced, RankRecord& rec) {
    if (!traced) return;
    traced_comm_.arm(false);
    rec.stats_delta = comm_.stats() - rec.stats_delta;
    rec.spans = traced_comm_.take_spans();
  }

  void count_fit(runtime::Context& c, const CoreCounts& before, FitRecord& f) {
    const CoreCounts after = core_counts(c);
    std::uint64_t trials_with_candidates = 0;
    for (const auto& [trial, calls] : after.assess_calls) {
      auto it = before.assess_calls.find(trial);
      const std::uint64_t d =
          calls - (it == before.assess_calls.end() ? 0 : it->second);
      f.candidates += d;
      if (d > 0) ++trials_with_candidates;
    }
    f.collapsed = static_cast<std::uint64_t>(params_.bootstrap_trials) -
                  trials_with_candidates;
    f.cells = after.cells - before.cells;
  }

  RankRecord batch_fit(bool traced, bool warmup) {
    const auto& shard = sh_.batch->shards[static_cast<std::size_t>(rank_)];
    auto& c = ctx(traced);
    RankRecord rec;
    FitRecord f;
    const CoreCounts before = core_counts(c);
    arm(traced, rec);
    op_cpu0_ = cpu_now();
    f.t0 = now_ns();
    const auto res = core::fit(c, shard.points, params_);
    f.t1 = now_ns();
    f.cpu_s = cpu_now() - op_cpu0_;
    disarm(traced, rec);
    rec.t0 = f.t0;
    rec.t1 = f.t1;
    rec.cpu_s = f.cpu_s;
    count_fit(c, before, f);
    rec.fits.push_back(f);

    const auto model = model_bytes(res.model);
    rec.hash = fnv1a_of(res.labels, fnv1a(model));
    if (sh_.reference != nullptr) {
      const std::size_t off =
          sh_.batch->offsets[static_cast<std::size_t>(rank_)];
      const auto& ref = sh_.reference->labels;
      if (model != sh_.reference->model) {
        rec.problem = "model bytes differ from the serial fit";
      } else if (res.labels.size() != shard.size() ||
                 off + shard.size() > ref.size() ||
                 !std::equal(res.labels.begin(), res.labels.end(),
                             ref.begin() + static_cast<std::ptrdiff_t>(off))) {
        rec.problem = "labels differ from the serial fit";
      }
    }
    if (traced) {
      const std::int64_t p0 = now_ns();
      const auto predicted = res.model.predict(shard.points);
      rec.predict_s = seconds_between(p0, now_ns());
      if (predicted != res.labels) {
        rec.problem = "predict disagrees with fit labels";
      }
    }
    if (warmup) rec.labels = res.labels;
    return rec;
  }

  RankRecord episode(bool traced) {
    auto& c = ctx(traced);
    RankRecord rec;
    md::InSituAnalyzer analyzer(c, w_.residues, params_, kRefitInterval);
    rec.frame_us.reserve(w_.frames);
    arm(traced, rec);
    const double cpu0 = cpu_now();
    rec.t0 = now_ns();
    for (std::size_t f = 0; f < w_.frames; ++f) {
      const bool refits = (f + 1) % kRefitInterval == 0;
      FitRecord fit;
      CoreCounts before;
      if (refits) {
        if (traced) before = core_counts(c);
        fit.cpu_s = cpu_now();
      }
      const std::int64_t t0 = now_ns();
      std::int64_t t1 = 0;
      if (traced) {
        const auto features = md::featurize_frame(traj_.trajectory, f);
        const std::int64_t tf = now_ns();
        analyzer.push_features(features);
        t1 = now_ns();
        if (!refits) {
          rec.featurize_us.push_back(static_cast<float>((tf - t0) * 1e-3));
          rec.push_us.push_back(static_cast<float>((t1 - tf) * 1e-3));
        }
        fit.t0 = tf;  // the refit runs inside push_features
      } else {
        analyzer.push_frame(traj_.trajectory, f);
        t1 = now_ns();
        fit.t0 = t0;
      }
      if (refits) {
        fit.t1 = t1;
        fit.cpu_s = cpu_now() - fit.cpu_s;
        if (traced) count_fit(c, before, fit);
        rec.fits.push_back(fit);
      } else {
        rec.frame_us.push_back(static_cast<float>((t1 - t0) * 1e-3));
      }
    }
    rec.t1 = now_ns();
    rec.cpu_s = cpu_now() - cpu0;
    disarm(traced, rec);

    const std::int64_t p0 = now_ns();
    const auto labels = analyzer.relabel_all();
    rec.predict_s = seconds_between(p0, now_ns());
    rec.ari = stats::adjusted_rand_index(labels, traj_.phase);
    rec.hash = fnv1a(
        model_bytes(analyzer.engine().model()),
        fnv1a_of(analyzer.fingerprint(), fnv1a_of(labels, kFnvBasis)));
    return rec;
  }

  std::string op_line(int op, bool warm, bool traced,
                      const std::vector<RankRecord>& ranks) const;

  const Shared& sh_;
  const Args& a_;
  const Workload& w_;
  comm::Communicator& comm_;
  TracedComm traced_comm_;
  runtime::Context plain_;
  runtime::Context traced_;
  core::Params params_;
  int rank_;
  bool process_ranks_;  // each rank is a process with its own CPU and RSS
  double op_cpu0_ = 0.0;
  md::SyntheticTrajectory traj_;
};

std::string RankLoop::op_line(int op, bool warm, bool traced,
                              const std::vector<RankRecord>& ranks) const {
  const std::size_t n_ranks = ranks.size();
  std::int64_t t0 = ranks[0].t0, t1 = ranks[0].t1;
  double cpu = 0.0, rss = 0.0;
  std::string problem;
  std::uint64_t hash = kFnvBasis;
  for (std::size_t r = 0; r < n_ranks; ++r) {
    const auto& x = ranks[r];
    t0 = std::min(t0, x.t0);
    t1 = std::max(t1, x.t1);
    cpu += x.cpu_s;
    if (process_ranks_) rss += x.rss_mb;
    if (problem.empty() && !x.problem.empty()) {
      problem = "rank " + std::to_string(r) + ": " + x.problem;
    }
    hash = fnv1a(std::as_bytes(std::span<const std::uint64_t>(&x.hash, 1)),
                 hash);
  }
  // Thread ranks share one process; process ranks add their parent.
  rss += process_ranks_ ? peak_rss_mb(::getppid()) : ranks[0].rss_mb;

  runtime::JsonWriter j;
  j.begin_object();
  j.key("ev").value("op");
  j.key("op").value(op);
  j.key("warm").value(warm);
  j.key("traced").value(traced);
  j.key("hash").value(hex(hash));
  j.key("problem").value(problem);
  j.key("wall_s").value(seconds_between(t0, t1));
  j.key("cpu_s").value(cpu);
  j.key("rss_mb").value(rss);

  const std::size_t n_fits = ranks[0].fits.size();
  std::size_t items = 0;
  if (w_.insitu()) {
    items = w_.frames * n_ranks;
    std::vector<double> frames;
    double ari = 0.0;
    for (const auto& x : ranks) {
      frames.insert(frames.end(), x.frame_us.begin(), x.frame_us.end());
      ari += x.ari;
    }
    j.key("item_us").value(median(frames));
    j.key("ari").value(ari / static_cast<double>(n_ranks));
  } else {
    items = w_.points_per_rank * n_ranks;
    j.key("item_us").value(seconds_between(t0, t1) * 1e6 /
                           static_cast<double>(w_.points_per_rank));
    if (!ranks[0].labels.empty()) {
      std::vector<int> all;
      for (const auto& x : ranks) {
        all.insert(all.end(), x.labels.begin(), x.labels.end());
      }
      j.key("ari").value(stats::adjusted_rand_index(all, sh_.batch->truth));
    }
  }
  j.key("items").value(static_cast<std::uint64_t>(items));

  // One entry per fit: batch fit, or in-situ refit event.
  std::vector<std::vector<CommSpan>> spans(n_ranks);
  for (std::size_t r = 0; r < n_ranks; ++r) spans[r] = ranks[r].spans;
  j.key("fits").begin_array();
  for (std::size_t k = 0; k < n_fits; ++k) {
    std::int64_t f0 = ranks[0].fits[k].t0, f1 = ranks[0].fits[k].t1;
    double fit_cpu = 0.0, max_rank = 0.0, self_sum = 0.0, self_max = 0.0;
    for (std::size_t r = 0; r < n_ranks; ++r) {
      const auto& f = ranks[r].fits[k];
      f0 = std::min(f0, f.t0);
      f1 = std::max(f1, f.t1);
      fit_cpu += f.cpu_s;
      const double dur = seconds_between(f.t0, f.t1);
      max_rank = std::max(max_rank, dur);
      const double self = dur - comm_inside(ranks[r].spans, f.t0, f.t1);
      self_sum += self;
      self_max = std::max(self_max, self);
    }
    j.begin_object();
    // Batch: barrier-aligned start to the last rank returning. In situ the
    // ranks reach a refit at their own pace, so the event takes the slowest
    // rank's refit.
    j.key("wall_s").value(w_.insitu() ? max_rank : seconds_between(f0, f1));
    j.key("cpu_s").value(w_.insitu() || process_ranks_ ? fit_cpu
                                                       : ranks[0].cpu_s);
    if (traced) {
      const auto& f = ranks[0].fits[k];
      j.key("self_mean_s").value(self_sum / static_cast<double>(n_ranks));
      j.key("self_max_s").value(self_max);
      j.key("candidates").value(f.candidates);
      j.key("collapsed").value(f.collapsed);
      std::uint64_t cells = 0;
      for (const auto& x : ranks) cells += x.fits[k].cells;
      j.key("cells").value(cells);
    }
    j.end_object();
  }
  j.end_array();

  if (traced) {
    const CommSplit s = split_comm(spans);
    comm::TrafficStats stats;
    double predict = 0.0, fit_rank_s = 0.0, fit_comm_s = 0.0;
    std::vector<double> featurize, push;
    for (std::size_t r = 0; r < n_ranks; ++r) {
      const auto& x = ranks[r];
      stats += x.stats_delta;
      predict += x.predict_s;
      for (const auto& f : x.fits) fit_rank_s += seconds_between(f.t0, f.t1);
      for (const auto& f : x.fits) {
        fit_comm_s += comm_inside(x.spans, f.t0, f.t1);
      }
      featurize.insert(featurize.end(), x.featurize_us.begin(),
                       x.featurize_us.end());
      push.insert(push.end(), x.push_us.begin(), x.push_us.end());
    }
    j.key("predict_s").value(predict / static_cast<double>(n_ranks));
    if (w_.insitu()) {
      j.key("featurize_us").value(median(featurize));
      j.key("push_us").value(median(push));
    }
    j.key("comm").begin_object();
    j.key("msgs").value(s.msgs);
    j.key("bytes").value(s.bytes);
    j.key("recvs").value(s.recvs);
    j.key("unmatched").value(s.unmatched);
    j.key("stats_msgs").value(stats.messages_sent);
    j.key("stats_bytes").value(stats.bytes_sent);
    j.key("stats_recvs").value(stats.messages_received);
    j.key("send_s").value(s.send_s);
    j.key("recv_s").value(s.recv_s);
    j.key("barrier_s").value(s.barrier_s);
    j.key("transfer_s").value(s.transfer_s);
    j.key("wait_late_sender_s").value(s.wait_late_sender_s);
    j.key("latency_us_p50").value(quantile(s.latency_us, 0.5));
    j.key("latency_us_p90").value(quantile(s.latency_us, 0.9));
    j.key("fit_comm_s").value(fit_comm_s);
    j.key("fit_rank_s").value(fit_rank_s);
    j.end_object();
  }
  j.end_object();
  return j.str();
}

int run_workload(const Args& a) {
  const Workload& w = *a.w;
  Shared sh;
  sh.args = &a;
  BatchInput batch;
  Reference reference;
  if (!w.insitu()) {
    const std::int64_t g0 = now_ns();
    batch = make_batch_input(w, a.seed);
    sh.generate_s = seconds_between(g0, now_ns());
    sh.batch = &batch;
    if (!a.ref.empty()) {
      reference = read_reference(a.ref);
      sh.reference = &reference;
    }
  }
  comm::LaunchOptions opts;
  opts.backend = w.backend;
  sh.parent_cpu_s = process_cpu_s();
  sh.launch_ns = now_ns();
  const auto blobs = comm::run_ranks_collect_bytes(
      opts, w.ranks, [&](comm::Communicator& c) -> std::vector<std::byte> {
        RankLoop loop(sh, c);
        return loop.run();
      });
  const std::int64_t joined_ns = now_ns();

  std::int64_t last_return = 0;
  for (const auto& blob : blobs) {
    ByteReader r(blob);
    last_return = std::max(last_return, r.read<std::int64_t>());
  }
  runtime::JsonWriter j;
  j.begin_object();
  j.key("ev").value("done");
  j.key("join_s").value(seconds_between(last_return, joined_ns));
  j.end_object();
  emit(j.str());
  return 0;
}

}  // namespace
}  // namespace keybin2::perfbench

int main(int argc, char** argv) {
  using namespace keybin2::perfbench;
  try {
    const Args a = parse_args(argc, argv);
    if (a.mode == "reference") return run_reference(a);
    if (a.mode == "run") return run_workload(a);
    usage("unknown mode " + a.mode);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "kb2_perfbench: %s\n", e.what());
    return 1;
  }
}
