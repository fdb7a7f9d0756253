// Continuous-profiler and telemetry-plane tests (DESIGN.md §8): the
// lock-free sampling primitives (StageCursor seqlock, SampleTable,
// DensitySeries), the per-rank shared-memory segment with its attach/
// snapshot observer protocol and the kb2_top JSON schema, live
// stage-accurate snapshots read by a concurrent observer while a profiled
// fit runs on BOTH backends, the respawn story (a SIGKILL'd rank's
// replacement incarnation reclaims the same telemetry slot with a bumped
// incarnation number), and the Context's one wiring point (planes enabled
// in any order see each other).
//
// The CPU burners busy-spin, never sleep: the SIGPROF engine samples CPU
// time (ITIMER_PROF), so a sleeping rank would legitimately collect zero
// samples and the assertions would race the scheduler instead of testing
// the profiler.
#include "runtime/profile/profiler.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#ifdef __linux__
#include <dirent.h>
#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>
#endif

#include "comm/fault.hpp"
#include "comm/launch.hpp"
#include "comm/proc_comm.hpp"
#include "common/error.hpp"
#include "common/serialize.hpp"
#include "common/timer.hpp"
#include "core/keybin2.hpp"
#include "data/gaussian_mixture.hpp"
#include "data/partition.hpp"
#include "runtime/context.hpp"
#include "runtime/json.hpp"
#include "runtime/profile/perf_counters.hpp"
#include "runtime/profile/stage_cursor.hpp"
#include "runtime/profile/telemetry.hpp"
#include "runtime/segment.hpp"

namespace keybin2::runtime::profile {
namespace {

/// Burn roughly `ms` of CPU time. Busy work, deliberately: ITIMER_PROF
/// ticks on CPU time, so only spinning guarantees the sampler fires.
void burn_cpu_ms(int ms) {
  const auto end =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  volatile double acc = 0.0;
  while (std::chrono::steady_clock::now() < end) {
    for (int i = 0; i < 1000; ++i) {
      acc = acc + static_cast<double>(i) * 1e-9;
    }
  }
  (void)acc;
}

// ---------------------------------------------------------------------------
// Lock-free primitives (platform-independent).

TEST(StageCursor, PublishSnapshotRoundTrip) {
  StageCursor c;
  char buf[StageCursor::kMaxPath];
  std::uint32_t len = 99;
  // A never-published cursor reads back as the empty path, untorn.
  ASSERT_TRUE(c.snapshot(buf, &len));
  EXPECT_EQ(len, 0u);

  c.publish("fit/trial3/bin");
  ASSERT_TRUE(c.snapshot(buf, &len));
  EXPECT_EQ(std::string(buf, len), "fit/trial3/bin");

  // Republishing replaces, not appends.
  c.publish("fit/agree");
  ASSERT_TRUE(c.snapshot(buf, &len));
  EXPECT_EQ(std::string(buf, len), "fit/agree");
}

TEST(StageCursor, OverlongPathsKeepTheirTail) {
  // The leaf stage is the interesting part of a deep path, so truncation
  // must drop the front, never the back.
  std::string path = "fit";
  while (path.size() < 2 * StageCursor::kMaxPath) {
    path += "/deeply_nested_stage";
  }
  path += "/leaf";

  StageCursor c;
  c.publish(path);
  char buf[StageCursor::kMaxPath];
  std::uint32_t len = 0;
  ASSERT_TRUE(c.snapshot(buf, &len));
  EXPECT_EQ(len, StageCursor::kMaxPath - 1);
  const std::string got(buf, len);
  EXPECT_EQ(got, path.substr(path.size() - (StageCursor::kMaxPath - 1)));
  EXPECT_NE(got.find("leaf"), std::string::npos);
}

TEST(SampleTable, RecordsAggregateAndDropsAreCounted) {
  SampleTable t;
  const char* a = "fit/trial1/bin";
  const char* b = "fit/agree";
  for (int i = 0; i < 3; ++i) {
    t.record(a, static_cast<std::uint32_t>(std::strlen(a)));
  }
  for (int i = 0; i < 2; ++i) {
    t.record(b, static_cast<std::uint32_t>(std::strlen(b)));
  }
  t.drop();  // e.g. a torn cursor read

  EXPECT_EQ(t.total(), 6u);
  EXPECT_EQ(t.dropped(), 1u);
  std::map<std::string, std::uint64_t> seen;
  t.for_each([&](std::string_view path, std::uint64_t count) {
    seen[std::string(path)] = count;
  });
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[a], 3u);
  EXPECT_EQ(seen[b], 2u);
}

TEST(CollapseStack, SwapsScopeSeparatorsForFlamegraphs) {
  EXPECT_EQ(collapse_stack("fit/trial*/bin"), "fit;trial*;bin");
  EXPECT_EQ(collapse_stack("fit"), "fit");
  EXPECT_EQ(collapse_stack(""), "");
}

TEST(DensitySeries, OutOfRangeSamplesFoldIntoEdgeBuckets) {
  DensitySeries d;
  d.t0_ns = 1'000'000;
  d.record(0);            // before t0 -> bucket 0, never a negative index
  d.record(d.t0_ns + 1);  // bucket 0
  d.record(d.t0_ns +
           d.bucket_ns * static_cast<std::int64_t>(
                             DensitySeries::kMaxBuckets + 5));  // past the end
  EXPECT_EQ(d.counts[0].load(), 2u);
  EXPECT_EQ(d.counts[DensitySeries::kMaxBuckets - 1].load(), 1u);
}

#ifdef __linux__

/// Per-test unique shm name under this process's residue-check prefix.
std::string unique_name(const std::string& suffix) {
  return "kb2-tele-" + std::to_string(::getpid()) + "-" + suffix;
}

// ---------------------------------------------------------------------------
// The segment's telemetry slots: publish / attach / snapshot.

TEST(Telemetry, PublishAttachSnapshotRoundTrip) {
  RankSegment seg(3, "unit test job", unique_name("rt"));
  TelemetryPublisher pub(seg.slot(1), /*cadence_ns=*/0);
  TelemetryPublisher::Update u;
  u.state = TelemetrySlot::kLive;
  u.incarnation = 2;
  u.samples = 41;
  u.points_total = 1234;
  u.points_per_sec = 5000.0;
  u.wait_ratio = 0.25;
  u.anomalies = 3;
  u.stage = "fit/trial0/bin";
  pub.publish_now(u);

  std::string err;
  const auto reader = RankSegment::attach(seg.name(), &err);
  ASSERT_NE(reader, nullptr) << err;
  EXPECT_EQ(reader->header().n_ranks, 3u);
  EXPECT_EQ(std::string(reader->header().job), "unit test job");
  EXPECT_EQ(reader->header().creator_pid, ::getpid());

  const auto samples = read_telemetry(*reader);
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].slot.state, TelemetrySlot::kEmpty);
  EXPECT_EQ(samples[2].slot.state, TelemetrySlot::kEmpty);
  const auto& s = samples[1].slot;
  EXPECT_EQ(samples[1].rank, 1);
  EXPECT_EQ(s.state, TelemetrySlot::kLive);
  EXPECT_EQ(s.incarnation, 2u);
  EXPECT_EQ(s.pid, ::getpid());
  EXPECT_GT(s.published_ns, 0);
  EXPECT_EQ(s.samples, 41u);
  EXPECT_EQ(s.points_total, 1234u);
  EXPECT_DOUBLE_EQ(s.points_per_sec, 5000.0);
  EXPECT_DOUBLE_EQ(s.wait_ratio, 0.25);
  EXPECT_GT(s.rss_kb, 0u);  // read_rss_kb works on Linux
  EXPECT_EQ(s.anomalies, 3u);
  EXPECT_STREQ(s.stage, "fit/trial0/bin");
}

TEST(Telemetry, OverlongStageIsTailTruncatedInTheSlot) {
  RankSegment seg(1, "trunc", unique_name("trunc"));
  TelemetryPublisher pub(seg.slot(0), 0);
  std::string stage = "fit";
  while (stage.size() < 2 * TelemetrySlot::kMaxStage) stage += "/nested";
  stage += "/leaf";
  TelemetryPublisher::Update u;
  u.stage = stage;
  pub.publish_now(u);

  std::string err;
  const auto reader = RankSegment::attach(seg.name(), &err);
  ASSERT_NE(reader, nullptr) << err;
  const auto samples = read_telemetry(*reader);
  ASSERT_EQ(samples.size(), 1u);
  const std::string got(samples[0].slot.stage);
  EXPECT_EQ(got.size(), TelemetrySlot::kMaxStage - 1);
  EXPECT_EQ(got, stage.substr(stage.size() - (TelemetrySlot::kMaxStage - 1)));
  EXPECT_NE(got.find("leaf"), std::string::npos);
}

TEST(Telemetry, AttachToMissingSegmentFailsWithMessage) {
  std::string err;
  const auto reader =
      RankSegment::attach(unique_name("does-not-exist"), &err);
  EXPECT_EQ(reader, nullptr);
  EXPECT_FALSE(err.empty());
}

TEST(Telemetry, AttachRefusesASegmentShorterThanItsHeaderLayout) {
  // A valid header claiming 64 ranks over an object holding only the
  // header: mapping the claimed layout would SIGBUS on the first slot read,
  // so attach must refuse it, name it, and map nothing.
  const std::string name = "/" + unique_name("short");
  const int fd = ::shm_open(name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
  ASSERT_GE(fd, 0);
  SegmentHeader hdr;
  hdr.magic = SegmentHeader::kMagic;
  hdr.version = SegmentHeader::kVersion;
  hdr.n_ranks = 64;
  hdr.slots_per_rank = RankSegment::kDefaultSlots;
  ASSERT_EQ(::write(fd, &hdr, sizeof(hdr)),
            static_cast<ssize_t>(sizeof(hdr)));
  ::close(fd);

  std::string err;
  const auto reader = RankSegment::attach(name, &err);
  ::shm_unlink(name.c_str());
  EXPECT_EQ(reader, nullptr);
  EXPECT_NE(err.find(name), std::string::npos) << err;
  EXPECT_NE(err.find("truncated"), std::string::npos) << err;
}

TEST(Telemetry, TopSnapshotJsonMatchesSchema) {
  RankSegment seg(2, "schema probe", unique_name("json"));
  TelemetryPublisher pub(seg.slot(0), 0);
  TelemetryPublisher::Update u;
  u.state = TelemetrySlot::kLive;
  u.samples = 7;
  u.stage = "fit/agree";
  pub.publish_now(u);

  std::string err;
  const auto reader = RankSegment::attach(seg.name(), &err);
  ASSERT_NE(reader, nullptr) << err;
  const auto json = top_snapshot_json(*reader, now_ns() + 1);
  const auto doc = json_parse(json);
  ASSERT_TRUE(doc.has_value()) << json;

  const auto* job = doc->find("job");
  ASSERT_NE(job, nullptr);
  EXPECT_EQ(job->string(), "schema probe");
  EXPECT_EQ(JsonValue::number_or(doc->find("n_ranks"), -1), 2.0);
  EXPECT_EQ(JsonValue::number_or(doc->find("creator_pid"), -1),
            static_cast<double>(::getpid()));

  const auto* ranks = doc->find("ranks");
  ASSERT_NE(ranks, nullptr);
  ASSERT_TRUE(ranks->is_array());
  ASSERT_EQ(ranks->array().size(), 2u);

  const auto& r0 = ranks->array()[0];
  ASSERT_NE(r0.find("state"), nullptr);
  EXPECT_EQ(r0.find("state")->string(), "live");
  EXPECT_EQ(r0.find("stage")->string(), "fit/agree");
  EXPECT_EQ(JsonValue::number_or(r0.find("rank"), -1), 0.0);
  EXPECT_EQ(JsonValue::number_or(r0.find("samples"), -1), 7.0);
  EXPECT_EQ(JsonValue::number_or(r0.find("pid"), -1),
            static_cast<double>(::getpid()));
  // Published just above with a now_ns()+1 reference clock: a tiny positive
  // age, never the -1 "never published" sentinel.
  EXPECT_GE(JsonValue::number_or(r0.find("heartbeat_age_ms"), -99), 0.0);
  // Recovery-ladder columns (v2 schema): present even when zero, so kb2_top
  // and trace_check --profile can rely on them unconditionally.
  EXPECT_EQ(JsonValue::number_or(r0.find("respawns_total"), -1), 0.0);
  EXPECT_EQ(JsonValue::number_or(r0.find("regrow_epochs"), -1), 0.0);
  EXPECT_EQ(JsonValue::number_or(r0.find("recovery_p50_ns"), -1), 0.0);
  EXPECT_EQ(JsonValue::number_or(r0.find("recovery_p99_ns"), -1), 0.0);

  const auto& r1 = ranks->array()[1];
  EXPECT_EQ(r1.find("state")->string(), "empty");
  EXPECT_EQ(JsonValue::number_or(r1.find("heartbeat_age_ms"), 0), -1.0);
}

// ---------------------------------------------------------------------------
// Profiler: sampling and degrade paths.

TEST(PerfCounters, ProbeEitherWorksOrDegradesCleanly) {
  PerfCounterGroup g;
  PerfSample s;
  if (g.available()) {
    burn_cpu_ms(5);
    ASSERT_TRUE(g.read(&s));
    EXPECT_GT(s.cycles, 0u);
    EXPECT_GT(s.instructions, 0u);
  } else {
    // Hardened container: the probe already failed, read() must report it
    // with a zeroed sample rather than returning garbage.
    EXPECT_FALSE(g.read(&s));
    EXPECT_EQ(s.cycles, 0u);
    EXPECT_EQ(s.instructions, 0u);
  }
}

TEST(Profiler, CollectsSamplesFromBusySpinScopes) {
  std::atomic<std::uint64_t> total_samples{0};
  std::atomic<bool> folded_has_fit{true};
  std::atomic<bool> mode_is_thread{true};
  comm::run_ranks(2, [&](comm::Communicator& c) {
    Context ctx(c, 1);
    ProfilerConfig cfg;
    cfg.sample_interval_us = 1000;
    ctx.enable_profiler(cfg);
    {
      auto fit = ctx.tracer().scope("fit");
      for (int i = 0; i < 8; ++i) {
        auto t = ctx.tracer().scope("trial" + std::to_string(i));
        burn_cpu_ms(15);
      }
    }
    ctx.profiler()->stop();
    // Thread backend -> the hub-thread engine, SIGPROF stays free for the
    // process backend.
    if (ctx.profiler()->active_mode() != SamplerMode::kThread) {
      mode_is_thread = false;
    }
    total_samples += ctx.profiler()->samples();
    const auto folded = ctx.profiler()->folded_output();
    if (folded.find("fit") == std::string::npos) folded_has_fit = false;
  });
  // ~120 ms of spinning per rank at a 1 ms tick: samples must exist, and
  // the folded stacks must attribute them to the spun scopes.
  EXPECT_GT(total_samples.load(), 0u);
  EXPECT_TRUE(folded_has_fit.load());
  EXPECT_TRUE(mode_is_thread.load());
}

TEST(Profiler, PerfGaugesOrDegradedFlagButNeverFatal) {
  comm::run_ranks(1, [&](comm::Communicator& c) {
    Context ctx(c, 1);
    ctx.enable_profiler();
    {
      auto fit = ctx.tracer().scope("fit");
      burn_cpu_ms(20);
    }
    ctx.profiler()->stop();
    const auto& gauges = ctx.metrics().gauges();
    EXPECT_EQ(gauges.count("profiler_samples"), 1u);
    if (ctx.profiler()->perf_available()) {
      bool found_perf_gauge = false;
      for (const auto& [name, value] : gauges) {
        if (name.rfind("perf/", 0) == 0) found_perf_gauge = true;
      }
      EXPECT_TRUE(found_perf_gauge)
          << "perf available but no per-stage ratio gauges flushed";
      EXPECT_EQ(gauges.count("profiler_degraded"), 0u);
    } else {
      ASSERT_EQ(gauges.count("profiler_degraded"), 1u)
          << "refused perf_event_open must surface as a gauge";
      EXPECT_EQ(gauges.at("profiler_degraded"), 1.0);
    }
  });
}

// ---------------------------------------------------------------------------
// Live snapshots while a run is in flight, on both backends.

/// Drive a 2-rank profiled scope workload while a concurrent observer
/// thread polls the segment the way kb2_top does. Asserts that a live,
/// stage-accurate snapshot was observable mid-run (through both the raw
/// reader and the kb2_top JSON payload) and that the final slots read done
/// with samples accounted.
void live_snapshot_case(const comm::LaunchOptions& options,
                        const std::string& suffix) {
  constexpr int kRanks = 2;
  // Created BEFORE the launch: forked ranks (process backend) inherit the
  // MAP_SHARED mapping, threads share it directly.
  RankSegment seg(kRanks, "live test", unique_name(suffix));

  std::atomic<bool> saw_live{false};
  std::atomic<bool> saw_fit_stage{false};
  std::atomic<bool> stop_reader{false};
  std::string live_json;  // written by the reader thread, read after join
  std::thread observer([&] {
    std::string err;
    const auto reader = RankSegment::attach(seg.name(), &err);
    if (reader == nullptr) return;
    while (!stop_reader.load()) {
      for (const auto& s : read_telemetry(*reader)) {
        if (s.slot.state != TelemetrySlot::kLive) continue;
        saw_live = true;
        if (std::string_view(s.slot.stage).find("fit") !=
            std::string_view::npos) {
          live_json = top_snapshot_json(*reader, now_ns());
          saw_fit_stage = true;
        }
      }
      if (saw_fit_stage.load()) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  comm::run_ranks(options, kRanks, [&](comm::Communicator& c) {
    Context ctx(c, 1);
    ProfilerConfig cfg;
    cfg.sample_interval_us = 1000;
    cfg.telemetry_cadence_ns = 1'000'000;  // publish on ~every scope churn
    ctx.enable_profiler(cfg, seg.slot(c.rank()));
    {
      auto fit = ctx.tracer().scope("fit");
      for (int i = 0; i < 40; ++i) {
        auto t = ctx.tracer().scope("spin" + std::to_string(i));
        burn_cpu_ms(10);
      }
    }
    ctx.profiler()->stop();
  });
  stop_reader = true;
  observer.join();

  EXPECT_TRUE(saw_live.load()) << "observer never saw a live slot mid-run";
  ASSERT_TRUE(saw_fit_stage.load())
      << "observer never saw a live slot inside the fit scope";

  // The captured kb2_top payload carries the stage-accurate live row.
  const auto doc = json_parse(live_json);
  ASSERT_TRUE(doc.has_value()) << live_json;
  const auto* ranks = doc->find("ranks");
  ASSERT_NE(ranks, nullptr);
  bool json_has_live_fit = false;
  for (const auto& r : ranks->array()) {
    const auto* state = r.find("state");
    const auto* stage = r.find("stage");
    if (state != nullptr && state->string() == "live" && stage != nullptr &&
        stage->string().find("fit") != std::string::npos) {
      json_has_live_fit = true;
      EXPECT_GT(JsonValue::number_or(r.find("pid"), 0), 0.0);
      EXPECT_GE(JsonValue::number_or(r.find("incarnation"), -1), 0.0);
    }
  }
  EXPECT_TRUE(json_has_live_fit) << live_json;

  // After the run: every slot done, with samples accounted. ~400 ms of
  // CPU-burning per rank at a 1 ms tick guarantees a nonzero count under
  // either sampler engine.
  std::string err;
  const auto reader = RankSegment::attach(seg.name(), &err);
  ASSERT_NE(reader, nullptr) << err;
  const auto samples = read_telemetry(*reader);
  ASSERT_EQ(samples.size(), static_cast<std::size_t>(kRanks));
  for (const auto& s : samples) {
    EXPECT_EQ(s.slot.state, TelemetrySlot::kDone) << "rank " << s.rank;
    EXPECT_GT(s.slot.samples, 0u) << "rank " << s.rank;
    EXPECT_GT(s.slot.pid, 0) << "rank " << s.rank;
    EXPECT_EQ(s.slot.incarnation, 0u) << "rank " << s.rank;
  }
}

TEST(ProfilerLive, SnapshotsAreStageAccurateOnThreadBackend) {
  live_snapshot_case(comm::LaunchOptions{}, "live-thread");
}

TEST(ProfilerLive, SnapshotsAreStageAccurateOnProcBackend) {
  comm::LaunchOptions options;
  options.backend = comm::Backend::kProcess;
  live_snapshot_case(options, "live-proc");
}

// ---------------------------------------------------------------------------
// Respawn: the replacement incarnation reclaims the victim's slot.

TEST(ProfilerRecovery, RespawnedIncarnationReclaimsItsTelemetrySlot) {
  // Rank 2's first incarnation takes a real SIGKILL mid-fit; the recovery
  // ladder forks a replacement which rejoins and reruns. Its profiler
  // writes the SAME telemetry slot — fork inheritance of the pre-launch
  // mapping — so after the run slot 2 must read incarnation 1, state done,
  // not a stale incarnation-0 ghost.
  const auto spec = data::make_paper_mixture(8, 3, 1);
  const auto d = data::sample(spec, 1000, 3);
  const auto shards = data::shard(d, 4);
  core::Params params;
  params.comm_timeout_seconds = 30.0;

  RankSegment seg(4, "respawn test", unique_name("respawn"));
  comm::RecoveryPolicy pol;
  pol.max_respawns = 1;
  pol.backoff_base_ms = 1.0;
  pol.backoff_cap_ms = 4.0;
  const auto res = comm::proc_run_ranks(
      4, 0, pol, [&](comm::Communicator& c) -> std::vector<std::byte> {
        comm::fault::FaultSchedule s;
        if (c.rank() == 2 && c.incarnation() == 0) {
          s.kill_at_op = 15;
          s.hard_kill = true;
        }
        comm::fault::FaultyComm f(c, s);
        Context ctx(f, params.seed);
        ctx.enable_profiler({}, seg.slot(c.rank()));
        const auto result = core::fit(
            ctx, shards[static_cast<std::size_t>(c.rank())].points, params);
        ctx.profiler()->stop();
        ByteWriter w;
        result.model.serialize(w);
        w.write_vec(result.labels);
        return w.take();
      });
  EXPECT_FALSE(res.first_error) << "regrown run should succeed";
  EXPECT_EQ(res.respawns_total, 1);

  std::string err;
  const auto reader = RankSegment::attach(seg.name(), &err);
  ASSERT_NE(reader, nullptr) << err;
  const auto samples = read_telemetry(*reader);
  ASSERT_EQ(samples.size(), 4u);
  for (const auto& s : samples) {
    EXPECT_EQ(s.slot.state, TelemetrySlot::kDone) << "rank " << s.rank;
    EXPECT_GT(s.slot.pid, 0) << "rank " << s.rank;
    const std::uint32_t want_inc = s.rank == 2 ? 1u : 0u;
    EXPECT_EQ(s.slot.incarnation, want_inc)
        << "rank " << s.rank << " slot carries the wrong incarnation";
  }
}

// ---------------------------------------------------------------------------
// One wiring point: a plane looks its siblings up through the Context when
// it uses them, so the order the planes are enabled in does not matter.

TEST(Context, PlanesWireTheSameInAnyEnableOrder) {
  const auto spec = data::make_paper_mixture(8, 3, 2);
  const auto d = data::sample(spec, 2000, 3);
  core::Params params;
  params.bootstrap_trials = 2;
  ProfilerConfig cfg;
  cfg.sample_interval_us = 500;
  // Every repeated scope past its first alarms, so the anomaly counters the
  // telemetry slot must mirror are never trivially zero.
  HealthConfig eager;
  eager.warmup = 1;
  eager.min_wall_ns = 0;
  eager.latency_factor = 0.0;

  for (const bool profiler_first : {true, false}) {
    SCOPED_TRACE(profiler_first ? "profiler first" : "profiler last");
    RankSegment seg(1, "enable order");
    Context ctx(/*seed=*/3);
    if (profiler_first) ctx.enable_profiler(cfg, seg.slot(0));
    ctx.enable_timeline();
    ctx.enable_health_monitor(eager);
    ctx.enable_flight_recorder(&seg);
    if (!profiler_first) ctx.enable_profiler(cfg, seg.slot(0));
    (void)core::fit(ctx, d.points, params);
    // The hub samples on wall time; under a loaded suite give it a tick.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (ctx.profiler()->samples() == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ctx.profiler()->stop();

    std::size_t density_points = 0;
    for (const auto& c : ctx.timeline()->counters()) {
      if (c.name == "sample_density") ++density_points;
    }
    EXPECT_GT(density_points, 0u);

    const std::uint64_t anomalies =
        ctx.metrics().counter("health_latency_anomalies") +
        ctx.metrics().counter("health_wait_anomalies");
    EXPECT_GT(anomalies, 0u);
    const auto slots = read_telemetry(seg);
    ASSERT_EQ(slots.size(), 1u);
    EXPECT_EQ(slots[0].slot.state, TelemetrySlot::kDone);
    EXPECT_EQ(slots[0].slot.anomalies, anomalies);
  }
}

// ---------------------------------------------------------------------------
// Residue gate: no telemetry segment created by THIS process may outlive
// its test. Named segments stay linked while a job runs (that is kb2_top's
// attach surface) but ~RankSegment unlinks — a name surviving to teardown is
// a leak. Also re-checks the process-backend prefixes, since this binary
// forks ranks of its own.
class TeleResidueCheck final : public ::testing::EmptyTestEventListener {
  void OnTestEnd(const ::testing::TestInfo& info) override {
    const std::string pid = std::to_string(::getpid());
    const std::string leaks = find_residue(pid);
    EXPECT_TRUE(leaks.empty())
        << "test " << info.test_suite_name() << "." << info.name()
        << " leaked telemetry/process residue: " << leaks;
  }

  static std::string find_residue(const std::string& pid) {
    std::string found;
    for (const char* parent : {"/dev/shm", "/tmp"}) {
      DIR* dir = ::opendir(parent);
      if (dir == nullptr) continue;
      // Names end at the pid or continue with '-': a bare prefix match
      // would also flag another pid's leftovers ("kb2-tele-2068" is a
      // prefix of "kb2-tele-20687-rt").
      const std::string tele = "kb2-tele-" + pid;
      const std::string shm = "kb2-proc-" + pid + "-";
      const std::string spill = "kb2-spill-" + pid + "-";
      while (dirent* e = ::readdir(dir)) {
        const std::string name = e->d_name;
        if (name == tele || name.rfind(tele + "-", 0) == 0 ||
            name.rfind(shm, 0) == 0 || name.rfind(spill, 0) == 0) {
          found += std::string(parent) + "/" + name + " ";
        }
      }
      ::closedir(dir);
    }
    return found;
  }
};

const bool kResidueCheckInstalled = [] {
  ::testing::UnitTest::GetInstance()->listeners().Append(
      new TeleResidueCheck);
  return true;
}();

#else  // !__linux__

TEST(Telemetry, SegmentRequiresLinux) {
  EXPECT_THROW(RankSegment(1, "job", "kb2-tele-x"), Error);
  std::string err;
  EXPECT_EQ(RankSegment::attach("kb2-tele-x", &err), nullptr);
  EXPECT_FALSE(err.empty());
}

#endif

}  // namespace
}  // namespace keybin2::runtime::profile
