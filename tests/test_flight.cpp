// Flight-recorder tests (DESIGN.md §10): ring seqlock semantics, freeze
// discipline, the versioned CRC-checked dump container and its five-mode
// corruption taxonomy, and end-to-end death attribution — a killed rank's
// dump must name the rank, its last pipeline stage, and the comm op it died
// inside, on both transport backends. The EventPath suite pins the one event
// path (DESIGN.md §4c): every stage boundary, comm op and runtime event
// reaches every plane that is on exactly once.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "comm/fault.hpp"
#include "comm/launch.hpp"
#include "common/serialize.hpp"
#include "core/keybin2.hpp"
#include "data/gaussian_mixture.hpp"
#include "data/partition.hpp"
#include "runtime/context.hpp"
#include "runtime/flight/flight.hpp"
#include "runtime/flight/postmortem.hpp"
#include "runtime/segment.hpp"

#ifdef __linux__
#include "comm/proc_comm.hpp"
#include "comm/recovery.hpp"
#endif

namespace keybin2 {
namespace {

namespace flight = runtime::flight;

std::string temp_dump_path(const char* tag) {
  return ::testing::TempDir() + "kb2_flight_" + tag + ".dump";
}

TEST(FlightRing, RecordsRoundTripThroughDump) {
  runtime::RankSegment seg(/*n_ranks=*/2, "ring unit", /*name=*/{},
                           /*slots_per_rank=*/8);
  flight::FlightWriter w(&seg, /*rank=*/1, /*incarnation=*/0);
  w.record(flight::EventType::kSend, flight::EventPhase::kBegin, /*peer=*/0,
           /*tag=*/7, /*bytes=*/64, "first");
  w.record(flight::EventType::kSend, flight::EventPhase::kEnd, 0, 7, 64,
           "first");
  w.record(flight::EventType::kStage, flight::EventPhase::kBegin, -1, -1, 0,
           "fit/trial0");
  // Longer than the record's 23 detail bytes: the informative tail stays.
  const std::string long_path = "fit/trial12/merge_histograms/sparse_reduce";
  w.record(flight::EventType::kStage, flight::EventPhase::kEnd, -1, -1, 0,
           long_path);

  const std::string path = temp_dump_path("roundtrip");
  seg.freeze();
  flight::write_flight_dump(path, seg, "unit test", {});
  const auto dump = flight::read_flight_dump(path);

  EXPECT_EQ(dump.job, "ring unit");
  EXPECT_EQ(dump.reason, "unit test");
  EXPECT_GT(dump.dump_t_ns, 0);
  ASSERT_EQ(dump.ranks.size(), 2u);
  EXPECT_TRUE(dump.ranks[0].records.empty());  // rank 0 never bound
  const auto& trail = dump.ranks[1];
  EXPECT_GT(trail.epoch_ns, 0);
  ASSERT_EQ(trail.records.size(), 4u);
  EXPECT_EQ(trail.records[0].type,
            static_cast<std::uint8_t>(flight::EventType::kSend));
  EXPECT_EQ(trail.records[0].phase,
            static_cast<std::uint8_t>(flight::EventPhase::kBegin));
  EXPECT_EQ(trail.records[0].peer, 0);
  EXPECT_EQ(trail.records[0].tag, 7);
  EXPECT_EQ(trail.records[0].bytes, 64u);
  EXPECT_STREQ(trail.records[2].detail, "fit/trial0");
  EXPECT_EQ(std::string(trail.records[3].detail),
            long_path.substr(long_path.size() - 23));
  // Records are oldest-first with strictly increasing timestamps.
  EXPECT_LE(trail.records[0].t_ns, trail.records[2].t_ns);
  std::remove(path.c_str());
}

TEST(FlightRing, WrapKeepsNewestTail) {
  runtime::RankSegment seg(1, "wrap", {}, /*slots_per_rank=*/8);
  flight::FlightWriter w(&seg, 0, 0);
  for (int i = 0; i < 20; ++i) {
    char detail[16];
    std::snprintf(detail, sizeof(detail), "ev%d", i);
    w.record(flight::EventType::kMailbox, flight::EventPhase::kPoint, -1, -1,
             static_cast<std::uint64_t>(i), detail);
  }
  seg.freeze();
  const std::string path = temp_dump_path("wrap");
  flight::write_flight_dump(path, seg, "wrap", {});
  const auto dump = flight::read_flight_dump(path);
  const auto& trail = dump.ranks[0];
  EXPECT_EQ(trail.records_total, 20u);
  ASSERT_EQ(trail.records.size(), 8u);  // ring capacity
  // The survivors are exactly the newest eight, in order.
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(trail.records[i].bytes, 12u + i);
  }
  std::remove(path.c_str());
}

TEST(FlightRing, FreezeDropsAndCountsRecords) {
  runtime::RankSegment seg(1, "freeze", {}, 8);
  flight::FlightWriter w(&seg, 0, 0);
  w.record(flight::EventType::kStage, flight::EventPhase::kPoint, -1, -1, 0,
           "before");
  seg.freeze();
  EXPECT_TRUE(seg.frozen());
  w.record(flight::EventType::kStage, flight::EventPhase::kPoint, -1, -1, 0,
           "while frozen");
  seg.unfreeze();
  w.record(flight::EventType::kStage, flight::EventPhase::kPoint, -1, -1, 0,
           "after");

  seg.freeze();
  const std::string path = temp_dump_path("freeze");
  flight::write_flight_dump(path, seg, "freeze", {});
  const auto dump = flight::read_flight_dump(path);
  const auto& trail = dump.ranks[0];
  EXPECT_EQ(trail.records.size(), 2u);  // the frozen record never landed
  EXPECT_EQ(trail.dropped, 1u);
  EXPECT_STREQ(trail.records[1].detail, "after");
  std::remove(path.c_str());
}

TEST(FlightDump, DeathsSurviveTheContainer) {
  runtime::RankSegment seg(3, "deaths", {}, 8);
  std::vector<flight::FlightDeath> deaths;
  deaths.push_back({1, 0, "killed by signal 9"});
  deaths.push_back({2, 1, "respawn budget exhausted"});
  const std::string path = temp_dump_path("deaths");
  flight::write_flight_dump(path, seg, "ladder exhaustion", deaths);
  const auto dump = flight::read_flight_dump(path);
  EXPECT_TRUE(dump.ranks[1].dead);
  EXPECT_EQ(dump.ranks[1].death_reason, "killed by signal 9");
  EXPECT_TRUE(dump.ranks[2].dead);
  EXPECT_EQ(dump.ranks[2].death_reason, "respawn budget exhausted");
  EXPECT_FALSE(dump.ranks[0].dead);
  std::remove(path.c_str());
}

// Satellite: every corruption mode must surface as a *typed* defect — the
// post-mortem tool runs exactly when everything else already failed, so an
// unreadable dump may never crash it.
TEST(FlightDump, CorruptionYieldsTypedDefects) {
  const std::vector<std::string> kDefects = {
      "missing",      "truncated",    "bad_magic",
      "version_skew", "crc_mismatch", "malformed"};
  const flight::DumpCorruption kModes[] = {
      flight::DumpCorruption::kTruncateHeader,
      flight::DumpCorruption::kTruncatePayload,
      flight::DumpCorruption::kZeroSpan,
      flight::DumpCorruption::kFlipBit,
      flight::DumpCorruption::kBadMagic,
  };
  for (const auto mode : kModes) {
    runtime::RankSegment seg(2, "corrupt", {}, 8);
    flight::FlightWriter w(&seg, 0, 0);
    for (int i = 0; i < 6; ++i) {
      w.record(flight::EventType::kBarrier, flight::EventPhase::kBegin, -1,
               -1, 0, "b");
    }
    const std::string path = temp_dump_path("corrupt");
    flight::write_flight_dump(path, seg, "corruption test", {});
    flight::corrupt_flight_dump(path, mode, /*seed=*/17);
    try {
      (void)flight::read_flight_dump(path);
      FAIL() << "corruption mode " << static_cast<int>(mode)
             << " went undetected";
    } catch (const flight::FlightDumpError& e) {
      EXPECT_NE(std::find(kDefects.begin(), kDefects.end(), e.defect()),
                kDefects.end())
          << "untyped defect '" << e.defect() << "' for mode "
          << static_cast<int>(mode);
      EXPECT_EQ(e.path(), path);
    }
    std::remove(path.c_str());
  }
  // And the missing-file defect.
  try {
    (void)flight::read_flight_dump(temp_dump_path("never_written"));
    FAIL() << "missing dump went undetected";
  } catch (const flight::FlightDumpError& e) {
    EXPECT_EQ(e.defect(), "missing");
  }
}

TEST(Postmortem, AttributesDeadlockFromWaitCycle) {
  // Hand-build a two-rank mutual recv wait: a cycle with nobody dead.
  runtime::RankSegment seg(2, "deadlock", {}, 8);
  flight::FlightWriter w0(&seg, 0, 0);
  flight::FlightWriter w1(&seg, 1, 0);
  w0.record(flight::EventType::kRecv, flight::EventPhase::kBegin, 1, 5, 0,
            "");
  w1.record(flight::EventType::kRecv, flight::EventPhase::kBegin, 0, 5, 0,
            "");
  const std::string path = temp_dump_path("deadlock");
  flight::write_flight_dump(path, seg, "hang", {});
  const auto report = flight::analyze_dump(flight::read_flight_dump(path));
  EXPECT_EQ(report.verdict, "deadlock");
  EXPECT_FALSE(report.cycle.empty());
  EXPECT_EQ(report.ranks[0].waiting_on, 1);
  EXPECT_EQ(report.ranks[1].waiting_on, 0);
  std::remove(path.c_str());
}

/// Seeded kill of one rank mid-fit over the given backend; returns the
/// post-mortem report reconstructed from the dump the death callback wrote.
flight::PostmortemReport killed_fit_report(comm::Backend backend,
                                           const std::string& path) {
  constexpr int kRanks = 4;
  constexpr int kVictim = 2;
  const auto spec = data::make_paper_mixture(6, 3, 11);
  const auto d = data::sample(spec, 1600, 12);
  const auto shards = data::shard(d, kRanks);
  core::Params params;
  params.seed = 11;
  params.bootstrap_trials = 2;
  params.comm_timeout_seconds = 20.0;
  params.max_shrink_retries = 3;

  auto seg = std::make_unique<runtime::RankSegment>(kRanks, "killed fit");
  std::mutex mu;
  std::vector<flight::FlightDeath> deaths;
  comm::LaunchOptions launch;
  launch.backend = backend;
  launch.recovery.max_respawns = 1;
  launch.on_abnormal_death = [&](int rank, int incarnation,
                                 const std::string& reason) {
    std::lock_guard lk(mu);
    seg->freeze();
    deaths.push_back({rank, incarnation, reason});
    flight::write_flight_dump(path, *seg, "abnormal rank death", deaths);
    seg->unfreeze();
  };

  try {
    comm::run_ranks(launch, kRanks, [&](comm::Communicator& c) {
      std::optional<comm::fault::FaultyComm> faulty;
      comm::Communicator* ep = &c;
      if (c.rank() == kVictim && c.incarnation() == 0) {
        comm::fault::FaultSchedule s;
        s.kill_at_op = 25;
        s.hard_kill = true;  // real SIGKILL under proc, thrown under thread
        faulty.emplace(c, s);
        ep = &*faulty;
      }
      runtime::Context ctx(*ep, params.seed);
      ctx.enable_flight_recorder(seg.get());
      (void)core::fit(ctx, shards[static_cast<std::size_t>(c.rank())].points,
                      params);
    });
  } catch (const Error&) {
    // Thread backend: the victim's KilledError propagates after the dump
    // was written — the report below is still the artifact under test.
  }
  return flight::analyze_dump(flight::read_flight_dump(path));
}

void expect_victim_story(const flight::PostmortemReport& report) {
  EXPECT_EQ(report.verdict, "victim");
  ASSERT_EQ(report.dead_ranks.size(), 1u);
  EXPECT_EQ(report.dead_ranks[0], 2);
  const auto& victim = report.ranks[2];
  EXPECT_TRUE(victim.dead);
  // The rank died inside the fit: its last stage and the interrupted comm
  // op (an unmatched begin, with peer and tag) must both be on record.
  EXPECT_EQ(victim.last_stage.rfind("fit", 0), 0u) << victim.last_stage;
  ASSERT_TRUE(victim.in_flight.has_value());
  const auto type = static_cast<flight::EventType>(victim.in_flight->type);
  EXPECT_TRUE(type == flight::EventType::kSend ||
              type == flight::EventType::kRecv ||
              type == flight::EventType::kBarrier ||
              type == flight::EventType::kAgree);
  if (type == flight::EventType::kSend || type == flight::EventType::kRecv) {
    EXPECT_GE(victim.in_flight->peer, 0);
    EXPECT_GE(victim.in_flight->tag, 0);
  }
}

TEST(Postmortem, ThreadBackendKillLeavesAttributableDump) {
  const std::string path = temp_dump_path("thread_kill");
  std::remove(path.c_str());
  const auto report = killed_fit_report(comm::Backend::kThread, path);
  expect_victim_story(report);
  std::remove(path.c_str());
}

#ifdef __linux__
TEST(Postmortem, ProcBackendSigkillLeavesAttributableDump) {
  const std::string path = temp_dump_path("proc_kill");
  std::remove(path.c_str());
  const auto report = killed_fit_report(comm::Backend::kProcess, path);
  expect_victim_story(report);
  EXPECT_NE(report.ranks[2].death_reason.find("signal 9"), std::string::npos)
      << report.ranks[2].death_reason;
  std::remove(path.c_str());
}
#endif

// ---------------------------------------------------------------------------
// One event path: every stage boundary, comm op and runtime event reaches
// every plane that is on exactly once, on both backends.

/// One rank's own view of its events. The tracer, timeline and log live in
/// the rank's address space, so the rank counts them and ships the counts
/// back; the flight ring is read from the shared segment afterwards.
struct RankPlanes {
  std::uint64_t scope_calls = 0;  // sum of calls over the tracer's entries
  std::uint64_t spans = 0;        // timeline spans
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t log_retries = 0, log_shrinks = 0;
  std::uint64_t instant_retries = 0, instant_shrinks = 0;
};

/// Flight records of one rank, counted by kind.
struct RingCounts {
  std::uint64_t stage_begins = 0, stage_ends = 0;
  std::uint64_t comm_begins = 0, comm_ends = 0;
  std::uint64_t send_ends = 0, recv_ends = 0;
  std::uint64_t point_retries = 0, point_shrinks = 0;
};

RingCounts count_ring(const flight::RankTrail& trail) {
  RingCounts c;
  for (const flight::FlightRecord& r : trail.records) {
    const auto type = static_cast<flight::EventType>(r.type);
    const auto phase = static_cast<flight::EventPhase>(r.phase);
    const std::string detail(r.detail, strnlen(r.detail, sizeof(r.detail)));
    if (type == flight::EventType::kStage) {
      ++(phase == flight::EventPhase::kBegin ? c.stage_begins : c.stage_ends);
    } else if (type == flight::EventType::kSend ||
               type == flight::EventType::kRecv ||
               type == flight::EventType::kBarrier ||
               type == flight::EventType::kAgree) {
      if (phase == flight::EventPhase::kBegin) {
        ++c.comm_begins;
      } else {
        ++c.comm_ends;
        if (type == flight::EventType::kSend) ++c.send_ends;
        if (type == flight::EventType::kRecv) ++c.recv_ends;
      }
    } else if (phase == flight::EventPhase::kPoint) {
      if (detail == "fit_retry") ++c.point_retries;
      if (detail == "survivor_shrink") ++c.point_shrinks;
    }
  }
  return c;
}

class EventPath : public ::testing::TestWithParam<comm::Backend> {
 protected:
  static constexpr int kRanks = 3;
  // Far above what one small fit records, so no ring wraps and every
  // record is still in the dump.
  static constexpr std::uint32_t kSlots = 1u << 13;

  /// A 3-rank fit with the timeline, comm metrics, the flight recorder and
  /// the profiler all on. Rank `victim` (if >= 0) is killed at its 40th
  /// comm op and leaves, so the others retry and shrink. Returns each
  /// rank's own counts (empty for the victim) and fills `ring` from the
  /// segment's dump.
  std::vector<std::vector<std::byte>> run(int victim,
                                          std::vector<RingCounts>* ring) {
    const auto d = data::sample(data::make_paper_mixture(6, 3, 11), 1500, 12);
    const auto shards = data::shard(d, kRanks);
    core::Params params;
    params.seed = 11;
    params.comm_timeout_seconds = 20.0;
    params.max_shrink_retries = 3;
    runtime::RankSegment seg(kRanks, "event path", /*name=*/{}, kSlots);
    comm::LaunchOptions launch;
    launch.backend = GetParam();
    auto blobs = comm::run_ranks_collect_bytes(
        launch, kRanks, [&](comm::Communicator& c) -> std::vector<std::byte> {
          std::optional<comm::fault::FaultyComm> faulty;
          comm::Communicator* ep = &c;
          if (c.rank() == victim) {
            comm::fault::FaultSchedule s;
            s.kill_at_op = 40;
            faulty.emplace(c, s);
            ep = &*faulty;
          }
          runtime::Context ctx(*ep, params.seed);
          auto sink = std::make_shared<runtime::MemorySink>();
          ctx.log().set_sink(sink);
          ctx.enable_timeline();
          ctx.enable_comm_metrics();
          ctx.enable_flight_recorder(&seg);
          ctx.enable_profiler({}, seg.slot(c.rank()));
          try {
            (void)core::fit(
                ctx, shards[static_cast<std::size_t>(c.rank())].points,
                params);
          } catch (const comm::fault::KilledError&) {
            return {};  // the victim leaves; the survivors shrink around it
          }
          ctx.profiler()->stop();
          RankPlanes p;
          for (const auto& [path, entry] : ctx.tracer().entries()) {
            p.scope_calls += entry.calls;
          }
          p.spans = ctx.timeline()->spans().size();
          const comm::TrafficStats t = ctx.comm().stats();
          p.messages_sent = t.messages_sent;
          p.messages_received = t.messages_received;
          p.log_retries = sink->events_named("fit_retry").size();
          p.log_shrinks = sink->events_named("survivor_shrink").size();
          for (const auto& i : ctx.timeline()->instants()) {
            if (i.name == "fit_retry") ++p.instant_retries;
            if (i.name == "survivor_shrink") ++p.instant_shrinks;
          }
          ByteWriter w;
          w.write(p);
          return w.take();
        });
    // One dump per test instance: ctest runs the instances in parallel.
    std::string tag =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::replace(tag.begin(), tag.end(), '/', '_');
    const std::string path = temp_dump_path(tag.c_str());
    flight::write_flight_dump(path, seg, "event path", {});
    const auto dump = flight::read_flight_dump(path);
    std::remove(path.c_str());
    for (const auto& trail : dump.ranks) {
      EXPECT_LE(trail.records_total, kSlots) << "rank " << trail.rank
                                             << "'s ring wrapped";
      ring->push_back(count_ring(trail));
    }
    return blobs;
  }

  static RankPlanes planes(const std::vector<std::byte>& blob) {
    ByteReader r(blob);
    return r.read<RankPlanes>();
  }
};

TEST_P(EventPath, CleanFitStagesAndOpsReachEachPlaneOnce) {
  std::vector<RingCounts> ring;
  const auto blobs = run(/*victim=*/-1, &ring);
  ASSERT_EQ(blobs.size(), static_cast<std::size_t>(kRanks));
  ASSERT_EQ(ring.size(), static_cast<std::size_t>(kRanks));
  for (int r = 0; r < kRanks; ++r) {
    SCOPED_TRACE("rank " + std::to_string(r));
    const auto& f = ring[static_cast<std::size_t>(r)];
    const RankPlanes p = planes(blobs[static_cast<std::size_t>(r)]);
    // Stages: one flight begin, one flight end and one span per scope call.
    EXPECT_GT(p.scope_calls, 0u);
    EXPECT_EQ(f.stage_begins, p.scope_calls);
    EXPECT_EQ(f.stage_ends, p.scope_calls);
    EXPECT_EQ(p.spans, p.scope_calls);
    // Comm ops: every begin completed, and the completions are the
    // transport's own message counts.
    EXPECT_GT(p.messages_sent, 0u);
    EXPECT_EQ(f.comm_begins, f.comm_ends);
    EXPECT_EQ(f.send_ends, p.messages_sent);
    EXPECT_EQ(f.recv_ends, p.messages_received);
  }
}

TEST_P(EventPath, RetryReachesEachPlaneOnce) {
  constexpr int kVictim = 2;
  std::vector<RingCounts> ring;
  const auto blobs = run(kVictim, &ring);
  ASSERT_EQ(blobs.size(), static_cast<std::size_t>(kRanks));
  for (int r = 0; r < kRanks; ++r) {
    if (r == kVictim) continue;
    SCOPED_TRACE("rank " + std::to_string(r));
    const auto& f = ring[static_cast<std::size_t>(r)];
    const RankPlanes p = planes(blobs[static_cast<std::size_t>(r)]);
    EXPECT_GE(p.log_retries, 1u);
    EXPECT_EQ(p.instant_retries, p.log_retries);
    EXPECT_EQ(f.point_retries, p.log_retries);
    EXPECT_GE(p.log_shrinks, 1u);
    EXPECT_EQ(p.instant_shrinks, p.log_shrinks);
    EXPECT_EQ(f.point_shrinks, p.log_shrinks);
  }
}

TEST(EventPathFlightOnly, FitLeavesTheRegistryWithoutCommMetrics) {
  // The flight recorder hooks the Context into every comm op, but only the
  // ring hears about them: no traffic matrix, wait histogram or depth gauge
  // may appear in the registry of a flight-only fit.
  constexpr int kRanks = 3;
  const auto shards = data::shard(
      data::sample(data::make_paper_mixture(6, 3, 11), 1500, 12), kRanks);
  runtime::RankSegment seg(kRanks, "flight only");
  std::vector<int> registry_clean(kRanks, 0);  // one word per rank thread
  comm::run_ranks(kRanks, [&](comm::Communicator& c) {
    runtime::Context ctx(c, /*seed=*/11);
    ctx.enable_flight_recorder(&seg);
    (void)core::fit(ctx, shards[static_cast<std::size_t>(c.rank())].points,
                    core::Params{});
    const auto& m = ctx.metrics();
    registry_clean[static_cast<std::size_t>(c.rank())] =
        m.sent().empty() && m.received().empty() &&
        m.histograms().count("recv_wait") == 0 &&
        m.histograms().count("barrier_wait") == 0 &&
        m.gauges().count("mailbox_depth") == 0;
  });
  const std::string path = temp_dump_path("flight_only");
  flight::write_flight_dump(path, seg, "flight only", {});
  const auto dump = flight::read_flight_dump(path);
  std::remove(path.c_str());
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_EQ(registry_clean[static_cast<std::size_t>(r)], 1) << "rank " << r;
    EXPECT_GT(count_ring(dump.ranks[static_cast<std::size_t>(r)]).send_ends,
              0u)
        << "rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, EventPath,
#ifdef __linux__
    ::testing::Values(comm::Backend::kThread, comm::Backend::kProcess),
#else
    ::testing::Values(comm::Backend::kThread),
#endif
    [](const ::testing::TestParamInfo<comm::Backend>& info) {
      return std::string(comm::backend_name(info.param));
    });

}  // namespace
}  // namespace keybin2
