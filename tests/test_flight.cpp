// Flight-recorder tests (DESIGN.md §10): ring seqlock semantics, freeze
// discipline, the versioned CRC-checked dump container and its five-mode
// corruption taxonomy, and end-to-end death attribution — a killed rank's
// dump must name the rank, its last pipeline stage, and the comm op it died
// inside, on both transport backends.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "comm/fault.hpp"
#include "comm/launch.hpp"
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

}  // namespace
}  // namespace keybin2
