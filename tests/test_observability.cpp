// Observability subsystem tests: the shared now_ns() clock, latency
// histograms, the metrics registry + collective merge (with its pinned
// seed-deterministic fingerprint), Chrome trace-event export, the JSON
// writer/validator pair, the structured event log, and Tracer::rebind
// across a SubgroupComm shrink.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "comm/launch.hpp"
#include "common/timer.hpp"
#include "runtime/context.hpp"
#include "runtime/json.hpp"
#include "runtime/log.hpp"
#include "runtime/metrics.hpp"
#include "runtime/timeline.hpp"
#include "runtime/tracer.hpp"

namespace keybin2::runtime {
namespace {

std::vector<std::byte> payload(std::size_t n) {
  return std::vector<std::byte>(n, std::byte{0x5a});
}

TEST(NowNs, MonotoneNonDecreasing) {
  std::int64_t prev = now_ns();
  for (int i = 0; i < 1000; ++i) {
    const auto t = now_ns();
    EXPECT_GE(t, prev);
    prev = t;
  }
}

TEST(LatencyHistogram, PowerOfTwoBuckets) {
  LatencyHistogram h;
  h.record(1);     // bucket 0
  h.record(2);     // bucket 1
  h.record(3);     // bucket 1
  h.record(1024);  // bucket 10
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.buckets()[1], 2u);
  EXPECT_EQ(h.buckets()[10], 1u);
  EXPECT_EQ(h.min_ns(), 1);
  EXPECT_EQ(h.max_ns(), 1024);
  EXPECT_DOUBLE_EQ(h.mean_ns(), (1.0 + 2.0 + 3.0 + 1024.0) / 4.0);
}

TEST(LatencyHistogram, QuantilesClampToObservedRange) {
  LatencyHistogram h;
  for (int i = 0; i < 100; ++i) h.record(1000);
  EXPECT_GE(h.quantile(0.5), h.min_ns());
  EXPECT_LE(h.quantile(0.5), h.max_ns());
  EXPECT_LE(h.quantile(0.99), h.max_ns());
  // Empty histogram: quantiles are 0, not garbage.
  LatencyHistogram empty;
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
}

TEST(LatencyHistogram, MergeSumsBuckets) {
  LatencyHistogram a, b;
  a.record(10);
  b.record(10);
  b.record(100000);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.min_ns(), 10);
  EXPECT_EQ(a.max_ns(), 100000);
}

TEST(Json, WriterEmitsValidDocuments) {
  JsonWriter w;
  w.begin_object();
  w.key("name").value("a \"quoted\" str\nwith\tcontrol");
  w.key("n").value(std::uint64_t{42});
  w.key("x").value(-1.5);
  w.key("flag").value(true);
  w.key("list").begin_array();
  w.value(1).value(2).value(3);
  w.end_array();
  w.key("nested").begin_object().end_object();
  w.end_object();
  EXPECT_TRUE(json_validate(w.str()));
  EXPECT_NE(w.str().find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(w.str().find("\\n"), std::string::npos);
}

TEST(Json, ValidatorAcceptsAndRejects) {
  EXPECT_TRUE(json_validate("{}"));
  EXPECT_TRUE(json_validate("[1, 2.5, -3e4, \"s\", true, null]"));
  EXPECT_TRUE(json_validate("  {\"a\": [{}]}  "));
  EXPECT_FALSE(json_validate(""));
  EXPECT_FALSE(json_validate("{"));
  EXPECT_FALSE(json_validate("{\"a\":}"));
  EXPECT_FALSE(json_validate("[1,]"));
  EXPECT_FALSE(json_validate("{} trailing"));
  EXPECT_FALSE(json_validate("'single'"));
}

TEST(Metrics, RegistryCountersAndGauges) {
  MetricsRegistry m;
  EXPECT_TRUE(m.empty());
  m.add("events");
  m.add("events", 4);
  m.gauge_max("depth", 3.0);
  m.gauge_max("depth", 1.0);  // lower: ignored
  EXPECT_EQ(m.counters().at("events"), 5u);
  EXPECT_DOUBLE_EQ(m.gauges().at("depth"), 3.0);
  EXPECT_FALSE(m.empty());
  m.reset();
  EXPECT_TRUE(m.empty());
}

TEST(Metrics, CommRecordsFeedChannelsAndHistograms) {
  MetricsRegistry m;
  m.record_send(/*peer=*/1, /*tag=*/5, /*bytes=*/100, /*queue_depth=*/2);
  m.record_send(1, 5, 50, 7);
  m.record_recv(/*peer=*/3, /*tag=*/5, /*bytes=*/20, /*wait_ns=*/1500);
  m.record_barrier(/*wait_ns=*/300);

  const auto& out = m.sent().at({1, 5});
  EXPECT_EQ(out.messages, 2u);
  EXPECT_EQ(out.bytes, 150u);
  const auto& in = m.received().at({3, 5});
  EXPECT_EQ(in.messages, 1u);
  EXPECT_EQ(in.bytes, 20u);
  EXPECT_EQ(m.histograms().at("recv_wait").count(), 1u);
  EXPECT_EQ(m.histograms().at("barrier_wait").count(), 1u);
  EXPECT_DOUBLE_EQ(m.gauges().at("mailbox_depth"), 7.0);
}

// A scripted ring exchange whose merged traffic matrix is exactly
// predictable: every rank sends one (10 * (rank + 1))-byte message to the
// next rank on tag 9.
MetricsReport scripted_exchange_report() {
  MetricsReport out;
  comm::run_ranks(4, [&](comm::Communicator& c) {
    Context ctx(c, /*seed=*/1);
    ctx.enable_comm_metrics();
    const int next = (c.rank() + 1) % 4;
    const int prev = (c.rank() + 3) % 4;
    c.send(next, 9, payload(10 * static_cast<std::size_t>(c.rank() + 1)));
    (void)c.recv(prev, 9);
    auto report = ctx.metrics_report();
    if (c.rank() == 0) out = std::move(report);
  });
  return out;
}

TEST(Metrics, MergedChannelsPinnedForScriptedExchange) {
  const auto report = scripted_exchange_report();
  ASSERT_EQ(report.ranks, 4);
  ASSERT_EQ(report.channels.size(), 4u);
  for (int r = 0; r < 4; ++r) {
    const auto it = report.channels.find({r, (r + 1) % 4, 9});
    ASSERT_NE(it, report.channels.end()) << "missing channel from rank " << r;
    EXPECT_EQ(it->second.messages, 1u);
    EXPECT_EQ(it->second.bytes, 10u * static_cast<std::uint64_t>(r + 1));
  }
  // Every rank's recv was observed with a wait-latency sample.
  ASSERT_EQ(report.histograms.count("recv_wait"), 1u);
  EXPECT_EQ(report.histograms.at("recv_wait").count(), 4u);
  // The heatmap renders every source rank's row.
  const auto heat = report.heatmap();
  for (int r = 0; r < 4; ++r) {
    EXPECT_NE(heat.find("src " + std::to_string(r)), std::string::npos);
  }
}

TEST(Metrics, DeterministicFingerprintIsBitIdenticalAcrossRuns) {
  const auto a = scripted_exchange_report();
  const auto b = scripted_exchange_report();
  ASSERT_FALSE(a.deterministic_fingerprint().empty());
  // Bit-identical: same channels, counters, and histogram counts — wall
  // times and quantiles are excluded by construction.
  EXPECT_EQ(a.deterministic_fingerprint(), b.deterministic_fingerprint());
  // Pinned: the fingerprint names the scripted channels explicitly.
  EXPECT_NE(a.deterministic_fingerprint().find("chan 0->1 user:9 msgs=1"),
            std::string::npos);
}

TEST(Metrics, ReportJsonSeparatesDeterministicFromTiming) {
  const auto report = scripted_exchange_report();
  JsonWriter w;
  report.to_json(w);
  ASSERT_TRUE(json_validate(w.str()));
  EXPECT_NE(w.str().find("\"deterministic\""), std::string::npos);
  EXPECT_NE(w.str().find("\"timing\""), std::string::npos);
  // Channel totals live in the deterministic section...
  const auto det = w.str().find("\"deterministic\"");
  const auto timing = w.str().find("\"timing\"");
  const auto channels = w.str().find("\"channels\"");
  EXPECT_GT(channels, det);
  EXPECT_LT(channels, timing);
  // ...quantiles in the timing section.
  EXPECT_GT(w.str().find("\"p99_us\""), timing);
}

TEST(Metrics, MergeOfEmptyRegistriesYieldsEmptyReport) {
  // All ranks enter the collective with untouched registries: the merge
  // must complete (it's a collective — a hang here deadlocks the job) and
  // produce a structurally empty report whose fingerprint is still a
  // stable string, not garbage.
  MetricsReport out;
  comm::run_ranks(3, [&](comm::Communicator& c) {
    MetricsRegistry empty;
    auto report = merge_metrics(empty, c);
    if (c.rank() == 0) out = std::move(report);
  });
  EXPECT_EQ(out.ranks, 3);
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(out.counters.empty());
  EXPECT_TRUE(out.histograms.empty());
  EXPECT_TRUE(out.channels.empty());
  const auto fp = out.deterministic_fingerprint();
  EXPECT_EQ(fp, out.deterministic_fingerprint());
  // And formatting an empty report must not crash or emit channel rows.
  EXPECT_EQ(out.heatmap().find("src 3"), std::string::npos);
}

TEST(LatencyHistogram, SaturatedTopBucketSurvivesMerge) {
  // Values at the top of the representable range all collapse into the
  // highest reachable log-2 bucket (62: bit_width(INT64_MAX) - 1). Counts,
  // extremes, and quantile clamping must survive a merge of two such
  // saturated histograms without overflow artifacts.
  constexpr std::int64_t kHuge = std::numeric_limits<std::int64_t>::max();
  LatencyHistogram a, b;
  for (int i = 0; i < 5; ++i) a.record(kHuge);
  for (int i = 0; i < 7; ++i) b.record(kHuge - 1);
  b.record((std::int64_t{1} << 62) + 1);  // same bucket, different value
  EXPECT_EQ(a.buckets()[62], 5u);
  EXPECT_EQ(b.buckets()[62], 8u);
  // The running sum saturates at INT64_MAX instead of wrapping negative.
  EXPECT_DOUBLE_EQ(a.mean_ns(), static_cast<double>(kHuge) / 5.0);

  a.merge(b);
  EXPECT_EQ(a.count(), 13u);
  EXPECT_DOUBLE_EQ(a.mean_ns(), static_cast<double>(kHuge) / 13.0);
  EXPECT_EQ(a.buckets()[62], 13u);
  EXPECT_EQ(a.max_ns(), kHuge);
  EXPECT_EQ(a.min_ns(), (std::int64_t{1} << 62) + 1);
  // Quantiles clamp to the observed max instead of reporting the bucket's
  // upper edge 2^63 (which would overflow back to a wrong magnitude).
  EXPECT_LE(a.quantile(0.99), static_cast<double>(kHuge));
  EXPECT_GE(a.quantile(0.5), static_cast<double>(a.min_ns()));
  // Merging an empty histogram in either direction is the identity.
  LatencyHistogram empty;
  const auto before = a.count();
  a.merge(empty);
  EXPECT_EQ(a.count(), before);
  empty.merge(a);
  EXPECT_EQ(empty.count(), before);
  EXPECT_EQ(empty.max_ns(), kHuge);
}

TEST(Metrics, FingerprintInvariantUnderMergeOrderPermutation) {
  // merge_metrics gathers rank-by-rank, so the merged maps are built in a
  // different insertion order depending on which rank held which data. The
  // fingerprint covers counters and histogram counts (rank-agnostic
  // fields); permuting the data-to-rank assignment must not change it.
  // Channels are deliberately absent: their (src, dst, tag) keys encode
  // rank identity, so they are *expected* to move with the permutation.
  const std::vector<std::vector<std::pair<const char*, std::uint64_t>>>
      datasets = {
          {{"points_binned", 101}, {"retries", 3}},
          {{"points_binned", 202}, {"collapses", 9}},
          {{"points_binned", 303}, {"retries", 1}, {"spills", 4}},
      };
  auto fingerprint_with = [&](const std::vector<int>& assign) {
    std::string fp;
    comm::run_ranks(3, [&](comm::Communicator& c) {
      MetricsRegistry m;
      for (const auto& [name, v] :
           datasets[static_cast<std::size_t>(assign[
               static_cast<std::size_t>(c.rank())])]) {
        m.add(name, v);
      }
      // Histogram observation counts are fingerprinted too; give each
      // dataset a distinct count so a mis-merge would show.
      auto& h = m.histogram("stage_wall");
      for (std::uint64_t i = 0;
           i <= datasets[static_cast<std::size_t>(
                    assign[static_cast<std::size_t>(c.rank())])][0].second;
           i += 50) {
        h.record(static_cast<std::int64_t>(i) + 1);
      }
      auto report = merge_metrics(m, c);
      if (c.rank() == 0) fp = report.deterministic_fingerprint();
    });
    return fp;
  };

  const auto base = fingerprint_with({0, 1, 2});
  ASSERT_FALSE(base.empty());
  EXPECT_NE(base.find("points_binned"), std::string::npos);
  for (const auto& perm : std::vector<std::vector<int>>{
           {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}) {
    EXPECT_EQ(fingerprint_with(perm), base)
        << "fingerprint changed under assignment permutation";
  }
}

TEST(Timeline, TracerScopesBecomeSpans) {
  Context ctx;
  ctx.enable_timeline();
  Tracer& tracer = ctx.tracer();
  {
    auto outer = tracer.scope("fit");
    auto inner = tracer.scope("bin");
  }
  const Timeline& tl = *ctx.timeline();
  ASSERT_EQ(tl.spans().size(), 2u);
  // Inner closes first; both carry the full path and ordered timestamps.
  EXPECT_EQ(tl.spans()[0].name, "fit/bin");
  EXPECT_EQ(tl.spans()[1].name, "fit");
  for (const auto& s : tl.spans()) EXPECT_LE(s.start_ns, s.end_ns);
  EXPECT_LE(tl.spans()[1].start_ns, tl.spans()[0].start_ns);
}

TEST(Timeline, ChromeTraceJsonPairsFlows) {
  std::vector<Timeline> ranks;
  ranks.emplace_back(0);
  ranks.emplace_back(1);
  ranks[0].add_span("fit", 1000, 5000);
  ranks[1].add_span("fit", 1100, 5100);
  // Flow 7: sent by rank 0 at t=2000, received by rank 1 at t=2500.
  ranks[0].add_flow(7, 2000, /*start=*/true, /*peer=*/1, /*tag=*/9, 128);
  ranks[1].add_flow(7, 2500, /*start=*/false, /*peer=*/0, /*tag=*/9, 128);
  // Flow 8 has no matching recv: must be dropped, not half-emitted.
  ranks[0].add_flow(8, 3000, /*start=*/true, /*peer=*/1, /*tag=*/9, 64);
  ranks[1].add_instant("survivor_shrink", 4000);

  const auto json = chrome_trace_json(ranks);
  ASSERT_TRUE(json_validate(json));
  auto count = [&](const std::string& needle) {
    std::size_t n = 0;
    for (auto pos = json.find(needle); pos != std::string::npos;
         pos = json.find(needle, pos + needle.size())) {
      ++n;
    }
    return n;
  };
  // process_name + thread_name per rank (pid = tid = rank lanes).
  EXPECT_EQ(count("\"ph\":\"M\""), 4u);
  EXPECT_EQ(count("\"ph\":\"X\""), 2u);
  EXPECT_EQ(count("\"ph\":\"s\""), 1u);  // only the completed pair
  EXPECT_EQ(count("\"ph\":\"f\""), 1u);
  EXPECT_EQ(count("\"ph\":\"i\""), 1u);
  EXPECT_NE(json.find("msg:user:9"), std::string::npos);
  // Earliest event (span at 1000ns) is shifted to ts 0.
  EXPECT_NE(json.find("\"ts\":0"), std::string::npos);
}

TEST(Timeline, EmptyRanksStillGetNamedTracks) {
  std::vector<Timeline> ranks;
  for (int r = 0; r < 4; ++r) ranks.emplace_back(r);
  const auto json = chrome_trace_json(ranks);
  ASSERT_TRUE(json_validate(json));
  for (int r = 0; r < 4; ++r) {
    EXPECT_NE(json.find("rank " + std::to_string(r)), std::string::npos);
  }
}

TEST(EventLog, MemorySinkCapturesLeveledEvents) {
  auto sink = std::make_shared<MemorySink>();
  EventLog log(/*rank=*/3);
  EXPECT_FALSE(log.enabled(LogLevel::kError));  // no sink: silent
  log.set_sink(sink);
  log.set_level(LogLevel::kWarn);
  log.info("ignored_below_threshold");
  log.warn("fit_retry", {{"kind", "timeout"}, {"attempt", "1"}});
  log.error("fit_abandoned");

  ASSERT_EQ(sink->events().size(), 2u);
  const auto retry = sink->events_named("fit_retry");
  ASSERT_EQ(retry.size(), 1u);
  EXPECT_EQ(retry[0].rank, 3);
  EXPECT_GT(retry[0].t_ns, 0);
  ASSERT_EQ(retry[0].attrs.size(), 2u);
  EXPECT_EQ(retry[0].attrs[0].first, "kind");
  EXPECT_EQ(retry[0].attrs[0].second, "timeout");
  // Each event renders as one valid JSONL line.
  EXPECT_TRUE(json_validate(retry[0].to_json()));
  EXPECT_NE(retry[0].to_json().find("\"level\":\"warn\""), std::string::npos);
}

TEST(EventLog, JsonlFileSinkRotatesAtSizeCap) {
  const std::string path =
      ::testing::TempDir() + "kb2_rotate_test.jsonl";
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());

  EventLog log(/*rank=*/0);
  auto sink = std::make_shared<JsonlFileSink>(path, /*append=*/false,
                                              /*max_bytes=*/512);
  ASSERT_TRUE(sink->ok());
  log.set_sink(sink);
  // Each line is ~70 bytes, so a few dozen events must roll the file over
  // at least once (and likely several times — only the last two generations
  // survive, current plus .1).
  for (int i = 0; i < 40; ++i) {
    log.info("rotation_filler", {{"i", std::to_string(i)}});
  }
  EXPECT_GE(sink->rotations(), 1u);

  // Both generations exist, every surviving line is valid JSONL, the
  // current generation respects the cap, and together they hold the newest
  // events (the tail is never lost to rotation).
  std::size_t current_bytes = 0;
  bool saw_last = false;
  for (const auto& p : {path, path + ".1"}) {
    std::ifstream in(p);
    ASSERT_TRUE(in.good()) << p;
    std::string line;
    std::size_t bytes = 0;
    while (std::getline(in, line)) {
      EXPECT_TRUE(json_validate(line)) << line;
      bytes += line.size() + 1;
      if (line.find("\"i\":\"39\"") != std::string::npos) saw_last = true;
    }
    if (p == path) current_bytes = bytes;
  }
  EXPECT_LE(current_bytes, 512u);
  EXPECT_TRUE(saw_last);

  // Append mode never rotates: rotation accounting can't know the shared
  // file's true size when several rank processes append to it.
  auto shared = std::make_shared<JsonlFileSink>(path, /*append=*/true,
                                                /*max_bytes=*/64);
  log.set_sink(shared);
  for (int i = 0; i < 10; ++i) log.info("append_mode_filler");
  EXPECT_EQ(shared->rotations(), 0u);

  std::remove(path.c_str());
  std::remove((path + ".1").c_str());
}

TEST(TracerRebind, SubgroupShrinkKeepsTrafficMonotone) {
  comm::run_ranks(4, [&](comm::Communicator& c) {
    Context ctx(c, 1);
    auto& tracer = ctx.tracer();
    {
      auto s = tracer.scope("full_group");
      if (c.rank() == 3) c.send(0, 11, payload(64));
      if (c.rank() == 0) (void)c.recv(3, 11);
    }
    const auto before = tracer.total_traffic();

    // Ranks 0-2 continue as a subgroup (rank 3 idles — a stand-in for a
    // dead rank; a real shrink reaches this through agree_survivors()).
    if (c.rank() < 3) {
      comm::SubgroupComm sub(c, {0, 1, 2});
      tracer.rebind(&sub);
      {
        auto s = tracer.scope("survivor_group");
        if (sub.rank() == 1) sub.send(0, 12, payload(32));
        if (sub.rank() == 0) (void)sub.recv(1, 12);
      }
      const auto after = tracer.total_traffic();
      // Monotone: the rebind never loses previously attributed traffic
      // (SubgroupComm::stats() continues the parent's counters).
      EXPECT_GE(after.bytes_sent, before.bytes_sent);
      EXPECT_GE(after.messages_sent, before.messages_sent);
      EXPECT_GE(after.bytes_received, before.bytes_received);
      // Reconciliation: summed per-scope traffic equals the communicator's
      // own totals, across the rebind.
      const auto stats = sub.stats();
      EXPECT_EQ(after.messages_sent, stats.messages_sent);
      EXPECT_EQ(after.bytes_sent, stats.bytes_sent);
      EXPECT_EQ(after.messages_received, stats.messages_received);
      EXPECT_EQ(after.bytes_received, stats.bytes_received);
      // The subgroup scope attributed exactly the survivor-group exchange.
      const auto& entry = tracer.entries().at("survivor_group").traffic;
      if (sub.rank() == 1) {
        EXPECT_EQ(entry.messages_sent, 1u);
        EXPECT_EQ(entry.bytes_sent, 32u);
      }
      if (sub.rank() == 0) {
        EXPECT_EQ(entry.messages_received, 1u);
        EXPECT_EQ(entry.bytes_received, 32u);
      }
      tracer.rebind(&c);  // detach before sub dies
    }
  });
}

TEST(ContextObservability, ProbeSurvivesManualSubgroup) {
  // Comm metrics keep flowing after traffic moves to a subgroup: the probe
  // sits on the leaf transport and SubgroupComm forwards set_probe to its
  // parent, so full-group rank numbering is preserved in the channels.
  comm::run_ranks(3, [&](comm::Communicator& c) {
    Context ctx(c, 1);
    ctx.enable_comm_metrics();
    comm::SubgroupComm sub(c, {0, 1, 2});
    if (sub.rank() == 2) sub.send(1, 13, payload(48));
    if (sub.rank() == 1) (void)sub.recv(2, 13);
    if (c.rank() == 2) {
      const auto it = ctx.metrics().sent().find({1, 13});
      ASSERT_NE(it, ctx.metrics().sent().end());
      EXPECT_EQ(it->second.bytes, 48u);
    }
    c.barrier();
  });
}

}  // namespace
}  // namespace keybin2::runtime
