#include "core/streaming.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "comm/launch.hpp"
#include "common/error.hpp"
#include "common/serialize.hpp"
#include "core/keybin2.hpp"
#include "data/gaussian_mixture.hpp"
#include "data/partition.hpp"
#include "stats/metrics.hpp"

namespace keybin2::core {
namespace {

TEST(Streaming, CountsPushedPoints) {
  StreamingKeyBin2 s(3);
  EXPECT_EQ(s.points_seen(), 0u);
  const double p[] = {1.0, 2.0, 3.0};
  s.push(p);
  EXPECT_EQ(s.points_seen(), 1u);

  Matrix batch(5, 3);
  s.push_batch(batch);
  EXPECT_EQ(s.points_seen(), 6u);
}

TEST(Streaming, RejectsWrongArity) {
  StreamingKeyBin2 s(3);
  const double p[] = {1.0, 2.0};
  EXPECT_THROW(s.push(p), Error);
}

TEST(Streaming, RefitBeforeDataThrows) {
  StreamingKeyBin2 s(2);
  EXPECT_THROW(s.refit(), Error);
  EXPECT_THROW(s.model(), Error);
  EXPECT_FALSE(s.has_model());
}

TEST(Streaming, RecoversMixtureFromStream) {
  const auto spec = data::make_paper_mixture(12, 3, 1);
  const auto d = data::sample(spec, 6000, 2);
  StreamingKeyBin2 s(12);
  s.push_batch(d.points);
  s.refit();
  ASSERT_TRUE(s.has_model());

  std::vector<int> labels(d.size());
  for (std::size_t i = 0; i < d.size(); ++i) {
    labels[i] = s.label(d.points.row(i));
  }
  const auto scores = stats::pairwise_scores(labels, d.labels);
  EXPECT_GT(scores.f1, 0.75);
  EXPECT_GE(s.model().n_clusters(), 3);
}

TEST(Streaming, AgreesWithBatchFit) {
  const auto spec = data::make_paper_mixture(16, 4, 3);
  const auto d = data::sample(spec, 8000, 4);

  const auto batch = fit(d.points);

  StreamingKeyBin2 s(16, Params{}, /*reservoir=*/4096);
  s.push_batch(d.points);
  s.refit();
  const auto stream_labels = s.model().predict(d.points);

  // Streaming re-anchors ranges and estimates cells from a reservoir, so
  // agreement is statistical, not exact.
  EXPECT_GT(stats::adjusted_rand_index(stream_labels, batch.labels), 0.6);
}

TEST(Streaming, IncrementalPushesMatchOneBatch) {
  const auto spec = data::make_paper_mixture(8, 2, 5);
  const auto d = data::sample(spec, 3000, 6);

  StreamingKeyBin2 one(8);
  one.push_batch(d.points);
  one.refit();

  StreamingKeyBin2 many(8);
  for (std::size_t i = 0; i < d.size(); ++i) many.push(d.points.row(i));
  many.refit();

  // Same data in any batching produces identical histograms, hence
  // identical models (the reservoir differs only via the same seeded RNG
  // fed in the same order, so it is identical too).
  const auto la = one.model().predict(d.points);
  const auto lb = many.model().predict(d.points);
  EXPECT_EQ(la, lb);
}

TEST(Streaming, HandlesRangeExpansionMidStream) {
  // First batch in [0, 1); second far away at 100 — ranges must double out.
  StreamingKeyBin2 s(1);
  for (int i = 0; i < 500; ++i) {
    const double p[] = {i / 500.0};
    s.push(p);
  }
  for (int i = 0; i < 500; ++i) {
    const double p[] = {100.0 + i / 500.0};
    s.push(p);
  }
  s.refit();
  const double lo[] = {0.5};
  const double hi[] = {100.5};
  EXPECT_NE(s.label(lo), s.label(hi));
  EXPECT_EQ(s.model().n_clusters(), 2);
}

TEST(Streaming, PeriodicRefitIsStable) {
  const auto spec = data::make_paper_mixture(10, 3, 7);
  const auto d = data::sample(spec, 4000, 8);
  StreamingKeyBin2 s(10);
  // Refit every 1000 points, like an in-situ consumer would.
  for (std::size_t i = 0; i < d.size(); ++i) {
    s.push(d.points.row(i));
    if ((i + 1) % 1000 == 0) s.refit();
  }
  const auto labels = s.model().predict(d.points);
  EXPECT_GT(stats::pairwise_scores(labels, d.labels).f1, 0.7);
}

TEST(Streaming, DistributedRefitMergesRanks) {
  const auto spec = data::make_paper_mixture(10, 4, 9);
  const auto d = data::sample(spec, 4000, 10);
  const auto shards = data::shard(d, 4);

  std::vector<int> combined(d.size());
  comm::run_ranks(4, [&](comm::Communicator& c) {
    const auto r = static_cast<std::size_t>(c.rank());
    StreamingKeyBin2 s(10);
    s.push_batch(shards[r].points);
    s.refit(c);
    const auto labels = s.model().predict(shards[r].points);
    const auto ranges = data::partition_rows(d.size(), 4);
    std::copy(labels.begin(), labels.end(),
              combined.begin() + static_cast<std::ptrdiff_t>(ranges[r].begin));
  });
  EXPECT_GT(stats::pairwise_scores(combined, d.labels).f1, 0.7);
}

TEST(Streaming, DistributedRanksWithDisjointRangesReconcile) {
  // Rank 0 sees values near 0, rank 1 near 1000: the refit must reconcile
  // the wildly different histogram ranges into one envelope.
  comm::run_ranks(2, [&](comm::Communicator& c) {
    StreamingKeyBin2 s(1);
    const double base = c.rank() == 0 ? 0.0 : 1000.0;
    for (int i = 0; i < 400; ++i) {
      const double p[] = {base + i * 0.001};
      s.push(p);
    }
    s.refit(c);
    const double a[] = {0.2};
    const double b[] = {1000.2};
    EXPECT_NE(s.label(a), s.label(b));
  });
}

TEST(Streaming, SingleClusterStreamStaysSingle) {
  const auto spec = data::make_paper_mixture(6, 1, 11);
  const auto d = data::sample(spec, 3000, 12);
  StreamingKeyBin2 s(6);
  s.push_batch(d.points);
  s.refit();
  EXPECT_LE(s.model().n_clusters(), 2);

  // Every trial collapses (no KS statistic reaches 2.0), so the refit keeps
  // its first collapsed trial: every rank gets the same one-cluster,
  // score-0 model with no kept dimension.
  Params all_collapse;
  all_collapse.collapse_threshold = 2.0;
  for (const auto backend : {comm::Backend::kThread, comm::Backend::kProcess}) {
    for (const int ranks : {1, 2}) {
      SCOPED_TRACE(std::string(comm::backend_name(backend)) + " backend, " +
                   std::to_string(ranks) + " ranks");
      const auto shards = data::shard(d, ranks);
      comm::LaunchOptions options;
      options.backend = backend;
      const auto blobs = comm::run_ranks_collect_bytes(
          options, ranks, [&](comm::Communicator& c) {
            const auto r = static_cast<std::size_t>(c.rank());
            StreamingKeyBin2 engine(6, all_collapse);
            engine.push_batch(shards[r].points);
            ByteWriter w;
            engine.refit(c).serialize(w);
            return w.take();
          });
      for (const auto& blob : blobs) {
        EXPECT_EQ(blob, blobs.front());
        ByteReader r(blob);
        const auto model = Model::deserialize(r);
        EXPECT_EQ(model.n_clusters(), 1);
        EXPECT_EQ(model.score(), 0.0);
        EXPECT_TRUE(model.kept_dims().empty());
      }
    }
  }
}

TEST(Streaming, ReservoirCapacityIsValidated) {
  EXPECT_THROW(StreamingKeyBin2(3, Params{}, 4), Error);
  EXPECT_THROW(StreamingKeyBin2(0), Error);
}

TEST(Streaming, ConstructorRejectsZeroTrials) {
  Params no_trials;
  no_trials.bootstrap_trials = 0;
  EXPECT_THROW(StreamingKeyBin2(3, no_trials), Error);
  // Batch fit's depth-range check, at construction rather than in a refit.
  Params inverted;
  inverted.min_depth = 6;
  inverted.max_depth = 5;
  EXPECT_THROW(StreamingKeyBin2(3, inverted), Error);
  Params depth_zero;
  depth_zero.min_depth = 0;
  EXPECT_THROW(StreamingKeyBin2(3, depth_zero), Error);
}

std::vector<std::byte> engine_bytes(const StreamingKeyBin2& e) {
  ByteWriter w;
  e.serialize(w);
  return {w.bytes().begin(), w.bytes().end()};
}

TEST(Streaming, PushRejectsNonFiniteValuesWithoutChangingState) {
  const auto d = data::sample(data::make_paper_mixture(4, 2, 3), 20, 4);
  for (const bool projected : {true, false}) {
    Params params;
    params.use_projection = projected;
    StreamingKeyBin2 s(4, params);
    s.push_batch(d.points);
    const auto before = engine_bytes(s);
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()}) {
      const double p[] = {1.0, bad, 2.0, 3.0};
      EXPECT_THROW(s.push(p), Error) << bad;
      EXPECT_EQ(engine_bytes(s), before) << bad;
    }
    EXPECT_EQ(s.points_seen(), 20u);
  }
}

TEST(Streaming, PushRejectsPointsThatProjectOutsideTheDoubleRange) {
  // One trial projecting onto one unit-norm column (a0, a1): the point
  // (max * sign(a0), max * sign(a1)) projects to max * (|a0| + |a1|), which
  // overflows to infinity.
  Params params;
  params.bootstrap_trials = 1;
  params.n_rp = 1;
  StreamingKeyBin2 s(2, params);
  s.push_batch(data::sample(data::make_paper_mixture(2, 2, 3), 50, 4).points);
  s.refit();
  const auto& a = s.model().projection();
  ASSERT_EQ(a.rows(), 2u);
  const double big = std::numeric_limits<double>::max();
  const double p[] = {std::copysign(big, a(0, 0)), std::copysign(big, a(1, 0))};
  const auto before = engine_bytes(s);
  EXPECT_THROW(s.push(p), Error);
  EXPECT_EQ(engine_bytes(s), before);
}

}  // namespace
}  // namespace keybin2::core
