// The staged pipeline: every stage exercised under SelfComm and under the
// thread-backed communicator (2 and 4 ranks), plus fixed-seed equivalence
// checks pinning the refactored drivers to the pre-refactor results.
#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "comm/launch.hpp"
#include "common/error.hpp"
#include "core/keybin2.hpp"
#include "core/streaming.hpp"
#include "data/gaussian_mixture.hpp"
#include "data/partition.hpp"

namespace keybin2::core {
namespace {

// Order-insensitive-free fingerprint of a label vector (FNV-1a over the
// little-endian bytes): lets equivalence tests pin exact clusterings without
// embedding thousands of labels.
std::vector<double> counts_of(const stats::HierarchicalHistogram& h) {
  const auto span = h.deepest_counts();
  return {span.begin(), span.end()};
}

std::uint64_t label_hash(const std::vector<int>& labels) {
  std::uint64_t h = 1469598103934665603ULL;
  for (int x : labels) {
    for (int b = 0; b < 4; ++b) {
      h ^= static_cast<std::uint64_t>((x >> (8 * b)) & 0xff);
      h *= 1099511628211ULL;
    }
  }
  return h;
}

Matrix test_points(std::size_t rows, std::size_t dims, std::uint64_t seed) {
  const auto spec = data::make_paper_mixture(dims, 3, seed);
  return data::sample(spec, rows, seed + 1).points;
}

TEST(StageProject, IdentityWhenProjectionDisabled) {
  runtime::Context ctx(1);
  const auto points = test_points(50, 6, 11);
  const auto trial = stage_project(ctx, points, 6, 6,
                                   /*use_projection=*/false, /*seed=*/1);
  EXPECT_EQ(trial.projection.rows(), 0u);
  EXPECT_EQ(trial.projected.rows(), 50u);
  EXPECT_EQ(trial.projected.cols(), 6u);
  EXPECT_EQ(trial.projected.row(0)[0], points.row(0)[0]);
}

TEST(StageProject, SameSeedSameMatrixAcrossRanks) {
  // Empty shards still build the group-agreed projection: the matrix depends
  // only on (input_dims, n_rp, seed), never on local data.
  std::vector<double> first_cell(4, 0.0);
  comm::run_ranks(4, [&](comm::Communicator& c) {
    runtime::Context ctx(c, 1);
    const Matrix local(c.rank() == 0 ? 20u : 0u, 10u);
    const auto trial = stage_project(ctx, local, 10, 4,
                                     /*use_projection=*/true, /*seed=*/99);
    ASSERT_EQ(trial.projection.rows(), 10u);
    first_cell[static_cast<std::size_t>(c.rank())] = trial.projection.row(0)[0];
  });
  for (int r = 1; r < 4; ++r) EXPECT_EQ(first_cell[0], first_cell[r]);
}

TEST(StageAgreeRanges, GlobalEnvelopeAcrossRanks) {
  for (int ranks : {2, 4}) {
    comm::run_ranks(ranks, [&](comm::Communicator& c) {
      runtime::Context ctx(c, 1);
      // Rank r contributes the single value r in dim 0, -r in dim 1.
      Matrix local(1, 2);
      local.row(0)[0] = static_cast<double>(c.rank());
      local.row(0)[1] = -static_cast<double>(c.rank());
      const auto ranges = stage_agree_ranges(ctx, local, 2);
      ASSERT_EQ(ranges.size(), 2u);
      EXPECT_EQ(ranges[0].lo, 0.0);
      EXPECT_EQ(ranges[0].hi, static_cast<double>(ranks - 1));
      EXPECT_EQ(ranges[1].lo, -static_cast<double>(ranks - 1));
      EXPECT_EQ(ranges[1].hi, 0.0);
    });
  }
}

TEST(StageAgreeRanges, DegenerateDimensionWidensToUnit) {
  runtime::Context ctx(1);
  Matrix points(3, 1);
  for (std::size_t i = 0; i < 3; ++i) points.row(i)[0] = 5.0;
  const auto ranges = stage_agree_ranges(ctx, points, 1);
  EXPECT_EQ(ranges[0].lo, 5.0);
  EXPECT_EQ(ranges[0].hi, 6.0);
}

TEST(StageAgreeRanges, AllEmptyShardsClampToValidRange) {
  // Regression: when no rank observed a dimension, the +-inf sentinels used
  // to survive the allreduce and poison downstream binning. The stage now
  // clamps such dimensions to a valid degenerate range.
  for (int ranks : {1, 2, 4}) {
    comm::run_ranks(ranks, [&](comm::Communicator& c) {
      runtime::Context ctx(c, 1);
      const Matrix empty(0, 3);
      const auto ranges = stage_agree_ranges(ctx, empty, 3);
      ASSERT_EQ(ranges.size(), 3u);
      for (const auto& r : ranges) {
        EXPECT_TRUE(std::isfinite(r.lo));
        EXPECT_TRUE(std::isfinite(r.hi));
        EXPECT_LT(r.lo, r.hi);
      }
    });
  }
}

TEST(StageAgreeRanges, MixedEmptyAndObservedDimensions) {
  runtime::Context ctx(1);
  const std::vector<double> lo{2.0, std::numeric_limits<double>::infinity()};
  const std::vector<double> hi{4.0, -std::numeric_limits<double>::infinity()};
  const auto ranges = stage_agree_ranges(ctx, lo, hi);
  EXPECT_EQ(ranges[0].lo, 2.0);
  EXPECT_EQ(ranges[0].hi, 4.0);
  EXPECT_EQ(ranges[1].lo, 0.0);
  EXPECT_EQ(ranges[1].hi, 1.0);
}

TEST(StageMergeHistograms, DistributedEqualsSerialConcatenation) {
  const auto points = test_points(400, 3, 21);
  // Serial reference: bin the full dataset on one rank.
  runtime::Context serial(1);
  const auto ranges = stage_agree_ranges(serial, points, 3);
  auto reference = stage_bin(serial, points, ranges, /*max_depth=*/8);

  for (int ranks : {2, 4}) {
    data::Dataset d;
    d.points = points;
    const auto shards = data::shard(d, ranks);
    comm::run_ranks(ranks, [&](comm::Communicator& c) {
      runtime::Context ctx(c, 1);
      const auto& local = shards[static_cast<std::size_t>(c.rank())].points;
      const auto local_ranges = stage_agree_ranges(ctx, local, 3);
      for (std::size_t j = 0; j < 3; ++j) {
        ASSERT_EQ(local_ranges[j].lo, ranges[j].lo);
        ASSERT_EQ(local_ranges[j].hi, ranges[j].hi);
      }
      auto binned = stage_bin(ctx, local, local_ranges, 8);
      stage_merge_histograms(ctx, binned.hists, Topology::kTree);
      for (std::size_t j = 0; j < 3; ++j) {
        EXPECT_EQ(counts_of(binned.hists[j]), counts_of(reference.hists[j]))
            << "dim " << j << " with " << ranks << " ranks";
      }
    });
  }
}

TEST(StageMergeHistograms, RingMatchesTree) {
  const auto points = test_points(300, 2, 31);
  data::Dataset d;
  d.points = points;
  const auto shards = data::shard(d, 4);
  std::vector<std::vector<double>> tree_counts(4), ring_counts(4);
  comm::run_ranks(4, [&](comm::Communicator& c) {
    runtime::Context ctx(c, 1);
    const auto& local = shards[static_cast<std::size_t>(c.rank())].points;
    const auto ranges = stage_agree_ranges(ctx, local, 2);
    auto a = stage_bin(ctx, local, ranges, 7);
    auto b = a;
    stage_merge_histograms(ctx, a.hists, Topology::kTree);
    stage_merge_histograms(ctx, b.hists, Topology::kRing);
    tree_counts[static_cast<std::size_t>(c.rank())] = counts_of(a.hists[0]);
    ring_counts[static_cast<std::size_t>(c.rank())] = counts_of(b.hists[0]);
  });
  for (int r = 0; r < 4; ++r) {
    ASSERT_EQ(tree_counts[static_cast<std::size_t>(r)].size(), 128u);
    for (std::size_t i = 0; i < 128; ++i) {
      EXPECT_NEAR(tree_counts[static_cast<std::size_t>(r)][i],
                  ring_counts[static_cast<std::size_t>(r)][i], 1e-9);
    }
  }
}

TEST(StagePartitionAssess, DistributedScoreEqualsSerial) {
  const auto points = test_points(500, 2, 41);
  Params params;
  params.max_depth = 8;

  // Serial reference score through the same stages.
  double serial_score = 0.0;
  std::size_t serial_cells = 0;
  {
    runtime::Context ctx(1);
    const auto ranges = stage_agree_ranges(ctx, points, 2);
    auto binned = stage_bin(ctx, points, ranges, params.max_depth);
    stage_merge_histograms(ctx, binned.hists, params.topology);
    const auto kept = collapse_dimensions(ctx, binned.hists, params);
    ASSERT_FALSE(kept.empty());
    auto candidate = stage_partition(ctx, binned.hists, kept,
                                     std::vector<int>(kept.size(), 6), params);
    const auto assessed = stage_assess(ctx, binned.keys, kept, candidate);
    ASSERT_TRUE(assessed.scored);
    serial_score = assessed.score;
    serial_cells = assessed.cells.size();
  }

  for (int ranks : {2, 4}) {
    data::Dataset d;
    d.points = points;
    const auto shards = data::shard(d, ranks);
    comm::run_ranks(ranks, [&](comm::Communicator& c) {
      runtime::Context ctx(c, 1);
      const auto& local = shards[static_cast<std::size_t>(c.rank())].points;
      const auto ranges = stage_agree_ranges(ctx, local, 2);
      auto binned = stage_bin(ctx, local, ranges, params.max_depth);
      stage_merge_histograms(ctx, binned.hists, params.topology);
      const auto kept = collapse_dimensions(ctx, binned.hists, params);
      auto candidate = stage_partition(
          ctx, binned.hists, kept, std::vector<int>(kept.size(), 6), params);
      const auto assessed = stage_assess(ctx, binned.keys, kept, candidate);
      EXPECT_EQ(assessed.scored, c.rank() == 0);
      if (c.rank() == 0) {
        EXPECT_NEAR(assessed.score, serial_score, 1e-9 * serial_score);
        EXPECT_EQ(assessed.cells.size(), serial_cells);
      }
    });
  }
}

TEST(StagePartition, RejectsMismatchedDepths) {
  runtime::Context ctx(1);
  const auto points = test_points(100, 2, 51);
  const auto ranges = stage_agree_ranges(ctx, points, 2);
  auto binned = stage_bin(ctx, points, ranges, 6);
  EXPECT_THROW(
      stage_partition(ctx, binned.hists, {0, 1}, {4}, Params{}),
      Error);
}

TEST(StageShareModel, RootModelReachesEveryRank) {
  const auto points = test_points(200, 2, 61);
  for (int ranks : {2, 4}) {
    comm::run_ranks(ranks, [&](comm::Communicator& c) {
      runtime::Context ctx(c, 1);
      std::optional<Model> root_model;
      if (ctx.is_root()) {
        Params params;
        root_model = fit(points, params).model;
      }
      const double expected_score =
          root_model ? root_model->score() : 0.0;
      Model shared = stage_share_model(ctx, std::move(root_model));
      if (ctx.is_root()) {
        EXPECT_DOUBLE_EQ(shared.score(), expected_score);
      }
      // Every rank agrees on the broadcast model.
      const auto scores =
          ctx.comm().allreduce(std::vector<double>{shared.score()},
                               comm::ReduceOp::kMax);
      EXPECT_DOUBLE_EQ(scores[0], shared.score());
    });
  }
}

TEST(StageShareModel, RootWithoutModelThrows) {
  runtime::Context ctx(1);
  EXPECT_THROW(stage_share_model(ctx, std::nullopt), Error);
}

// ---- Fixed-seed equivalence: the refactored drivers must reproduce the
// pre-refactor (seed) results bit-for-bit. The constants below were captured
// from the monolithic fit()/refit() implementations on identical inputs.

TEST(Equivalence, BatchFitDefaultParams) {
  const auto spec = data::make_paper_mixture(20, 4, 101);
  const auto d = data::sample(spec, 3000, 102);
  const auto result = fit(d.points);
  EXPECT_EQ(label_hash(result.labels), 11583523914625840657ULL);
  EXPECT_DOUBLE_EQ(result.model.score(), 2031.6122973436436);
  EXPECT_EQ(result.n_clusters(), 7);
  EXPECT_EQ(result.trials.size(), 40u);
  EXPECT_EQ(result.model.depths(), (std::vector<int>{7, 7, 7, 7}));
  EXPECT_EQ(result.model.kept_dims(), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(result.model.cells().size(), 8u);
}

TEST(Equivalence, BatchFitPerDimensionDepth) {
  const auto spec = data::make_paper_mixture(20, 4, 101);
  const auto d = data::sample(spec, 3000, 102);
  Params params;
  params.per_dimension_depth = true;
  params.seed = 7;
  const auto result = fit(d.points, params);
  EXPECT_EQ(label_hash(result.labels), 14427973546440280959ULL);
  EXPECT_DOUBLE_EQ(result.model.score(), 1600.5352440460433);
  EXPECT_EQ(result.n_clusters(), 11);
}

TEST(Equivalence, StreamingRefit) {
  const auto spec = data::make_paper_mixture(12, 3, 201);
  const auto d = data::sample(spec, 2500, 202);
  StreamingKeyBin2 engine(12);
  engine.push_batch(d.points);
  engine.refit();
  const auto labels = engine.model().predict(d.points);
  EXPECT_EQ(label_hash(labels), 14068627742687595267ULL);
  EXPECT_DOUBLE_EQ(engine.model().score(), 4552.549041405231);
  EXPECT_EQ(engine.model().n_clusters(), 3);

  // A reservoir the stream overflows almost ten times over: the cell
  // densities come from algorithm R's replacement draws, not the first 256
  // points.
  StreamingKeyBin2 small(12, Params{}, /*reservoir_capacity=*/256);
  small.push_batch(d.points);
  small.refit();
  const auto small_labels = small.model().predict(d.points);
  EXPECT_EQ(label_hash(small_labels), 16980327592859048755ULL);
  EXPECT_DOUBLE_EQ(small.model().score(), 5710.8145348127646);
  EXPECT_EQ(small.model().n_clusters(), 4);
}

TEST(Equivalence, ContextFitMatchesConvenienceOverloads) {
  const auto spec = data::make_paper_mixture(10, 3, 301);
  const auto d = data::sample(spec, 1500, 302);
  Params params;
  const auto via_serial = fit(d.points, params);
  runtime::Context ctx(params.seed);
  const auto via_ctx = fit(ctx, d.points, params);
  EXPECT_EQ(via_serial.labels, via_ctx.labels);
  EXPECT_DOUBLE_EQ(via_serial.model.score(), via_ctx.model.score());
}

TEST(Equivalence, DistributedFitMatchesSerial) {
  const auto spec = data::make_paper_mixture(16, 3, 401);
  const auto d = data::sample(spec, 2000, 402);
  const auto serial = fit(d.points);
  for (int ranks : {2, 4}) {
    const auto shards = data::shard(d, ranks);
    std::vector<int> combined(d.size());
    const auto ranges = data::partition_rows(d.size(), ranks);
    comm::run_ranks(ranks, [&](comm::Communicator& c) {
      runtime::Context ctx(c, 42);
      const auto r = static_cast<std::size_t>(c.rank());
      const auto result = fit(ctx, shards[r].points, Params{});
      std::copy(result.labels.begin(), result.labels.end(),
                combined.begin() + static_cast<std::ptrdiff_t>(ranges[r].begin));
      if (ctx.is_root()) {
        EXPECT_DOUBLE_EQ(result.model.score(), serial.model.score());
      }
    });
    EXPECT_EQ(combined, serial.labels) << ranks << " ranks";
  }
}

TEST(Trace, FitScopesFollowNamingConvention) {
  const auto spec = data::make_paper_mixture(8, 2, 501);
  const auto d = data::sample(spec, 600, 502);
  runtime::Context ctx(42);
  Params params;
  params.bootstrap_trials = 2;
  (void)fit(ctx, d.points, params);
  const auto& entries = ctx.tracer().entries();
  EXPECT_EQ(entries.count("fit"), 1u);
  EXPECT_EQ(entries.count("fit/label"), 1u);
  EXPECT_EQ(entries.count("fit/share_model"), 1u);
  EXPECT_EQ(entries.count("fit/trial0/project"), 1u);
  EXPECT_EQ(entries.count("fit/trial0/agree_ranges"), 1u);
  EXPECT_EQ(entries.count("fit/trial0/bin"), 1u);
  EXPECT_EQ(entries.count("fit/trial0/merge_histograms"), 1u);
  EXPECT_EQ(entries.count("fit/trial1/project"), 1u);
}

TEST(Trace, ScopedTrafficSumMatchesCommunicatorTotals) {
  const auto spec = data::make_paper_mixture(8, 2, 601);
  const auto d = data::sample(spec, 800, 602);
  const auto shards = data::shard(d, 4);
  comm::run_ranks(4, [&](comm::Communicator& c) {
    runtime::Context ctx(c, 42);
    (void)fit(ctx, shards[static_cast<std::size_t>(c.rank())].points,
              Params{});
    const auto traced = ctx.tracer().total_traffic();
    const auto stats = c.stats();
    EXPECT_EQ(traced.messages_sent, stats.messages_sent);
    EXPECT_EQ(traced.bytes_sent, stats.bytes_sent);
    EXPECT_EQ(traced.messages_received, stats.messages_received);
    EXPECT_EQ(traced.bytes_received, stats.bytes_received);
  });
}

}  // namespace
}  // namespace keybin2::core
