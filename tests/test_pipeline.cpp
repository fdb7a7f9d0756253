// The staged pipeline: every stage exercised under SelfComm and under the
// thread-backed communicator (2 and 4 ranks), plus fixed-seed equivalence
// checks pinning the refactored drivers to the pre-refactor results.
#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <span>

#include "comm/launch.hpp"
#include "common/error.hpp"
#include "common/serialize.hpp"
#include "core/fused.hpp"
#include "core/keybin2.hpp"
#include "core/projection.hpp"
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

// Stages 1-2a as fit runs them, under the identity projection: fold the
// shard's envelope, then agree on the group's ranges.
std::vector<Range> agree_ranges(runtime::Context& ctx, const Matrix& points,
                                std::size_t dims, FusedWorkspace& ws) {
  (void)fused_project_envelope(points, Matrix(), dims, ws);
  return stage_agree_ranges(ctx, ws.env_lo, ws.env_hi);
}

std::vector<Range> agree_ranges(runtime::Context& ctx, const Matrix& points,
                                std::size_t dims) {
  FusedWorkspace ws;
  return agree_ranges(ctx, points, dims, ws);
}

// Stages 1-2b: ranges, the shard's key table (ws.keys) and its local
// histograms.
struct BinnedShard {
  FusedWorkspace ws;
  std::vector<Range> ranges;
  std::vector<stats::HierarchicalHistogram> hists;
};

BinnedShard bin_shard(runtime::Context& ctx, const Matrix& points,
                      std::size_t dims, int max_depth) {
  BinnedShard out;
  out.ranges = agree_ranges(ctx, points, dims, out.ws);
  out.hists = fused_key_bin(points, out.ranges, max_depth, out.ws);
  return out;
}

TEST(StageProject, IdentityWhenProjectionDisabled) {
  // Without a projection matrix the project stage hands the shard itself to
  // the key/bin pass and still folds its envelope.
  const auto points = test_points(50, 6, 11);
  FusedWorkspace ws;
  const auto& projected = fused_project_envelope(points, Matrix(), 6, ws);
  EXPECT_EQ(&projected, &points);
  EXPECT_EQ(projected.rows(), 50u);
  EXPECT_EQ(projected.cols(), 6u);
  ASSERT_EQ(ws.env_lo.size(), 6u);
  EXPECT_LE(ws.env_lo[0], points.row(0)[0]);
  EXPECT_GE(ws.env_hi[0], points.row(0)[0]);
}

TEST(StageProject, SameSeedSameMatrixAcrossRanks) {
  // Empty shards still build the group-agreed projection: the matrix depends
  // only on (input_dims, n_rp, seed), never on local data.
  std::vector<double> first_cell(4, 0.0);
  comm::run_ranks(4, [&](comm::Communicator& c) {
    const Matrix local(c.rank() == 0 ? 20u : 0u, 10u);
    const auto projection = make_projection_matrix(10, 4, /*seed=*/99);
    ASSERT_EQ(projection.rows(), 10u);
    FusedWorkspace ws;
    const auto& projected = fused_project_envelope(local, projection, 4, ws);
    EXPECT_EQ(projected.rows(), local.rows());
    EXPECT_EQ(projected.cols(), 4u);
    first_cell[static_cast<std::size_t>(c.rank())] = projection.row(0)[0];
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
      const auto ranges = agree_ranges(ctx, local, 2);
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
  const auto ranges = agree_ranges(ctx, points, 1);
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
      const auto ranges = agree_ranges(ctx, empty, 3);
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
  const auto reference = bin_shard(serial, points, 3, /*max_depth=*/8);

  for (int ranks : {2, 4}) {
    data::Dataset d;
    d.points = points;
    const auto shards = data::shard(d, ranks);
    comm::run_ranks(ranks, [&](comm::Communicator& c) {
      runtime::Context ctx(c, 1);
      const auto& local = shards[static_cast<std::size_t>(c.rank())].points;
      auto binned = bin_shard(ctx, local, 3, 8);
      for (std::size_t j = 0; j < 3; ++j) {
        ASSERT_EQ(binned.ranges[j].lo, reference.ranges[j].lo);
        ASSERT_EQ(binned.ranges[j].hi, reference.ranges[j].hi);
      }
      stage_merge_histograms(ctx, binned.hists, Params{},
                             /*integral_counts=*/true);
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
  Params tree;
  tree.comm_mode = CommMode::kDense;
  Params ring;
  ring.comm_mode = CommMode::kRing;
  comm::run_ranks(4, [&](comm::Communicator& c) {
    runtime::Context ctx(c, 1);
    const auto& local = shards[static_cast<std::size_t>(c.rank())].points;
    auto a = bin_shard(ctx, local, 2, 7).hists;
    auto b = a;
    stage_merge_histograms(ctx, a, tree, /*integral_counts=*/true);
    stage_merge_histograms(ctx, b, ring, /*integral_counts=*/true);
    tree_counts[static_cast<std::size_t>(c.rank())] = counts_of(a[0]);
    ring_counts[static_cast<std::size_t>(c.rank())] = counts_of(b[0]);
  });
  for (int r = 0; r < 4; ++r) {
    ASSERT_EQ(tree_counts[static_cast<std::size_t>(r)].size(), 128u);
    EXPECT_EQ(tree_counts[static_cast<std::size_t>(r)],
              ring_counts[static_cast<std::size_t>(r)]);
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
    auto binned = bin_shard(ctx, points, 2, params.max_depth);
    stage_merge_histograms(ctx, binned.hists, params, /*integral_counts=*/true);
    const auto kept = collapse_dimensions(ctx, binned.hists, params);
    ASSERT_FALSE(kept.empty());
    auto candidates = stage_partition(
        ctx, binned.hists, kept, {std::vector<int>(kept.size(), 6)}, params);
    ASSERT_EQ(candidates.size(), 1u);
    const auto assessed =
        stage_assess(ctx, binned.ws.keys, kept, candidates[0], params);
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
      auto binned = bin_shard(ctx, local, 2, params.max_depth);
      stage_merge_histograms(ctx, binned.hists, params,
                             /*integral_counts=*/true);
      const auto kept = collapse_dimensions(ctx, binned.hists, params);
      auto candidates = stage_partition(
          ctx, binned.hists, kept, {std::vector<int>(kept.size(), 6)}, params);
      const auto assessed =
          stage_assess(ctx, binned.ws.keys, kept, candidates[0], params);
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
  const auto binned = bin_shard(ctx, points, 2, 6);
  EXPECT_THROW(
      stage_partition(ctx, binned.hists, {0, 1}, {{4, 4}, {4}}, Params{}),
      Error);
  EXPECT_THROW(stage_partition(ctx, binned.hists, {0, 1}, {{0, 4}}, Params{}),
               Error);
  // A depth outside the hierarchy throws on every rank, not only on the
  // candidate's owner and the root: none is left in the cut exchange.
  comm::run_ranks(3, [&](comm::Communicator& c) {
    c.set_timeout(10.0);
    runtime::Context rctx(c, 1);
    try {
      (void)stage_partition(rctx, binned.hists, {0, 1}, {{4, 7}}, Params{});
      ADD_FAILURE() << "rank " << c.rank() << " did not throw";
    } catch (const comm::CommError& e) {
      ADD_FAILURE() << "rank " << c.rank() << ": " << e.what();
    } catch (const Error&) {
    }
  });
}

// ---- The partition stage's cut exchange: a round trip, and a typed error
// for each field the decoder checks. Three candidates at depths 4, 5 and 6
// over two kept dimensions; in a 2-rank group rank 1 owns candidates 0
// and 2. ----

std::vector<PartitionedCandidate> owned_candidates() {
  std::vector<PartitionedCandidate> out;
  for (const int depth : {4, 5, 6}) {
    const std::size_t bins = std::size_t{1} << depth;
    PartitionedCandidate c;
    c.depths = {depth, depth};
    c.partitions = {DimensionPartition{{bins / 4, bins / 2}, bins},
                    DimensionPartition{{}, bins}};
    out.push_back(std::move(c));
  }
  return out;
}

std::vector<std::byte> encode_owned(
    const std::vector<PartitionedCandidate>& candidates, int rank,
    int ranks) {
  ByteWriter w;
  write_owned_cuts(w, candidates, rank, ranks);
  return w.take();
}

std::vector<PartitionedCandidate> decode_owned(
    std::span<const std::byte> bytes, int sender, int ranks) {
  auto out = owned_candidates();
  for (auto& c : out) c.partitions.clear();
  ByteReader reader(bytes);
  read_owned_cuts(reader, out, sender, ranks);
  return out;
}

TEST(CutExchange, OwnedCutsRoundTrip) {
  const auto sent = owned_candidates();
  for (const int ranks : {1, 2, 3, 4}) {
    for (int sender = 0; sender < ranks; ++sender) {
      const auto got =
          decode_owned(encode_owned(sent, sender, ranks), sender, ranks);
      for (std::size_t k = 0; k < sent.size(); ++k) {
        if (candidate_owner(k, ranks) != sender) {
          EXPECT_TRUE(got[k].partitions.empty());
          continue;
        }
        ASSERT_EQ(got[k].partitions.size(), 2u);
        for (std::size_t i = 0; i < 2; ++i) {
          EXPECT_EQ(got[k].partitions[i].bins, sent[k].partitions[i].bins);
          EXPECT_EQ(got[k].partitions[i].cuts, sent[k].partitions[i].cuts);
        }
      }
    }
  }
}

TEST(CutExchange, EachCorruptFieldThrowsATypedError) {
  const auto decode = [](std::span<const std::byte> bytes) {
    (void)decode_owned(bytes, /*sender=*/1, /*ranks=*/2);
  };
  const auto encode = [](const std::vector<PartitionedCandidate>& c) {
    return encode_owned(c, /*rank=*/1, /*ranks=*/2);
  };
  const auto good = encode(owned_candidates());
  EXPECT_NO_THROW(decode(good));

  // The candidate index: one rank 1 does not own, and out of range.
  for (const std::uint64_t index : {std::uint64_t{1}, std::uint64_t{3},
                                    std::uint64_t{1} << 40}) {
    auto bytes = good;
    std::memcpy(bytes.data(), &index, sizeof index);
    EXPECT_THROW(decode(bytes), Error) << "index " << index;
  }
  // One partition per kept dimension.
  {
    auto c = owned_candidates();
    c[2].partitions.pop_back();
    EXPECT_THROW(decode(encode(c)), Error);
    c = owned_candidates();
    c[0].partitions.push_back(c[0].partitions[0]);
    EXPECT_THROW(decode(encode(c)), Error);
  }
  // bins == 2^depth.
  for (const std::size_t bins : {std::size_t{8}, std::size_t{32}}) {
    auto c = owned_candidates();  // candidate 0 is at depth 4: 16 bins
    c[0].partitions[1].bins = bins;
    EXPECT_THROW(decode(encode(c)), Error) << bins << " bins";
  }
  // Cuts strictly ascending inside (0, bins).
  for (const std::vector<std::size_t>& cuts :
       {std::vector<std::size_t>{8, 4}, {4, 4}, {0, 4}, {4, 16}, {4, 99}}) {
    auto c = owned_candidates();
    c[0].partitions[0].cuts = cuts;
    EXPECT_THROW(decode(encode(c)), Error)
        << "cuts " << cuts[0] << ", " << cuts[1];
  }
  // Length prefixes that run past the blob, a cut short, a byte over.
  {
    auto bytes = good;
    const std::uint64_t huge = std::uint64_t{1} << 40;
    std::memcpy(bytes.data() + 8, &huge, sizeof huge);  // partition count
    EXPECT_THROW(decode(bytes), Error);
    bytes = good;
    std::memcpy(bytes.data() + 24, &huge, sizeof huge);  // cut count
    EXPECT_THROW(decode(bytes), Error);
    bytes = good;
    bytes.pop_back();
    EXPECT_THROW(decode(bytes), Error);
    bytes = good;
    bytes.push_back(std::byte{0});
    EXPECT_THROW(decode(bytes), Error);
  }
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

// ---- Fused vs staged: each StagedFit below was captured from the staged
// data plane (project, a range scan, compute_keys and build_histograms as
// separate passes) before it was deleted. The fused plane, now the fit's
// only one, must reproduce it bit for bit. ----

struct StagedFit {
  std::uint64_t label_hash;
  double score;
  int clusters;
};

void expect_staged_fit(const std::vector<int>& labels, const Model& model,
                       const StagedFit& staged) {
  EXPECT_EQ(label_hash(labels), staged.label_hash);
  EXPECT_EQ(model.score(), staged.score);  // bitwise
  EXPECT_EQ(model.n_clusters(), staged.clusters);
}

struct FitCase {
  std::uint64_t seed;
  int max_depth;
};

class FusedVsStaged : public ::testing::TestWithParam<FitCase> {};

TEST_P(FusedVsStaged, SerialFitIsBitIdentical) {
  const auto [seed, max_depth] = GetParam();
  const StagedFit staged[] = {  // mixture seeds 101..105
      {12794986711662603444ULL, 3143.4295220399363, 8},
      {15649332374941713651ULL, 3766.9362903973297, 6},
      {7903426717477052480ULL, 59.240478042406899, 6},
      {12016812815765494933ULL, 27134.438822795506, 10},
      {8542401853542032984ULL, 22.880949918171282, 10},
  };
  const auto spec = data::make_paper_mixture(25, 4, seed);
  const auto d = data::sample(spec, 3000, seed + 1);
  Params params;
  params.max_depth = max_depth;
  const auto result = fit(d.points, params);
  expect_staged_fit(result.labels, result.model, staged[seed - 101]);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, FusedVsStaged,
    ::testing::Values(FitCase{101, 7}, FitCase{102, 7}, FitCase{103, 4},
                      FitCase{104, 10}, FitCase{105, 3}));

class FusedVsStagedRanks : public ::testing::TestWithParam<int> {};

TEST_P(FusedVsStagedRanks, DistributedFitIsBitIdenticalAcrossPaths) {
  // The staged plane gave this fit at 1, 2 and 8 ranks alike.
  const StagedFit staged{10895059395690885943ULL, 2413.6066772609634, 7};
  const int ranks = GetParam();
  const auto spec = data::make_paper_mixture(30, 4, 201);
  const auto d = data::sample(spec, 2400, 202);
  const auto shards = data::shard(d, ranks);
  const auto rows = data::partition_rows(d.size(), ranks);
  std::vector<int> combined(d.size());
  std::optional<Model> root_model;
  comm::run_ranks(ranks, [&](comm::Communicator& c) {
    const auto r = static_cast<std::size_t>(c.rank());
    auto result = fit(c, shards[r].points, Params{});
    std::copy(result.labels.begin(), result.labels.end(),
              combined.begin() + static_cast<std::ptrdiff_t>(rows[r].begin));
    if (c.rank() == 0) root_model = std::move(result.model);
  });
  ASSERT_TRUE(root_model.has_value());
  expect_staged_fit(combined, *root_model, staged);
}

INSTANTIATE_TEST_SUITE_P(Ranks, FusedVsStagedRanks,
                         ::testing::Values(1, 2, 8));

TEST(FusedVsStaged, PerDimensionDepthModeIsBitIdentical) {
  const auto spec = data::make_paper_mixture(20, 4, 301);
  const auto d = data::sample(spec, 2000, 302);
  Params params;
  params.per_dimension_depth = true;
  const auto result = fit(d.points, params);
  expect_staged_fit(result.labels, result.model,
                    {11336428265492943376ULL, 3349.0498566269025, 8});
}

TEST(FusedVsStaged, IdentityProjectionAblationIsBitIdentical) {
  const auto spec = data::make_paper_mixture(15, 3, 401);
  const auto d = data::sample(spec, 1500, 402);
  Params params;
  params.use_projection = false;
  const auto result = fit(d.points, params);
  expect_staged_fit(result.labels, result.model,
                    {17357368002516051458ULL, 21433.801726658436, 3});
}

// ---- Streaming refit: the only caller whose cells carry fractional masses
// (stream mass over reservoir rows), so this row pins the order in which
// count_cells adds them, end to end, on both backends. Captured before the
// cell-id kernel replaced the per-point id loop. ----

class StreamingRefitPinned : public ::testing::TestWithParam<comm::Backend> {};

TEST_P(StreamingRefitPinned, TwoRankRefitMatchesPinnedRow) {
  const StagedFit pinned{11309482603750732913ULL, 4902.9339944787562, 3};
  const auto spec = data::make_paper_mixture(12, 3, 601);
  const auto d = data::sample(spec, 5000, 602);
  const auto shards = data::shard(d, 2);
  comm::LaunchOptions options;
  options.backend = GetParam();
  const auto blobs = comm::run_ranks_collect_bytes(
      options, 2, [&](comm::Communicator& c) {
        const auto r = static_cast<std::size_t>(c.rank());
        const Matrix& points = shards[r].points;
        // 2,500 points over 768 reservoir rows: an inexact weight.
        StreamingKeyBin2 s(points.cols(), Params{},
                           /*reservoir_capacity=*/768);
        s.push_batch(points);
        const Model& model = s.refit(c);
        ByteWriter w;
        w.write(model.score());
        w.write<std::int32_t>(model.n_clusters());
        w.write_vec(model.predict(points));
        return w.take();
      });
  std::vector<int> combined;
  for (int r = 0; r < 2; ++r) {
    ByteReader reader(blobs[static_cast<std::size_t>(r)]);
    const auto score = reader.read<double>();
    const auto clusters = reader.read<std::int32_t>();
    const auto labels = reader.read_vec<int>();
    EXPECT_EQ(score, pinned.score) << "rank " << r;  // bitwise
    EXPECT_EQ(clusters, pinned.clusters) << "rank " << r;
    combined.insert(combined.end(), labels.begin(), labels.end());
  }
  EXPECT_EQ(combined.size(), d.size());
  EXPECT_EQ(label_hash(combined), pinned.label_hash);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, StreamingRefitPinned,
    ::testing::Values(comm::Backend::kThread, comm::Backend::kProcess),
    [](const auto& info) {
      return std::string(comm::backend_name(info.param));
    });

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
