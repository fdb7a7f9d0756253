#include "core/keybin2.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "comm/launch.hpp"
#include "common/error.hpp"
#include "common/serialize.hpp"
#include "data/gaussian_mixture.hpp"
#include "data/partition.hpp"
#include "data/shapes.hpp"
#include "stats/metrics.hpp"

namespace keybin2::core {
namespace {

TEST(Fit, RecoversWellSeparatedMixture) {
  const auto spec = data::make_paper_mixture(20, 4, 1);
  const auto d = data::sample(spec, 8000, 2);
  const auto result = fit(d.points);
  const auto scores = stats::pairwise_scores(result.labels, d.labels);
  EXPECT_GE(result.n_clusters(), 4);
  EXPECT_GT(scores.f1, 0.8);
  EXPECT_GT(scores.precision, 0.9);
}

TEST(Fit, IsDeterministic) {
  const auto spec = data::make_paper_mixture(10, 3, 3);
  const auto d = data::sample(spec, 2000, 4);
  const auto a = fit(d.points);
  const auto b = fit(d.points);
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_DOUBLE_EQ(a.model.score(), b.model.score());
}

TEST(Fit, NeverToldK) {
  // KeyBin2 typically finds MORE clusters than truth (small outlier cells),
  // exactly as Tables 1-2 report — and must never find fewer real ones.
  const auto spec = data::make_paper_mixture(40, 4, 5);
  const auto d = data::sample(spec, 6000, 6);
  const auto result = fit(d.points);
  EXPECT_GE(result.n_clusters(), 4);
  EXPECT_LE(result.n_clusters(), 40);
}

TEST(Fit, SingleClusterDataYieldsOneCluster) {
  const auto spec = data::make_paper_mixture(10, 1, 7);
  const auto d = data::sample(spec, 2000, 8);
  const auto result = fit(d.points);
  EXPECT_LE(result.n_clusters(), 2);
  // Essentially everyone shares a label.
  std::size_t majority = 0;
  for (int l : result.labels) majority += l == result.labels[0];
  EXPECT_GT(static_cast<double>(majority) / 2000.0, 0.95);
}

TEST(Fit, HighDimensionalData) {
  const auto spec = data::make_paper_mixture(320, 4, 9);
  const auto d = data::sample(spec, 3000, 10);
  const auto result = fit(d.points);
  const auto scores = stats::pairwise_scores(result.labels, d.labels);
  EXPECT_GT(scores.f1, 0.7);
  // n_rp = 1.5 ln 320 = 9 projected dims.
  EXPECT_EQ(result.model.projection().cols(), 9u);
}

TEST(Fit, RedundantDimensionsGetCollapsed) {
  // 2 informative + 38 noise dims: after projection, informative structure
  // survives in few dims and the model still separates the mixture.
  const auto spec = data::make_redundant_mixture(40, 2, 3, 11, 20.0);
  const auto d = data::sample(spec, 4000, 12);
  const auto result = fit(d.points);
  EXPECT_LT(result.model.kept_dims().size(),
            result.model.projection().cols());
  const auto scores = stats::pairwise_scores(result.labels, d.labels);
  EXPECT_GT(scores.f1, 0.6);
}

TEST(Fit, CorrelatedPairNeedsProjection) {
  // Figure 1's scenario: axis-aligned binning (KeyBin v1, identity
  // projection) cannot separate correlated clusters; random projection can.
  const auto d = data::correlated_pair(2500, 4.0, 13);

  Params with_projection;
  with_projection.bootstrap_trials = 12;
  with_projection.n_rp = 2;
  const auto rp = fit(d.points, with_projection);
  const auto rp_scores = stats::pairwise_scores(rp.labels, d.labels);

  Params without;
  without.use_projection = false;
  const auto axis = fit(d.points, without);
  const auto axis_scores = stats::pairwise_scores(axis.labels, d.labels);

  EXPECT_GT(rp_scores.f1, axis_scores.f1);
  EXPECT_GT(rp_scores.f1, 0.85);
}

TEST(Fit, DiagnosticsCoverTrialsAndDepths) {
  const auto spec = data::make_paper_mixture(10, 2, 15);
  const auto d = data::sample(spec, 1000, 16);
  Params params;
  params.bootstrap_trials = 3;
  params.min_depth = 4;
  params.max_depth = 6;
  const auto result = fit(d.points, params);
  EXPECT_EQ(result.trials.size(), 3u * 3u);
  // The adopted model's score equals the best diagnostic score.
  double best = -1.0;
  for (const auto& t : result.trials) best = std::max(best, t.score);
  EXPECT_DOUBLE_EQ(result.model.score(), best);
  EXPECT_GE(result.model.depth(), 4);
  EXPECT_LE(result.model.depth(), 6);
}

TEST(Fit, InvalidParamsThrow) {
  Matrix points(10, 2);
  Params bad;
  bad.min_depth = 5;
  bad.max_depth = 3;
  EXPECT_THROW(fit(points, bad), Error);
  Params no_trials;
  no_trials.bootstrap_trials = 0;
  EXPECT_THROW(fit(points, no_trials), Error);
  EXPECT_THROW(fit(Matrix(0, 3)), Error);  // no points at all
}

TEST(Fit, NonFiniteInputThrows) {
  const auto d = data::sample(data::make_paper_mixture(4, 2, 5), 100, 6);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    auto points = d.points;
    points(37, 2) = bad;
    EXPECT_THROW(fit(points), Error) << bad;
  }
}

TEST(Fit, NonFiniteValueOnOneRankThrowsOnEveryRank) {
  // Only rank 2 holds the NaN. Every rank must throw the same error from
  // the entry reduction; a rank that went on would block in the next
  // collective until the timeout.
  const auto d = data::sample(data::make_paper_mixture(4, 2, 5), 100, 6);
  auto shards = data::shard(d, 4);
  shards[2].points(3, 1) = std::numeric_limits<double>::quiet_NaN();
  Params params;
  params.comm_timeout_seconds = 10.0;
  std::vector<std::string> errors(4);
  comm::run_ranks(4, [&](comm::Communicator& c) {
    const auto r = static_cast<std::size_t>(c.rank());
    try {
      (void)fit(c, shards[r].points, params);
    } catch (const Error& e) {
      errors[r] = e.what();
    }
  });
  EXPECT_NE(errors[0].find("1 NaN or infinite values"), std::string::npos)
      << errors[0];
  for (int r = 1; r < 4; ++r) EXPECT_EQ(errors[r], errors[0]) << "rank " << r;
}

TEST(Fit, PredictOfANaNPointThrows) {
  const auto d = data::sample(data::make_paper_mixture(4, 2, 5), 400, 6);
  const auto result = fit(d.points);
  ASSERT_FALSE(result.model.kept_dims().empty());
  std::vector<double> p(4, 0.0);
  p[1] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)result.model.predict(p), Error);
}


TEST(Fit, KdeSmoothingIsAViableAlternative) {
  // §3.2: the moving-average smoothing "reaches similar accuracy compared
  // to KDE curves" — swap the smoother and the pipeline still clusters.
  const auto spec = data::make_paper_mixture(20, 4, 43);
  const auto d = data::sample(spec, 4000, 44);
  Params kde;
  kde.smoothing = Smoothing::kKernelDensity;
  const auto result = fit(d.points, kde);
  EXPECT_GT(stats::pairwise_scores(result.labels, d.labels).f1, 0.75);
}


TEST(Fit, PerDimensionDepthIsAViableExtension) {
  // The extension lets each kept dimension pick its own key depth (the
  // paper keeps "at most d_max binning histograms" per dimension; nothing
  // forces all dimensions to agree). Quality must match the global sweep on
  // a standard mixture, and the model must round-trip.
  const auto spec = data::make_paper_mixture(40, 4, 61);
  const auto d = data::sample(spec, 4000, 62);
  Params params;
  params.per_dimension_depth = true;
  const auto result = fit(d.points, params);
  EXPECT_GT(stats::pairwise_scores(result.labels, d.labels).f1, 0.8);
  EXPECT_GE(result.n_clusters(), 4);

  // Depths are per kept dimension and within bounds.
  const auto& depths = result.model.depths();
  ASSERT_EQ(depths.size(), result.model.kept_dims().size());
  for (int depth : depths) {
    EXPECT_GE(depth, params.min_depth);
    EXPECT_LE(depth, params.max_depth);
  }

  ByteWriter w;
  result.model.serialize(w);
  ByteReader r(w.bytes());
  EXPECT_EQ(Model::deserialize(r).predict(d.points), result.labels);
}

TEST(Fit, PerDimensionDepthEvaluatesOneCandidatePerTrial) {
  const auto spec = data::make_paper_mixture(16, 3, 63);
  const auto d = data::sample(spec, 1500, 64);
  Params params;
  params.per_dimension_depth = true;
  params.bootstrap_trials = 5;
  const auto result = fit(d.points, params);
  // One diagnostics entry per trial (vs trials x depths in classic mode).
  EXPECT_EQ(result.trials.size(), 5u);
}

// Model bytes, this rank's labels and the trial diagnostics, field by
// field: what every rank of a distributed fit must share with the serial
// fit.
std::vector<std::byte> fit_bytes(const Model& model,
                                 std::span<const int> labels,
                                 const std::vector<TrialDiagnostics>& trials) {
  ByteWriter w;
  model.serialize(w);
  w.write_span(labels);
  w.write<std::uint64_t>(trials.size());
  for (const auto& t : trials) {
    w.write(t.trial);
    w.write(t.depth);
    w.write(t.kept_dims);
    w.write(t.cells);
    w.write(t.score);
  }
  return w.take();
}

/// Fit `d` over `ranks` ranks of `backend` and expect every rank's
/// fit_bytes to equal the serial fit's, with its own slice of the labels.
void expect_distributed_matches_serial(const data::Dataset& d,
                                       const Params& params, int ranks,
                                       comm::Backend backend,
                                       const FitResult& serial) {
  const auto shards = data::shard(d, ranks);
  const auto rows = data::partition_rows(d.size(), ranks);
  comm::LaunchOptions options;
  options.backend = backend;
  const auto blobs = comm::run_ranks_collect_bytes(
      options, ranks, [&](comm::Communicator& c) {
        const auto r = static_cast<std::size_t>(c.rank());
        const auto result = fit(c, shards[r].points, params);
        return fit_bytes(result.model, result.labels, result.trials);
      });
  for (int r = 0; r < ranks; ++r) {
    const auto& range = rows[static_cast<std::size_t>(r)];
    const auto expected = fit_bytes(
        serial.model,
        std::span<const int>(serial.labels).subspan(range.begin,
                                                    range.count()),
        serial.trials);
    EXPECT_EQ(blobs[static_cast<std::size_t>(r)], expected)
        << "rank " << r << " of " << ranks << " diverged from the serial fit";
  }
}

TEST(Fit, PerDimensionDepthDistributedEquivalence) {
  // One candidate per trial: its owner is the last rank, and every other
  // rank owns nothing in the partition exchange.
  const auto spec = data::make_paper_mixture(24, 3, 65);
  const auto d = data::sample(spec, 1600, 66);
  Params params;
  params.per_dimension_depth = true;
  const auto serial = fit(d.points, params);
  for (const auto backend : {comm::Backend::kThread, comm::Backend::kProcess}) {
    for (const int ranks : {2, 3, 8}) {
      SCOPED_TRACE(std::string(comm::backend_name(backend)) + " backend, " +
                   std::to_string(ranks) + " ranks");
      expect_distributed_matches_serial(d, params, ranks, backend, serial);
    }
  }
}

// ---- Distributed equivalence: the paper's central claim is that the
// distributed algorithm computes the same clustering as a centralized run,
// because only histograms are exchanged. Every exact comm mode, on either
// backend, must hand each rank the serial model's bytes, its own slice of
// the serial labels and the serial trial diagnostics. At max_depth 10 the
// merge carries n_rp x 1024 bins, at least kRecursiveHalvingMinElements, so
// the sparse and auto modes run recursive halving with sparse segments. The
// depth sweep's edge cases ride along: a single depth (one candidate per
// trial, so most ranks own none) and a fit whose every trial collapses (no
// candidate at all). ----

class DistributedEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(DistributedEquivalence, MatchesSerialExactly) {
  const int ranks = GetParam();
  const auto spec = data::make_paper_mixture(30, 4, 21);
  const auto d = data::sample(spec, 2400, 22);
  Params sweep;
  sweep.max_depth = 10;
  Params one_depth;
  one_depth.min_depth = 8;
  one_depth.max_depth = 8;
  Params all_collapse;
  all_collapse.collapse_threshold = 2.0;  // above any KS statistic
  const std::pair<Params, const char*> cases[] = {
      {sweep, "depth sweep"},
      {one_depth, "min_depth == max_depth"},
      {all_collapse, "every trial collapses"}};
  const std::pair<CommMode, const char*> exact_modes[] = {
      {CommMode::kDense, "dense"},
      {CommMode::kSparse, "sparse"},
      {CommMode::kRing, "ring"},
      {CommMode::kAuto, "auto"}};
  for (auto [params, case_name] : cases) {
    const auto serial = fit(d.points, params);
    ASSERT_FALSE(serial.trials.empty());
    for (const auto& t : serial.trials) {
      if (params.min_depth == params.max_depth) {
        EXPECT_EQ(t.depth, params.max_depth) << case_name;
      }
      if (params.collapse_threshold > 1.0) EXPECT_EQ(t.kept_dims, 0);
    }
    for (const auto backend :
         {comm::Backend::kThread, comm::Backend::kProcess}) {
      for (const auto& [mode, name] : exact_modes) {
        SCOPED_TRACE(std::string(case_name) + ", " +
                     comm::backend_name(backend) + " backend, " + name +
                     " mode");
        params.comm_mode = mode;
        expect_distributed_matches_serial(d, params, ranks, backend, serial);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, DistributedEquivalence,
                         ::testing::Values(1, 2, 3, 4, 8));

TEST(Distributed, AccuracyHoldsAcrossRankCounts) {
  const auto spec = data::make_paper_mixture(80, 4, 23);
  const auto d = data::sample(spec, 3200, 24);
  const auto shards = data::shard(d, 4);
  std::vector<int> combined(d.size());
  comm::run_ranks(4, [&](comm::Communicator& c) {
    const auto r = static_cast<std::size_t>(c.rank());
    const auto result = fit(c, shards[r].points);
    const auto ranges = data::partition_rows(d.size(), 4);
    std::copy(result.labels.begin(), result.labels.end(),
              combined.begin() +
                  static_cast<std::ptrdiff_t>(ranges[r].begin));
  });
  const auto scores = stats::pairwise_scores(combined, d.labels);
  EXPECT_GT(scores.f1, 0.8);
}

TEST(Distributed, HistogramsOnlyTrafficIsSmall) {
  // The paper: communication is O(2 K N_rp B) — kilobytes, independent of M.
  const auto spec = data::make_paper_mixture(20, 4, 25);
  const auto d = data::sample(spec, 4000, 26);
  const auto shards = data::shard(d, 4);
  const auto traffic = comm::run_ranks(4, [&](comm::Communicator& c) {
    fit(c, shards[static_cast<std::size_t>(c.rank())].points);
  });
  const double raw_bytes = static_cast<double>(d.size()) *
                           static_cast<double>(d.dims()) * sizeof(double);
  EXPECT_LT(static_cast<double>(traffic.bytes_sent), raw_bytes);
}

}  // namespace
}  // namespace keybin2::core
