#include "core/partitioner.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "stats/histogram.hpp"

namespace keybin2::core {
namespace {

/// Binned samples from a mixture of Gaussians over [0, 1].
std::vector<double> binned_mixture(const std::vector<double>& centers,
                                   double sigma, std::size_t bins,
                                   std::uint64_t seed, int n_per = 4000) {
  stats::Histogram h(0.0, 1.0, bins);
  Rng rng(seed);
  for (double c : centers) {
    for (int i = 0; i < n_per; ++i) h.add(rng.normal(c, sigma));
  }
  return {h.counts().begin(), h.counts().end()};
}

TEST(DiscreteOpt, UnimodalHasNoCuts) {
  const auto counts = binned_mixture({0.5}, 0.08, 64, 1);
  const auto p = partition_discrete_opt(counts, 0.05);
  EXPECT_TRUE(p.cuts.empty());
  EXPECT_EQ(p.primary_count(), 1u);
}

TEST(DiscreteOpt, BimodalCutsNearValley) {
  const auto counts = binned_mixture({0.25, 0.75}, 0.06, 64, 2);
  const auto p = partition_discrete_opt(counts, 0.05);
  ASSERT_EQ(p.cuts.size(), 1u);
  // The valley between modes at bins ~16 and ~48 is near bin 32.
  EXPECT_GT(p.cuts[0], 22u);
  EXPECT_LT(p.cuts[0], 42u);
}

TEST(DiscreteOpt, TrimodalGetsTwoCuts) {
  const auto counts = binned_mixture({0.15, 0.5, 0.85}, 0.05, 64, 3);
  const auto p = partition_discrete_opt(counts, 0.05);
  EXPECT_EQ(p.cuts.size(), 2u);
  EXPECT_EQ(p.primary_count(), 3u);
}

TEST(DiscreteOpt, NoiseBumpsAreSmoothedAway) {
  auto counts = binned_mixture({0.3, 0.7}, 0.07, 64, 4);
  // Inject small per-bin noise that a raw-minimum scan would trip on.
  Rng rng(5);
  for (auto& c : counts) c += rng.uniform(0.0, 0.02 * 4000);
  const auto p = partition_discrete_opt(counts, 0.05);
  EXPECT_EQ(p.cuts.size(), 1u);
}

TEST(DiscreteOpt, EmptyAndTinyInputs) {
  EXPECT_EQ(partition_discrete_opt({}, 0.05).primary_count(), 1u);
  std::vector<double> two{1.0, 2.0};
  EXPECT_EQ(partition_discrete_opt(two, 0.05).primary_count(), 1u);
  std::vector<double> zeros(32, 0.0);
  EXPECT_TRUE(partition_discrete_opt(zeros, 0.05).cuts.empty());
}

TEST(DiscreteOpt, TraceExposesOptimizationInternals) {
  const auto counts = binned_mixture({0.25, 0.75}, 0.06, 64, 6);
  PartitionTrace trace;
  partition_discrete_opt(counts, 0.05, &trace);
  EXPECT_EQ(trace.smoothed.size(), 64u);
  EXPECT_EQ(trace.slope.size(), 64u);
  EXPECT_EQ(trace.curvature.size(), 63u);
  EXPECT_EQ(trace.modes.size(), 2u);
  EXPECT_FALSE(trace.inflections.empty());
}

TEST(DiscreteOpt, TraceDoesNotChangeCuts) {
  // The regression and inflections are diagnostics: asking for them must
  // leave the cuts alone at every depth the sweep visits.
  for (int depth = 3; depth <= 12; ++depth) {
    const std::size_t bins = std::size_t{1} << depth;
    const auto counts = binned_mixture({0.12, 0.3, 0.55, 0.8}, 0.04, bins,
                                       40 + static_cast<std::uint64_t>(depth));
    for (const auto smoothing : {Smoothing::kMovingAverage,
                                 Smoothing::kKernelDensity}) {
      PartitionTrace trace;
      const auto traced =
          partition_discrete_opt(counts, 0.05, &trace, smoothing);
      const auto plain =
          partition_discrete_opt(counts, 0.05, nullptr, smoothing);
      EXPECT_EQ(traced.cuts, plain.cuts) << "depth " << depth;
      EXPECT_EQ(traced.bins, plain.bins);
      EXPECT_EQ(trace.slope.size(), bins);
    }
  }
}

TEST(DiscreteOpt, ProminenceThresholdControlsSensitivity) {
  // A small shoulder next to a big mode: high prominence ignores it.
  const auto base = binned_mixture({0.4}, 0.06, 64, 7, 8000);
  auto counts = base;
  {
    Rng rng(8);
    stats::Histogram shoulder(0.0, 1.0, 64);
    for (int i = 0; i < 600; ++i) shoulder.add(rng.normal(0.75, 0.04));
    for (std::size_t b = 0; b < 64; ++b) counts[b] += shoulder.count(b);
  }
  const auto sensitive = partition_discrete_opt(counts, 0.01);
  const auto strict = partition_discrete_opt(counts, 0.5);
  EXPECT_GE(sensitive.cuts.size(), strict.cuts.size());
  EXPECT_TRUE(strict.cuts.empty());
}

TEST(V1Threshold, DenseRunsBecomePrimaries) {
  //                       run A            gap     run B
  std::vector<double> counts{9, 8, 9, 0.1, 0.1, 0.1, 7, 8, 9};
  const auto p = partition_v1_threshold(counts, 0.05);
  ASSERT_EQ(p.cuts.size(), 1u);
  // Cut at the midpoint of the sparse gap.
  EXPECT_EQ(p.cuts[0], 5u);
}

TEST(V1Threshold, SingleRunHasNoCuts) {
  std::vector<double> counts{1, 5, 9, 5, 1};
  EXPECT_TRUE(partition_v1_threshold(counts, 0.05).cuts.empty());
}

TEST(V1Threshold, ThresholdControlsRunDetection) {
  // Two modes connected by a saddle at 40% of the peak: a 50% threshold
  // splits them, a 30% threshold sees one run.
  std::vector<double> counts{10, 9, 4, 9, 10};
  EXPECT_EQ(partition_v1_threshold(counts, 0.5).cuts.size(), 1u);
  EXPECT_TRUE(partition_v1_threshold(counts, 0.3).cuts.empty());
}

TEST(V1Threshold, EmptyInput) {
  EXPECT_TRUE(partition_v1_threshold({}, 0.1).cuts.empty());
}

TEST(Dispatch, ParamsSelectPartitioner) {
  const auto counts = binned_mixture({0.25, 0.75}, 0.06, 64, 9);
  Params discrete;
  Params v1;
  v1.use_discrete_opt = false;
  v1.v1_density_threshold = 0.05;
  const auto a = partition(counts, discrete);
  const auto b = partition(counts, v1);
  EXPECT_EQ(a.primary_count(), 2u);
  EXPECT_EQ(b.primary_count(), 2u);
}

TEST(DimensionPartition, PrimaryOfAndRangeOfAgree) {
  DimensionPartition p;
  p.bins = 16;
  p.cuts = {4, 9};
  EXPECT_EQ(p.primary_count(), 3u);
  EXPECT_EQ(p.primary_of(0), 0u);
  EXPECT_EQ(p.primary_of(3), 0u);
  EXPECT_EQ(p.primary_of(4), 1u);
  EXPECT_EQ(p.primary_of(8), 1u);
  EXPECT_EQ(p.primary_of(9), 2u);
  EXPECT_EQ(p.primary_of(15), 2u);

  EXPECT_EQ(p.range_of(0), (std::pair<std::size_t, std::size_t>{0, 4}));
  EXPECT_EQ(p.range_of(1), (std::pair<std::size_t, std::size_t>{4, 9}));
  EXPECT_EQ(p.range_of(2), (std::pair<std::size_t, std::size_t>{9, 16}));

  // Every bin's primary contains it.
  for (std::size_t b = 0; b < p.bins; ++b) {
    const auto [begin, end] = p.range_of(p.primary_of(b));
    EXPECT_GE(b, begin);
    EXPECT_LT(b, end);
  }
}

TEST(DimensionPartition, BoundsAreValidated) {
  DimensionPartition p;
  p.bins = 8;
  p.cuts = {3};
  EXPECT_THROW(p.primary_of(8), Error);
  EXPECT_THROW(p.range_of(2), Error);
}

}  // namespace
}  // namespace keybin2::core
