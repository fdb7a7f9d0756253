#include "stats/smoothing.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.hpp"

namespace keybin2::stats {
namespace {

TEST(MovingAverage, ConstantSeriesUnchanged) {
  std::vector<double> y(20, 5.0);
  for (double v : moving_average(y, 3)) EXPECT_DOUBLE_EQ(v, 5.0);
}

TEST(MovingAverage, WindowZeroIsIdentity) {
  std::vector<double> y{1.0, 5.0, 2.0};
  EXPECT_EQ(moving_average(y, 0), y);
}

TEST(MovingAverage, CentredWindowAveragesNeighbours) {
  std::vector<double> y{0.0, 3.0, 6.0};
  auto s = moving_average(y, 1);
  EXPECT_DOUBLE_EQ(s[1], 3.0);
  // Edges truncate the window instead of zero-padding.
  EXPECT_DOUBLE_EQ(s[0], 1.5);
  EXPECT_DOUBLE_EQ(s[2], 4.5);
}

TEST(MovingAverage, EmptyInput) {
  EXPECT_TRUE(moving_average({}, 2).empty());
}

TEST(MovingAverage, PreservesTotalOrderOfScale) {
  // Smoothing must not invent mass far above the peak.
  std::vector<double> y{0, 0, 10, 0, 0};
  auto s = moving_average(y, 1);
  for (double v : s) EXPECT_LE(v, 10.0);
}

TEST(SmoothingWindow, FollowsSqrtRule) {
  EXPECT_EQ(smoothing_window(64), 8u);
  EXPECT_EQ(smoothing_window(16), 4u);
  EXPECT_EQ(smoothing_window(1), 1u);
  EXPECT_EQ(smoothing_window(0), 1u);  // floored
}

TEST(LocalSlope, LinearSeriesHasConstantSlope) {
  std::vector<double> y;
  for (int i = 0; i < 30; ++i) y.push_back(2.0 * i + 1.0);
  auto s = local_linear_slope(y, 3);
  for (double v : s) EXPECT_NEAR(v, 2.0, 1e-9);
}

TEST(LocalSlope, FlatSeriesHasZeroSlope) {
  std::vector<double> y(10, 4.0);
  for (double v : local_linear_slope(y, 2)) EXPECT_NEAR(v, 0.0, 1e-12);
}

TEST(LocalSlope, SignFlipsAtPeak) {
  std::vector<double> y{0, 1, 2, 3, 4, 3, 2, 1, 0};
  auto s = local_linear_slope(y, 2);
  EXPECT_GT(s[1], 0.0);
  EXPECT_LT(s[7], 0.0);
}

TEST(FirstDifference, KnownValues) {
  std::vector<double> y{1.0, 4.0, 2.0};
  auto d = first_difference(y);
  ASSERT_EQ(d.size(), 2u);
  EXPECT_DOUBLE_EQ(d[0], 3.0);
  EXPECT_DOUBLE_EQ(d[1], -2.0);
}

TEST(FirstDifference, ShortInputs) {
  EXPECT_TRUE(first_difference({}).empty());
  EXPECT_TRUE(first_difference(std::vector<double>{1.0}).empty());
}

TEST(SignChanges, DetectsCrossings) {
  std::vector<double> d2{1.0, 2.0, -1.0, -2.0, 3.0};
  auto c = sign_changes(d2);
  EXPECT_EQ(c, (std::vector<std::size_t>{1, 3}));
}

TEST(SignChanges, IgnoresTouchingZero) {
  std::vector<double> d2{1.0, 0.0, 1.0};
  EXPECT_TRUE(sign_changes(d2).empty());
}

TEST(ProminentMaxima, FindsTwoCleanModes) {
  //               0    1    2    3    4    5    6    7    8
  std::vector<double> y{0.0, 5.0, 8.0, 5.0, 1.0, 6.0, 9.0, 6.0, 0.0};
  auto m = prominent_maxima(y, 2.0);
  EXPECT_EQ(m, (std::vector<std::size_t>{2, 6}));
}

TEST(ProminentMaxima, FiltersShallowBump) {
  std::vector<double> y{0.0, 8.0, 7.5, 7.8, 7.0, 2.0, 0.0};
  // The bump at index 3 has prominence 0.3 — below threshold 1.0.
  auto m = prominent_maxima(y, 1.0);
  EXPECT_EQ(m, (std::vector<std::size_t>{1}));
}

TEST(ProminentMaxima, PlateauReportsMidpoint) {
  std::vector<double> y{0.0, 5.0, 5.0, 5.0, 0.0};
  auto m = prominent_maxima(y, 1.0);
  ASSERT_EQ(m.size(), 1u);
  EXPECT_EQ(m[0], 2u);
}

TEST(ProminentMaxima, MonotoneSeriesHasEdgeModeOnly) {
  // A density rising to the range boundary is a single mode AT the edge
  // (a cluster hugging the histogram border).
  std::vector<double> y{0, 1, 2, 3, 4};
  EXPECT_EQ(prominent_maxima(y, 0.5), (std::vector<std::size_t>{4}));
}

TEST(ProminentMaxima, EdgeClusterIsAMode) {
  // Mass piled at bin 0, decaying inward: the edge is the mode.
  std::vector<double> y{10.0, 6.0, 2.0, 1.0, 0.5};
  auto m = prominent_maxima(y, 1.0);
  EXPECT_EQ(m, (std::vector<std::size_t>{0}));
}

TEST(ProminentMaxima, TwoEdgeClustersAreTwoModes) {
  std::vector<double> y{9.0, 3.0, 0.5, 0.5, 3.0, 8.0};
  auto m = prominent_maxima(y, 2.0);
  EXPECT_EQ(m, (std::vector<std::size_t>{0, 5}));
}

TEST(ProminentMinima, FindsValleyBetweenModes) {
  std::vector<double> y{0.0, 8.0, 2.0, 9.0, 0.0};
  // The interior valley plus the two edge minima.
  auto m = prominent_minima(y, 3.0);
  EXPECT_EQ(m, (std::vector<std::size_t>{0, 2, 4}));
}

TEST(ProminentMinima, ShallowInteriorDipFiltered) {
  std::vector<double> y{0.0, 8.0, 7.5, 9.0, 0.0};
  // The 0.5-deep interior dip is filtered; edges survive (unconstrained).
  auto m = prominent_minima(y, 1.0);
  EXPECT_EQ(m, (std::vector<std::size_t>{0, 4}));
}

TEST(ProminentExtrema, ConstantAndEmptySeriesHaveNone) {
  EXPECT_TRUE(prominent_maxima(std::vector<double>{2.0, 2.0, 2.0}, 0.1).empty());
  EXPECT_TRUE(prominent_minima(std::vector<double>{}, 0.1).empty());
  EXPECT_TRUE(prominent_maxima(std::vector<double>{1.0}, 0.1).empty());
}

// ---- The early-exit walks against the full walk ----
//
// The reference below is the walk the library ran before its walks stopped
// early: each side runs on to the next more extreme value (or the edge),
// and the smaller one-sided contrast is then compared with the threshold.

/// Plateau-aware extrema, boundary plateaus included, midpoints reported.
std::vector<std::size_t> reference_plateau_extrema(const std::vector<double>& y,
                                                   bool maxima) {
  std::vector<std::size_t> out;
  const std::size_t n = y.size();
  if (n < 2) return out;
  auto better = [&](double a, double b) { return maxima ? a > b : a < b; };
  for (std::size_t i = 0; i < n;) {
    std::size_t j = i;
    while (j + 1 < n && y[j + 1] == y[i]) ++j;
    const bool left_ok = i == 0 || better(y[i], y[i - 1]);
    const bool right_ok = j == n - 1 || better(y[i], y[j + 1]);
    if (left_ok && right_ok && !(i == 0 && j == n - 1)) {
      out.push_back((i + j) / 2);
    }
    i = j + 1;
  }
  return out;
}

/// One side's contrast from the full walk; +inf for an empty side.
double reference_side(const std::vector<double>& y, std::size_t idx, int dir,
                      bool maxima) {
  const double v = y[idx];
  std::ptrdiff_t i = static_cast<std::ptrdiff_t>(idx) + dir;
  if (i < 0 || i >= static_cast<std::ptrdiff_t>(y.size())) {
    return std::numeric_limits<double>::infinity();
  }
  double worst = v;
  while (i >= 0 && i < static_cast<std::ptrdiff_t>(y.size())) {
    const double u = y[static_cast<std::size_t>(i)];
    if (maxima ? u > v : u < v) break;
    worst = maxima ? std::min(worst, u) : std::max(worst, u);
    i += dir;
  }
  return maxima ? v - worst : worst - v;
}

std::vector<std::size_t> reference_extrema(const std::vector<double>& y,
                                           double min_prominence,
                                           bool maxima) {
  std::vector<std::size_t> out;
  for (const std::size_t idx : reference_plateau_extrema(y, maxima)) {
    const double prominence = std::min(reference_side(y, idx, -1, maxima),
                                       reference_side(y, idx, +1, maxima));
    if (prominence >= min_prominence) out.push_back(idx);
  }
  return out;
}

/// A seeded series of quantized values, so plateaus and exact ties are
/// common, with negative values: independent levels, or a random walk whose
/// long monotone runs give long walks and large contrasts.
std::vector<double> quantized_series(Rng& rng) {
  const auto n = 1 + static_cast<std::size_t>(rng.uniform_int(300));
  const double step = rng.uniform() < 0.5 ? 0.25 : 0.1;  // 0.1 is inexact
  const bool walk = rng.uniform() < 0.5;
  const auto levels = 1 + rng.uniform_int(9);
  std::vector<double> y(n);
  double level = 0.0;
  for (auto& v : y) {
    const double draw = static_cast<double>(rng.uniform_int(levels)) -
                        static_cast<double>(levels / 2);
    level = walk ? level + draw : draw;
    v = level * step;
  }
  return y;
}

TEST(ProminentExtrema, EarlyExitMatchesTheFullWalk) {
  Rng rng(20);
  for (int series = 0; series < 4000; ++series) {
    const auto y = quantized_series(rng);
    std::vector<double> thresholds{0.0, 1e-9, 0.25, 0.5, 1.0, 2.0,
                                   std::numeric_limits<double>::denorm_min()};
    // Thresholds exactly equal to a one-sided contrast of the series, where
    // `>=` against `>` decides the answer.
    std::vector<double> contrasts;
    for (const bool maxima : {true, false}) {
      for (const std::size_t idx : reference_plateau_extrema(y, maxima)) {
        for (const int dir : {-1, +1}) {
          const double c = reference_side(y, idx, dir, maxima);
          if (std::isfinite(c)) contrasts.push_back(c);
        }
      }
    }
    for (int k = 0; k < 4 && !contrasts.empty(); ++k) {
      thresholds.push_back(contrasts[rng.uniform_int(contrasts.size())]);
    }
    for (const double t : thresholds) {
      ASSERT_EQ(prominent_maxima(y, t), reference_extrema(y, t, true))
          << "series " << series << ", threshold " << t;
      ASSERT_EQ(prominent_minima(y, t), reference_extrema(y, t, false))
          << "series " << series << ", threshold " << t;
    }
  }
}

}  // namespace
}  // namespace keybin2::stats
