#include "stats/smoothing.hpp"

#include <algorithm>
#include <cmath>

namespace keybin2::stats {

std::vector<double> moving_average(std::span<const double> y, std::size_t w) {
  const std::size_t n = y.size();
  std::vector<double> out(n, 0.0);
  if (n == 0) return out;
  // Prefix sums make each window O(1).
  std::vector<double> prefix(n + 1, 0.0);
  for (std::size_t i = 0; i < n; ++i) prefix[i + 1] = prefix[i] + y[i];
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t lo = i >= w ? i - w : 0;
    const std::size_t hi = std::min(n - 1, i + w);
    out[i] = (prefix[hi + 1] - prefix[lo]) / static_cast<double>(hi - lo + 1);
  }
  return out;
}

std::size_t smoothing_window(std::size_t bins) {
  const auto w = static_cast<std::size_t>(
      std::lround(std::sqrt(static_cast<double>(bins))));
  return std::max<std::size_t>(1, w);
}

std::vector<double> local_linear_slope(std::span<const double> y,
                                       std::size_t w) {
  const std::size_t n = y.size();
  std::vector<double> out(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t lo = i >= w ? i - w : 0;
    const std::size_t hi = std::min(n == 0 ? 0 : n - 1, i + w);
    // Least-squares slope over (x, y) pairs with x = index.
    const double m = static_cast<double>(hi - lo + 1);
    double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
    for (std::size_t j = lo; j <= hi; ++j) {
      const double x = static_cast<double>(j);
      sx += x;
      sy += y[j];
      sxx += x * x;
      sxy += x * y[j];
    }
    const double denom = m * sxx - sx * sx;
    out[i] = denom != 0.0 ? (m * sxy - sx * sy) / denom : 0.0;
  }
  return out;
}

std::vector<double> first_difference(std::span<const double> y) {
  std::vector<double> out;
  if (y.size() < 2) return out;
  out.reserve(y.size() - 1);
  for (std::size_t i = 0; i + 1 < y.size(); ++i) out.push_back(y[i + 1] - y[i]);
  return out;
}

std::vector<std::size_t> sign_changes(std::span<const double> d2) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i + 1 < d2.size(); ++i) {
    if ((d2[i] > 0.0 && d2[i + 1] < 0.0) || (d2[i] < 0.0 && d2[i + 1] > 0.0)) {
      out.push_back(i);
    }
  }
  return out;
}

namespace {

/// Plateau-aware local extrema, INCLUDING boundary extrema: a histogram
/// cluster hugging the range edge is a legitimate mode, so an edge plateau
/// that dominates inward counts. A constant series has no extrema. Plateaus
/// report their midpoint.
std::vector<std::size_t> plateau_extrema(std::span<const double> y,
                                         bool maxima) {
  std::vector<std::size_t> out;
  const std::size_t n = y.size();
  if (n < 2) return out;
  auto better = [&](double a, double b) { return maxima ? a > b : a < b; };
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i;  // walk the plateau [i, j]
    while (j + 1 < n && y[j + 1] == y[i]) ++j;
    const bool left_ok = i == 0 || better(y[i], y[i - 1]);
    const bool right_ok = j == n - 1 || better(y[i], y[j + 1]);
    const bool whole_series = i == 0 && j == n - 1;
    if (left_ok && right_ok && !whole_series) out.push_back((i + j) / 2);
    i = j + 1;
  }
  return out;
}

/// One side of the prominence test for the peak (kMaxima) or valley at
/// `idx`: walking in direction `dir`, the side's contrast is the distance
/// from y[idx] to the least favourable value crossed before a more extreme
/// one (or the edge). That contrast never decreases along the walk, and FP
/// subtraction is monotone, so the walk stops as soon as the answer is
/// known: at a contrast of `min_prominence` (the side passes) or at a more
/// extreme value below it (the side fails). A side with no elements
/// (boundary extremum) does not constrain the extremum.
template <bool kMaxima>
bool side_prominent(std::span<const double> y, std::size_t idx,
                    std::ptrdiff_t dir, double min_prominence) {
  const auto n = static_cast<std::ptrdiff_t>(y.size());
  std::ptrdiff_t i = static_cast<std::ptrdiff_t>(idx) + dir;
  if (i < 0 || i >= n) return true;
  const double v = y[idx];
  double worst = v;
  const auto contrast = [&] { return kMaxima ? v - worst : worst - v; };
  for (; i >= 0 && i < n; i += dir) {
    if (contrast() >= min_prominence) return true;
    const double u = y[static_cast<std::size_t>(i)];
    if (kMaxima ? u > v : u < v) return false;  // a higher peak / lower valley
    worst = kMaxima ? std::min(worst, u) : std::max(worst, u);
  }
  return contrast() >= min_prominence;
}

/// Extrema whose smaller one-sided contrast is at least `min_prominence`:
/// the right side is walked only when the left one passes.
template <bool kMaxima>
std::vector<std::size_t> prominent_extrema(std::span<const double> y,
                                           double min_prominence) {
  std::vector<std::size_t> out;
  for (std::size_t idx : plateau_extrema(y, kMaxima)) {
    if (side_prominent<kMaxima>(y, idx, -1, min_prominence) &&
        side_prominent<kMaxima>(y, idx, +1, min_prominence)) {
      out.push_back(idx);
    }
  }
  return out;
}

}  // namespace

std::vector<std::size_t> prominent_minima(std::span<const double> y,
                                          double min_prominence) {
  return prominent_extrema</*kMaxima=*/false>(y, min_prominence);
}

std::vector<std::size_t> prominent_maxima(std::span<const double> y,
                                          double min_prominence) {
  return prominent_extrema</*kMaxima=*/true>(y, min_prominence);
}

}  // namespace keybin2::stats
