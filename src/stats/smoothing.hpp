// Histogram smoothing and discrete differentiation (paper §3.2).
//
// KeyBin2 partitions a dimension by (1) smoothing its merged histogram with a
// centered moving average whose window is the square root of the bin count,
// (2) fitting a local linear regression per window to get the slope (first
// derivative), (3) differencing slopes to locate inflection points, and
// (4) cutting at density minima between modes. This replaces the v1 density
// threshold and is the "discrete optimization" of the paper — all operations
// live in histogram space, independent of the number of data points. The
// cuts need only (1) and (4); core's partitioner computes (2) and (3) only
// for a diagnostic trace.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace keybin2::stats {

/// Centered moving average with half-window w (full window 2w+1); the window
/// truncates at the edges so mass near the borders is not smeared outward.
std::vector<double> moving_average(std::span<const double> y, std::size_t w);

/// Paper's window rule: "window size equal to the square root of the number
/// of bins", floored at 1.
std::size_t smoothing_window(std::size_t bins);

/// Slope of the least-squares line fit over the centered window [i-w, i+w]
/// (truncated at edges) for every index i: the discrete first derivative.
std::vector<double> local_linear_slope(std::span<const double> y,
                                       std::size_t w);

/// First difference of a series (out[i] = y[i+1] - y[i], size n-1).
std::vector<double> first_difference(std::span<const double> y);

/// Indices i where the sign of d2 changes between i and i+1 (inflection
/// points of the smoothed density).
std::vector<std::size_t> sign_changes(std::span<const double> d2);

/// Local minima of `y` that are separated from both neighbouring maxima by a
/// drop of at least `min_prominence` (absolute units). Returns the minima
/// indices in increasing order; flat valleys report their midpoint. A
/// side's contrast only grows as its walk goes on, so each walk stops once
/// its answer is known — at a contrast of `min_prominence`, or at a more
/// extreme value short of it — and the second side is walked only when the
/// first passes. For a finite series the result equals comparing the full
/// walks' contrasts against the threshold.
std::vector<std::size_t> prominent_minima(std::span<const double> y,
                                          double min_prominence);

/// Local maxima (modes) with the same prominence rule.
std::vector<std::size_t> prominent_maxima(std::span<const double> y,
                                          double min_prominence);

}  // namespace keybin2::stats
