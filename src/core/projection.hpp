// Random projection into a lower space (paper §3.1).
//
// A projection matrix A (N x N_rp) with unit-norm Gaussian columns maps each
// point x to x' = x A. In high dimension random unit vectors are near
// orthogonal, so the mapping both rotates the data (decorrelating clusters
// whose axis-aligned projections overlap — Figure 1) and compresses it to
// N_rp = 1.5 ln N dimensions. KeyBin2 needs only that the ordering of points
// along each column is informative, a far weaker requirement than the
// Johnson–Lindenstrauss distance-preservation bound.
#pragma once

#include <cstdint>
#include <vector>

#include "common/matrix.hpp"
#include "core/params.hpp"

namespace keybin2::core {

/// The paper's target-dimension rule N_rp = 1.5 log(N), floored at 2 and
/// capped at N (projecting up makes no sense).
int choose_n_rp(std::size_t input_dims);

/// N x n_rp matrix with i.i.d. Gaussian entries, columns normalized to unit
/// length. Deterministic in `seed`.
Matrix make_projection_matrix(std::size_t input_dims, int n_rp,
                              std::uint64_t seed);

/// The bootstrap trials' projections, identical on every rank: trial t's
/// input_dims x n_rp matrix (n_rp = Params::n_rp, or choose_n_rp when 0)
/// is seeded by the t-th fork of Params::seed, generated on the pool.
/// Without projection: one empty (identity) matrix, n_rp = input_dims.
struct TrialProjections {
  int n_rp = 0;
  std::vector<Matrix> matrices;  // one per trial
};
TrialProjections trial_projections(const Params& params,
                                   std::size_t input_dims);

/// X' = X A, parallelized over rows via the global thread pool.
Matrix project(const Matrix& points, const Matrix& a);

/// Project a single point: out[j] = sum_i x[i] * a(i, j).
void project_point(std::span<const double> x, const Matrix& a,
                   std::span<double> out);

}  // namespace keybin2::core
