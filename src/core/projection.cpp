#include "core/projection.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"

namespace keybin2::core {

int choose_n_rp(std::size_t input_dims) {
  KB2_CHECK_MSG(input_dims >= 1, "need at least one input dimension");
  const double raw = 1.5 * std::log(static_cast<double>(input_dims));
  const int n = std::max(2, static_cast<int>(std::lround(raw)));
  return std::min<int>(n, static_cast<int>(input_dims));
}

Matrix make_projection_matrix(std::size_t input_dims, int n_rp,
                              std::uint64_t seed) {
  KB2_CHECK_MSG(n_rp >= 1, "n_rp must be positive, got " << n_rp);
  Rng rng(seed);
  Matrix a(input_dims, static_cast<std::size_t>(n_rp));
  for (std::size_t j = 0; j < a.cols(); ++j) {
    double norm2 = 0.0;
    for (std::size_t i = 0; i < input_dims; ++i) {
      const double v = rng.normal();
      a(i, j) = v;
      norm2 += v * v;
    }
    const double norm = std::sqrt(norm2);
    KB2_CHECK_MSG(norm > 0.0, "degenerate projection column");
    for (std::size_t i = 0; i < input_dims; ++i) a(i, j) /= norm;
  }
  return a;
}

TrialProjections trial_projections(const Params& params,
                                   std::size_t input_dims) {
  TrialProjections set;
  if (!params.use_projection) {
    set.n_rp = static_cast<int>(input_dims);
    set.matrices.resize(1);
    return set;
  }
  set.n_rp = params.n_rp > 0 ? params.n_rp : choose_n_rp(input_dims);
  Rng seed_stream(params.seed);
  std::vector<std::uint64_t> seeds(
      static_cast<std::size_t>(params.bootstrap_trials));
  for (auto& seed : seeds) seed = seed_stream.fork_seed();
  set.matrices.resize(seeds.size());
  global_pool().parallel_for(seeds.size(), [&](std::size_t b, std::size_t e) {
    for (std::size_t t = b; t < e; ++t) {
      set.matrices[t] = make_projection_matrix(input_dims, set.n_rp, seeds[t]);
    }
  });
  return set;
}

Matrix project(const Matrix& points, const Matrix& a) {
  KB2_CHECK_MSG(points.cols() == a.rows(),
                "projection shape mismatch: " << points.cols() << " vs "
                                              << a.rows());
  Matrix out(points.rows(), a.cols());
  global_pool().parallel_for(points.rows(), [&](std::size_t begin,
                                                std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      project_point(points.row(i), a, out.row(i));
    }
  });
  return out;
}

void project_point(std::span<const double> x, const Matrix& a,
                   std::span<double> out) {
  KB2_CHECK_MSG(x.size() == a.rows() && out.size() == a.cols(),
                "project_point shape mismatch");
  std::fill(out.begin(), out.end(), 0.0);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double xi = x[i];
    if (xi == 0.0) continue;
    auto arow = a.row(i);
    for (std::size_t j = 0; j < out.size(); ++j) out[j] += xi * arow[j];
  }
}

}  // namespace keybin2::core
