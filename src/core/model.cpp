#include "core/model.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "core/fused.hpp"

namespace keybin2::core {

namespace {

std::uint64_t l1_distance(std::span<const std::uint32_t> a,
                          std::span<const std::uint32_t> b) {
  std::uint64_t d = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    d += a[i] > b[i] ? a[i] - b[i] : b[i] - a[i];
  }
  return d;
}

}  // namespace

Model::Model(std::size_t input_dims, Matrix projection, int depth,
             std::vector<int> kept_dims, std::vector<Range> ranges,
             std::vector<DimensionPartition> partitions,
             std::vector<Cell> cells, double score, double total_points,
             double min_cluster_fraction) {
  // Materialize the uniform depth vector BEFORE kept_dims is moved from
  // (constructor arguments are unsequenced).
  std::vector<int> depths(kept_dims.size(), depth);
  *this = Model(input_dims, std::move(projection), std::move(depths),
                std::move(kept_dims), std::move(ranges), std::move(partitions),
                std::move(cells), score, total_points, min_cluster_fraction);
}

Model::Model(std::size_t input_dims, Matrix projection,
             std::vector<int> depths, std::vector<int> kept_dims,
             std::vector<Range> ranges,
             std::vector<DimensionPartition> partitions,
             std::vector<Cell> cells, double score, double total_points,
             double min_cluster_fraction)
    : input_dims_(input_dims),
      projection_(std::move(projection)),
      depths_(std::move(depths)),
      kept_dims_(std::move(kept_dims)),
      ranges_(std::move(ranges)),
      partitions_(std::move(partitions)),
      cells_(std::move(cells)),
      score_(score) {
  check_shape();

  // Densest-first ordering; lexicographic coordinate tie-break keeps label
  // assignment deterministic across runs and rank counts.
  std::sort(cells_.begin(), cells_.end(), [](const Cell& a, const Cell& b) {
    if (a.density != b.density) return a.density > b.density;
    return a.coord < b.coord;
  });

  // Absorb tiny cells into the nearest dense cell (outlier absorption).
  const double min_density = min_cluster_fraction * total_points;
  int next_label = 0;
  for (auto& c : cells_) {
    if (c.density >= min_density || next_label == 0) {
      c.label = next_label++;
    } else {
      c.label = -1;  // to be absorbed below
    }
  }
  // An empty cell set (all dimensions collapsed) is one global cluster.
  n_clusters_ = next_label > 0 ? next_label : 1;
  for (auto& c : cells_) {
    if (c.label >= 0) continue;
    std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
    for (const auto& host : cells_) {
      if (host.label < 0) continue;
      const auto d = l1_distance(c.coord, host.coord);
      if (d < best) {
        best = d;
        c.label = host.label;
      }
    }
  }
}

void Model::check_shape() const {
  KB2_CHECK_MSG(partitions_.size() == kept_dims_.size(),
                "one partition per kept dimension required");
  KB2_CHECK_MSG(depths_.size() == kept_dims_.size(),
                "one depth per kept dimension required");
  for (const auto& c : cells_) {
    KB2_CHECK_MSG(c.coord.size() == kept_dims_.size(),
                  "cell coordinate arity mismatch");
  }
  KB2_CHECK_MSG(!uses_projection() || projection_.rows() == input_dims_,
                "projection has " << projection_.rows() << " rows for "
                                  << input_dims_ << " input dims");
  const std::size_t space =
      std::min(ranges_.size(),
               uses_projection() ? projection_.cols() : input_dims_);
  for (const int j : kept_dims_) {
    KB2_CHECK_MSG(j >= 0 && static_cast<std::size_t>(j) < space,
                  "kept dim " << j << " outside the " << space
                              << " projected dims with ranges");
  }
}

int Model::depth() const {
  int deepest = 0;
  for (int d : depths_) deepest = std::max(deepest, d);
  return deepest;
}

int Model::label_of_cell(std::span<const std::uint32_t> coord) const {
  KB2_CHECK_MSG(coord.size() == kept_dims_.size(),
                "cell arity " << coord.size() << " != " << kept_dims_.size());
  if (cells_.empty()) return 0;
  int best_label = cells_.front().label;
  std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
  for (const auto& c : cells_) {
    const auto d = l1_distance(coord, c.coord);
    if (d == 0) return c.label;
    if (d < best) {
      best = d;
      best_label = c.label;
    }
  }
  return best_label;
}

int Model::predict(std::span<const double> x) const {
  KB2_CHECK_MSG(x.size() == input_dims_,
                "point has " << x.size() << " dims, model expects "
                             << input_dims_);
  if (kept_dims_.empty()) return 0;  // degenerate single-cluster model
  int label = 0;
  label_rows(x.data(), 1, &label);
  return label;
}

std::vector<int> Model::predict(const Matrix& points) const {
  KB2_CHECK_MSG(points.rows() == 0 || points.cols() == input_dims_,
                "points have " << points.cols() << " dims, model expects "
                               << input_dims_);
  std::vector<int> labels(points.rows(), 0);
  if (kept_dims_.empty()) return labels;
  global_pool().parallel_for(points.rows(),
                             [&](std::size_t begin, std::size_t end) {
                               label_rows(points.row(begin).data(),
                                          end - begin, labels.data() + begin);
                             });
  return labels;
}

void Model::label_rows(const double* x, std::size_t rows, int* labels) const {
  // Per-thread scratch that only ever grows, so labelling allocates nothing
  // once a thread has seen the model's width.
  thread_local std::vector<double> projected;
  thread_local std::vector<std::uint32_t> coord;
  constexpr std::size_t kBlock = 256;  // projected rows stay in L1
  const std::size_t width =
      uses_projection() ? projection_.cols() : input_dims_;
  coord.resize(kept_dims_.size());
  const std::size_t need =
      uses_projection() ? std::min(rows, kBlock) * width : 0;
  if (projected.size() < need) projected.resize(need);
  for (std::size_t b = 0; b < rows; b += kBlock) {
    const std::size_t n = std::min(kBlock, rows - b);
    const double* v = x + b * input_dims_;
    if (uses_projection()) {
      project_rows(v, n, input_dims_, projection_.flat().data(), width,
                   projected.data());
      v = projected.data();
    }
    for (std::size_t i = 0; i < n; ++i) {
      const double* row = v + i * width;
      for (std::size_t k = 0; k < kept_dims_.size(); ++k) {
        const auto j = static_cast<std::size_t>(kept_dims_[k]);
        const auto key = key_of(row[j], ranges_[j], depths_[k]);
        coord[k] = partitions_[k].primary_of(key);
      }
      labels[b + i] = label_of_cell(coord);
    }
  }
}

void Model::serialize(ByteWriter& w) const {
  w.write<std::uint64_t>(input_dims_);
  w.write<std::uint64_t>(projection_.rows());
  w.write<std::uint64_t>(projection_.cols());
  w.write_span(projection_.flat());
  w.write_vec(depths_);
  w.write_vec(kept_dims_);
  w.write<std::uint64_t>(ranges_.size());
  for (const auto& r : ranges_) {
    w.write(r.lo);
    w.write(r.hi);
  }
  write_partitions(w, partitions_);
  w.write<std::uint64_t>(cells_.size());
  for (const auto& c : cells_) {
    w.write_vec(c.coord);
    w.write(c.density);
    w.write<std::int32_t>(c.label);
  }
  w.write(score_);
  w.write<std::int32_t>(n_clusters_);
}

Model Model::deserialize(ByteReader& r) {
  Model m;
  m.input_dims_ = r.read<std::uint64_t>();
  const auto prows = r.read<std::uint64_t>();
  const auto pcols = r.read<std::uint64_t>();
  auto flat = r.read_vec<double>();
  // The projection kernel and fused keys assume finite matrices and ranges;
  // a CRC-valid but non-finite model would key inf/inf = NaN.
  KB2_CHECK_MSG(std::ranges::all_of(flat,
                                    [](double v) { return std::isfinite(v); }),
                "model projection holds a non-finite value");
  if (prows * pcols > 0) {
    m.projection_ = Matrix(prows, pcols, std::move(flat));
  }
  m.depths_ = r.read_vec<int>();
  m.kept_dims_ = r.read_vec<int>();
  const auto n_ranges = r.read<std::uint64_t>();
  m.ranges_.resize(n_ranges);
  for (std::size_t j = 0; j < m.ranges_.size(); ++j) {
    auto& range = m.ranges_[j];
    range.lo = r.read<double>();
    range.hi = r.read<double>();
    KB2_CHECK_MSG(std::isfinite(range.lo) && std::isfinite(range.hi),
                  "model range " << j << " [" << range.lo << ", " << range.hi
                                 << "] is not finite");
  }
  m.partitions_ = read_partitions(r);
  const auto n_cells = r.read<std::uint64_t>();
  m.cells_.resize(n_cells);
  for (auto& c : m.cells_) {
    c.coord = r.read_vec<std::uint32_t>();
    c.density = r.read<double>();
    c.label = r.read<std::int32_t>();
  }
  m.score_ = r.read<double>();
  m.n_clusters_ = r.read<std::int32_t>();
  m.check_shape();
  return m;
}

}  // namespace keybin2::core
