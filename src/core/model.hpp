// The clustering model KeyBin2 learns (paper §3, steps 4-5).
//
// A model is: a projection matrix, the per-dimension key ranges, the subset
// of projected dimensions that survived KS collapsing, one DimensionPartition
// per kept dimension, and the set of occupied cells. A cell is a tuple of
// per-dimension primary-cluster indices — the paper's "primary clusters ...
// analogous to a space map where keys can be directly assigned to form global
// clusters". Models are small (histogram-scale, never point-scale), cheap to
// broadcast, and can label new points without any other state.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/matrix.hpp"
#include "common/serialize.hpp"
#include "core/keys.hpp"
#include "core/partitioner.hpp"

namespace keybin2::core {

/// An occupied cell of the primary-cluster grid.
struct Cell {
  std::vector<std::uint32_t> coord;  // per kept dimension, primary index
  double density = 0.0;              // number of points observed in the cell
  int label = -1;                    // final cluster label
};

class Model {
 public:
  Model() = default;

  /// Build a model. `cells` densities must be global (already merged across
  /// ranks). Labels are assigned densest-first; cells holding fewer than
  /// `min_cluster_fraction` of `total_points` are absorbed into the nearest
  /// (L1 in primary space) surviving cell. The uniform-depth overload keys
  /// every kept dimension at the same level; the vector overload supports
  /// per-dimension depths (one per kept dimension).
  Model(std::size_t input_dims, Matrix projection, int depth,
        std::vector<int> kept_dims, std::vector<Range> ranges,
        std::vector<DimensionPartition> partitions, std::vector<Cell> cells,
        double score, double total_points, double min_cluster_fraction);
  Model(std::size_t input_dims, Matrix projection, std::vector<int> depths,
        std::vector<int> kept_dims, std::vector<Range> ranges,
        std::vector<DimensionPartition> partitions, std::vector<Cell> cells,
        double score, double total_points, double min_cluster_fraction);

  std::size_t input_dims() const { return input_dims_; }
  bool uses_projection() const { return !projection_.empty(); }
  const Matrix& projection() const { return projection_; }

  /// Key depth of the deepest kept dimension (0 for a dimensionless model).
  int depth() const;

  /// Per-kept-dimension key depths.
  const std::vector<int>& depths() const { return depths_; }

  const std::vector<int>& kept_dims() const { return kept_dims_; }
  const std::vector<Range>& ranges() const { return ranges_; }
  const std::vector<DimensionPartition>& partitions() const {
    return partitions_;
  }
  const std::vector<Cell>& cells() const { return cells_; }
  double score() const { return score_; }

  /// Number of distinct cluster labels (after absorption).
  int n_clusters() const { return n_clusters_; }

  /// Cluster label for a raw input point (projects, keys, and maps through
  /// the primary grid; unseen cells snap to the nearest occupied cell).
  /// Allocates nothing once the calling thread has labelled a point.
  int predict(std::span<const double> x) const;

  /// Labels for every row of `points` (parallel; rows are projected in
  /// blocks through the shared kernel).
  std::vector<int> predict(const Matrix& points) const;

  /// Label for a precomputed cell coordinate (nearest occupied cell when the
  /// exact cell was never observed).
  int label_of_cell(std::span<const std::uint32_t> coord) const;

  void serialize(ByteWriter& w) const;
  /// Throws keybin2::Error on bytes that do not form a model of consistent
  /// shape (see check_shape).
  static Model deserialize(ByteReader& r);

 private:
  /// Shape checks shared by the constructor and deserialize: one depth and
  /// partition per kept dimension, cells of that arity, kept dimensions
  /// inside the projected space.
  void check_shape() const;

  /// Label `rows` contiguous input rows into `labels` (kept dims nonempty).
  void label_rows(const double* x, std::size_t rows, int* labels) const;

  std::size_t input_dims_ = 0;
  Matrix projection_;  // empty => identity (ablation mode)
  std::vector<int> depths_;  // one per kept dimension
  std::vector<int> kept_dims_;
  std::vector<Range> ranges_;  // one per projected dimension
  std::vector<DimensionPartition> partitions_;  // one per kept dimension
  std::vector<Cell> cells_;                     // sorted by density desc
  double score_ = 0.0;
  int n_clusters_ = 0;
};

}  // namespace keybin2::core
