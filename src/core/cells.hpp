// Occupied-cell bookkeeping shared by the batch and streaming pipelines.
//
// A cell is identified by its per-dimension primary-cluster indices; its
// density is the (possibly weighted) number of points observed inside it.
// Cell maps are rank-local and merged at the root — like histograms, they
// are histogram-scale objects, never point-scale.
//
// Counting packs a cell's coordinate into one mixed-radix uint64 id, the
// first kept dimension most significant (digit k has radix
// partitions[k].primary_count()), so ascending ids are lexicographic
// coordinate order. Each kept dimension gets a per-candidate table mapping a
// bin straight to its primary's contribution to the id; one gather kernel
// (cell_ids, core/fused.hpp) computes every point's id from those tables,
// and the ids are then counted in point order, in a flat array when the id
// space is no larger than the shard, in an open-addressing table otherwise.
// An id space beyond 64 bits falls back to the coordinate-vector counter
// (count_cells_by_coord).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "core/keys.hpp"
#include "core/model.hpp"
#include "core/partitioner.hpp"

namespace keybin2::core {

using CellMap = std::map<std::vector<std::uint32_t>, double>;

/// Count local occupied cells from a key table at `depth`, with an optional
/// per-point weight (streaming scales reservoir points to stream mass),
/// added once per point, in point order.
CellMap count_cells(const KeyTable& keys, const std::vector<int>& kept_dims,
                    const std::vector<DimensionPartition>& partitions,
                    int depth, double weight_per_point = 1.0);

/// Per-dimension-depth variant: depths[k] keys kept_dims[k], whose partition
/// must have 2^depths[k] bins with depths[k] <= keys.d_max().
CellMap count_cells(const KeyTable& keys, const std::vector<int>& kept_dims,
                    const std::vector<DimensionPartition>& partitions,
                    std::span<const int> depths,
                    double weight_per_point = 1.0);

/// The table count_cells counts into for a shard of `points` points.
enum class CellTable {
  kFlat,         // id space <= points: one slot per possible id
  kHash,         // open addressing keyed by the id
  kCoordinates,  // id space overflows 64 bits: count_cells_by_coord
};
CellTable cell_table_for(const std::vector<DimensionPartition>& partitions,
                         std::size_t points);

/// Coordinate-vector counter: the coordinate of every point looked up in the
/// map. count_cells' fallback beyond 64-bit ids, and the reference the
/// packed counter is tested against.
CellMap count_cells_by_coord(const KeyTable& keys,
                             const std::vector<int>& kept_dims,
                             const std::vector<DimensionPartition>& partitions,
                             std::span<const int> depths,
                             double weight_per_point = 1.0);

std::vector<std::byte> serialize_cells(const CellMap& cells);
void merge_cells(CellMap& into, std::span<const std::byte> bytes);

/// Coreset of a weighted cell map (comm/coreset.hpp sampler over map
/// order): at most `max_cells` cells survive, cells holding at least
/// `epsilon` of the total density are kept exactly, and the sampled light
/// cells are reweighted so total density is preserved. Used by the kCoreset
/// comm mode to cap the assess-stage gather the same way the histogram
/// merge is capped. `mass_dropped` (optional) receives the original density
/// of the cells sampled away.
CellMap coreset_cells(const CellMap& cells, std::size_t max_cells,
                      double epsilon, std::uint64_t seed,
                      double* mass_dropped = nullptr);

/// Flatten to the Model's Cell representation (labels unassigned).
std::vector<Cell> to_cell_vector(const CellMap& cells);

}  // namespace keybin2::core
