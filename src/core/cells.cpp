#include "core/cells.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

#include "comm/coreset.hpp"
#include "common/error.hpp"
#include "common/serialize.hpp"
#include "core/fused.hpp"

namespace keybin2::core {

namespace {

constexpr std::uint64_t kNoId = std::numeric_limits<std::uint64_t>::max();

/// Open-addressing (linear probing) mass table keyed by cell id, grown at
/// half load. Growing moves masses without touching them, so each cell's
/// mass is still its weights summed in point order.
class IdMassTable {
 public:
  IdMassTable() { resize(64); }

  void add(std::uint64_t id, double weight) {
    std::size_t s = find(id);
    if (ids_[s] == kNoId) {
      if (2 * (size_ + 1) > ids_.size()) {
        resize(2 * ids_.size());
        s = find(id);
      }
      ids_[s] = id;
      ++size_;
    }
    masses_[s] += weight;
  }

  /// Occupied (id, mass) pairs in ascending id order.
  std::vector<std::pair<std::uint64_t, double>> sorted() const {
    std::vector<std::pair<std::uint64_t, double>> out;
    out.reserve(size_);
    for (std::size_t s = 0; s < ids_.size(); ++s) {
      if (ids_[s] != kNoId) out.emplace_back(ids_[s], masses_[s]);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  std::size_t find(std::uint64_t id) const {
    // Fibonacci hashing: the top bits of id * 2^64/phi pick the home slot.
    std::size_t s = static_cast<std::size_t>(
        (id * 0x9E3779B97F4A7C15ULL) >> shift_);
    while (ids_[s] != id && ids_[s] != kNoId) s = (s + 1) & (ids_.size() - 1);
    return s;
  }

  void resize(std::size_t capacity) {
    auto old_ids = std::exchange(ids_, std::vector<std::uint64_t>(capacity, kNoId));
    auto old_masses = std::exchange(masses_, std::vector<double>(capacity, 0.0));
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
    for (std::size_t s = 0; s < old_ids.size(); ++s) {
      if (old_ids[s] == kNoId) continue;
      const std::size_t t = find(old_ids[s]);
      ids_[t] = old_ids[s];
      masses_[t] = old_masses[s];
    }
  }

  std::vector<std::uint64_t> ids_;
  std::vector<double> masses_;
  std::size_t size_ = 0;
  unsigned shift_ = 0;
};

}  // namespace

CellTable cell_table_for(const std::vector<DimensionPartition>& partitions,
                         std::size_t points) {
  // The id space is the product of the primary counts. One that fits in 64
  // bits keeps every id below kNoId.
  std::uint64_t space = 1;
  for (const auto& part : partitions) {
    const std::uint64_t radix = part.primary_count();
    if (space > kNoId / radix) return CellTable::kCoordinates;
    space *= radix;
  }
  return space <= points ? CellTable::kFlat : CellTable::kHash;
}

CellMap count_cells(const KeyTable& keys, const std::vector<int>& kept_dims,
                    const std::vector<DimensionPartition>& partitions,
                    int depth, double weight_per_point) {
  const std::vector<int> depths(kept_dims.size(), depth);
  return count_cells(keys, kept_dims, partitions, depths, weight_per_point);
}

CellMap count_cells(const KeyTable& keys, const std::vector<int>& kept_dims,
                    const std::vector<DimensionPartition>& partitions,
                    std::span<const int> depths, double weight_per_point) {
  const std::size_t arity = kept_dims.size();
  KB2_CHECK_MSG(partitions.size() == arity && depths.size() == arity,
                "count_cells: " << partitions.size() << " partitions and "
                                << depths.size() << " depths for " << arity
                                << " kept dims");
  const CellTable table_kind = cell_table_for(partitions, keys.points());
  if (table_kind == CellTable::kCoordinates) {
    return count_cells_by_coord(keys, kept_dims, partitions, depths,
                                weight_per_point);
  }

  // Mixed-radix strides, the first kept dimension most significant.
  std::vector<std::uint64_t> strides(arity);
  std::uint64_t space = 1;
  for (std::size_t k = arity; k-- > 0;) {
    strides[k] = space;
    space *= partitions[k].primary_count();
  }

  // Per kept dimension, a table from the bin at its depth straight to its
  // primary's share of the id. Keys are below 2^d_max, so a table of
  // 2^depth entries covers every index the shift can produce: one check
  // here replaces a bound check per (point, dimension), and is all that
  // bounds the kernel's unchecked gathers.
  std::vector<std::vector<std::uint64_t>> tables(arity);
  std::vector<const std::uint64_t*> entries(arity);
  std::vector<std::size_t> columns(arity);
  std::vector<unsigned> shifts(arity);
  for (std::size_t k = 0; k < arity; ++k) {
    const auto& part = partitions[k];
    KB2_CHECK_MSG(kept_dims[k] >= 0 &&
                      static_cast<std::size_t>(kept_dims[k]) < keys.dims(),
                  "kept dim " << kept_dims[k] << " out of " << keys.dims());
    KB2_CHECK_MSG(depths[k] >= 0 && depths[k] <= keys.d_max() &&
                      part.bins == (std::size_t{1} << depths[k]),
                  "partition of " << part.bins << " bins cannot index keys at "
                                  << "depth " << depths[k] << " (d_max "
                                  << keys.d_max() << ")");
    auto& table = tables[k];
    table.resize(part.bins);
    std::uint64_t primary = 0;
    for (std::size_t b = 0; b < part.bins; ++b) {
      while (primary < part.cuts.size() && part.cuts[primary] <= b) ++primary;
      table[b] = primary * strides[k];
    }
    columns[k] = static_cast<std::size_t>(kept_dims[k]);
    shifts[k] = static_cast<unsigned>(keys.d_max() - depths[k]);
    entries[k] = table.data();
  }
  // Every point's id up front, through the gather kernel: ids are integers,
  // so computing them before the masses changes no bit.
  std::vector<std::uint64_t> ids(keys.points());
  cell_ids(keys, columns.data(), shifts.data(), entries.data(), arity,
           ids.data());

  // Masses add up per cell in point order on either table: streaming
  // weights are fractional, so count * weight would not be bit-equal.
  std::vector<std::pair<std::uint64_t, double>> occupied;
  if (table_kind == CellTable::kFlat) {
    std::vector<double> masses(space, 0.0);
    std::vector<std::uint8_t> hit(space, 0);
    for (const std::uint64_t id : ids) {
      masses[id] += weight_per_point;
      hit[id] = 1;
    }
    for (std::uint64_t id = 0; id < space; ++id) {
      if (hit[id]) occupied.emplace_back(id, masses[id]);
    }
  } else {
    IdMassTable table;
    for (const std::uint64_t id : ids) table.add(id, weight_per_point);
    occupied = table.sorted();
  }

  // Ascending ids decode to lexicographically ascending coordinates, so each
  // cell goes in at the end of the map.
  CellMap cells;
  std::vector<std::uint32_t> coord(arity);
  for (auto [id, mass] : occupied) {
    for (std::size_t k = 0; k < arity; ++k) {
      const std::uint64_t digit = id / strides[k];
      id -= digit * strides[k];
      coord[k] = static_cast<std::uint32_t>(digit);
    }
    cells.emplace_hint(cells.end(), coord, mass);
  }
  return cells;
}

CellMap count_cells_by_coord(const KeyTable& keys,
                             const std::vector<int>& kept_dims,
                             const std::vector<DimensionPartition>& partitions,
                             std::span<const int> depths,
                             double weight_per_point) {
  CellMap cells;
  std::vector<std::uint32_t> coord(kept_dims.size());
  for (std::size_t i = 0; i < keys.points(); ++i) {
    for (std::size_t k = 0; k < kept_dims.size(); ++k) {
      const auto j = static_cast<std::size_t>(kept_dims[k]);
      coord[k] = partitions[k].primary_of(keys.at_depth(i, j, depths[k]));
    }
    cells[coord] += weight_per_point;
  }
  return cells;
}

std::vector<std::byte> serialize_cells(const CellMap& cells) {
  ByteWriter w;
  w.write<std::uint64_t>(cells.size());
  for (const auto& [coord, density] : cells) {
    w.write_vec(coord);
    w.write(density);
  }
  return w.take();
}

void merge_cells(CellMap& into, std::span<const std::byte> bytes) {
  ByteReader r(bytes);
  const auto n = r.read<std::uint64_t>();
  for (std::uint64_t i = 0; i < n; ++i) {
    auto coord = r.read_vec<std::uint32_t>();
    const auto density = r.read<double>();
    into[std::move(coord)] += density;
  }
}

CellMap coreset_cells(const CellMap& cells, std::size_t max_cells,
                      double epsilon, std::uint64_t seed,
                      double* mass_dropped) {
  if (mass_dropped != nullptr) *mass_dropped = 0.0;
  if (cells.size() <= max_cells) return cells;

  // Run the shared weighted sampler over the map's (already deterministic)
  // iteration order, then rebuild the surviving subset.
  std::vector<const CellMap::value_type*> entries;
  std::vector<double> masses;
  entries.reserve(cells.size());
  masses.reserve(cells.size());
  for (const auto& entry : cells) {
    entries.push_back(&entry);
    masses.push_back(entry.second);
  }
  comm::coreset::Options opts;
  opts.max_cells = max_cells;
  opts.epsilon = epsilon;
  opts.seed = seed;
  const auto sel = comm::coreset::select_weighted(masses, opts, seed);

  CellMap out;
  for (const auto& [pos, weight] : sel.kept) {
    out.emplace(entries[pos]->first, weight);
  }
  if (mass_dropped != nullptr) *mass_dropped = sel.mass_dropped;
  return out;
}

std::vector<Cell> to_cell_vector(const CellMap& cells) {
  std::vector<Cell> out;
  out.reserve(cells.size());
  for (const auto& [coord, density] : cells) {
    out.push_back(Cell{coord, density, -1});
  }
  return out;
}

}  // namespace keybin2::core
