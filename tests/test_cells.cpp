#include "core/cells.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <set>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace keybin2::core {
namespace {

/// Keys clustered around a few centres per dimension, so cells repeat.
KeyTable clustered_keys(std::size_t points, std::size_t dims, int d_max,
                        std::uint64_t seed) {
  KeyTable keys(points, dims, d_max);
  Rng rng(seed);
  const double bins = static_cast<double>(std::uint32_t{1} << d_max);
  for (std::size_t i = 0; i < points; ++i) {
    for (std::size_t j = 0; j < dims; ++j) {
      const double centre = rng.uniform() < 0.5 ? 0.25 : 0.7;
      const double x = std::clamp(rng.normal(centre, 0.1), 0.0, 0.999999);
      keys.at(i, j) = static_cast<std::uint32_t>(x * bins);
    }
  }
  return keys;
}

/// A partition of 2^depth bins into `primaries` primaries at random cuts.
DimensionPartition random_partition(int depth, std::size_t primaries,
                                    Rng& rng) {
  DimensionPartition p;
  p.bins = std::size_t{1} << depth;
  std::set<std::size_t> cuts;
  while (cuts.size() + 1 < primaries) {
    cuts.insert(1 + static_cast<std::size_t>(rng.uniform() *
                                             static_cast<double>(p.bins - 1)));
  }
  p.cuts.assign(cuts.begin(), cuts.end());
  return p;
}

struct Shape {
  std::vector<int> kept_dims;
  std::vector<int> depths;
  std::vector<DimensionPartition> partitions;
};

Shape make_shape(std::vector<int> kept_dims, std::vector<int> depths,
                 std::size_t primaries, std::uint64_t seed) {
  Shape s;
  Rng rng(seed);
  for (const int d : depths) {
    s.partitions.push_back(random_partition(d, primaries, rng));
  }
  s.kept_dims = std::move(kept_dims);
  s.depths = std::move(depths);
  return s;
}

/// Same cells, same order, bit-equal masses.
void expect_same_cells(const CellMap& got, const CellMap& want) {
  ASSERT_EQ(got.size(), want.size());
  auto g = got.begin();
  for (const auto& [coord, mass] : want) {
    EXPECT_EQ(g->first, coord);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(g->second),
              std::bit_cast<std::uint64_t>(mass))
        << "cell of mass " << mass;
    ++g;
  }
}

void expect_counts_match(const KeyTable& keys, const Shape& s, double weight,
                         CellTable expected_table) {
  ASSERT_EQ(cell_table_for(s.partitions, keys.points()), expected_table);
  expect_same_cells(
      count_cells(keys, s.kept_dims, s.partitions, s.depths, weight),
      count_cells_by_coord(keys, s.kept_dims, s.partitions, s.depths,
                           weight));
}

TEST(CountCells, FlatTableMatchesCoordinateCounter) {
  const auto keys = clustered_keys(3000, 6, 10, 1);
  // 3 kept dims of 4 primaries: an id space of 64 <= 3000 points.
  const auto s = make_shape({0, 2, 5}, {6, 6, 6}, 4, 2);
  expect_counts_match(keys, s, 1.0, CellTable::kFlat);
}

TEST(CountCells, FractionalWeightsAddInPointOrder) {
  // 0.1 is inexact, so a mass summed point by point differs in its last
  // bits from count * 0.1: bit equality pins the summation order.
  const auto keys = clustered_keys(5000, 4, 12, 3);
  const auto s = make_shape({0, 1, 3}, {4, 9, 12}, 3, 4);
  expect_counts_match(keys, s, 0.1, CellTable::kFlat);
  expect_counts_match(keys, s, 4096.0 / 3.0, CellTable::kFlat);
}

TEST(CountCells, HashTableMatchesCoordinateCounter) {
  const auto keys = clustered_keys(400, 8, 12, 5);
  // 6 kept dims of 7 primaries: an id space of 117,649 > 400 points.
  const auto s = make_shape({0, 1, 2, 4, 6, 7}, {12, 12, 12, 12, 12, 12}, 7, 6);
  expect_counts_match(keys, s, 1.0, CellTable::kHash);
  // Per-dimension depths and a fractional weight, through enough distinct
  // cells to grow the table several times.
  const auto wide = clustered_keys(4096, 8, 12, 7);
  const auto t = make_shape({0, 1, 2, 3, 4, 5, 6, 7},
                            {3, 5, 7, 9, 11, 12, 8, 6}, 5, 8);
  expect_counts_match(wide, t, 1e6 / 4096.0, CellTable::kHash);
}

TEST(CountCells, IdSpaceBeyond64BitsFallsBackToCoordinates) {
  // 20 kept dims of 16 primaries: 16^20 = 2^80 ids.
  const auto keys = clustered_keys(300, 20, 8, 9);
  std::vector<int> kept(20);
  for (int k = 0; k < 20; ++k) kept[static_cast<std::size_t>(k)] = k;
  const auto s = make_shape(kept, std::vector<int>(20, 8), 16, 10);
  expect_counts_match(keys, s, 1.0, CellTable::kCoordinates);
  expect_counts_match(keys, s, 0.3, CellTable::kCoordinates);
}

TEST(CountCells, EmptyShardsAndTheSmallestFlatCount) {
  const KeyTable keys(0, 20, 8);
  const auto hash = make_shape({0, 3}, {8, 8}, 5, 11);
  expect_counts_match(keys, hash, 1.0, CellTable::kHash);
  std::vector<int> kept(20);
  for (int k = 0; k < 20; ++k) kept[static_cast<std::size_t>(k)] = k;
  const auto wide = make_shape(kept, std::vector<int>(20, 8), 16, 12);
  expect_counts_match(keys, wide, 1.0, CellTable::kCoordinates);
  // A flat table needs at least one point per id, so it never serves an
  // empty shard; one point and a single id is the smallest flat count.
  const auto flat = make_shape({1}, {4}, 1, 13);
  expect_counts_match(clustered_keys(1, 2, 8, 19), flat, 1.0,
                      CellTable::kFlat);
}

TEST(CountCells, EveryTailArityAndColumnLayoutMatchesCoordinates) {
  // The id kernel takes four points per step and leaves the rest to a
  // scalar tail, so point counts sit on both sides of multiples of 4. Kept
  // columns are an out-of-order, non-contiguous subset of a 12-column table,
  // and depth d_max (shift 0) sits beside shallow depths.
  constexpr int kDMax = 10;
  const std::vector<int> columns{10, 1, 7, 3, 11, 5, 0, 8, 4};
  const std::vector<int> depths{kDMax, 3, 7, 4, kDMax, 5, 9, 3, 6};
  int tail_flat = 0, tail_hash = 0;
  for (const std::size_t points : {0, 1, 3, 4, 5, 7, 4097}) {
    const auto keys = clustered_keys(points, 12, kDMax, 30 + points);
    for (std::size_t arity = 1; arity <= columns.size(); ++arity) {
      const std::vector<int> kept(columns.begin(),
                                  columns.begin() + static_cast<long>(arity));
      const std::vector<int> at(depths.begin(),
                                depths.begin() + static_cast<long>(arity));
      for (const std::size_t primaries : {1, 2, 5}) {
        const auto s = make_shape(kept, at, primaries, points + arity);
        const auto table = cell_table_for(s.partitions, points);
        ASSERT_NE(table, CellTable::kCoordinates);
        if (points % 4 != 0) {
          (table == CellTable::kFlat ? tail_flat : tail_hash) += 1;
        }
        SCOPED_TRACE(::testing::Message() << points << " points, arity "
                                          << arity << ", " << primaries
                                          << " primaries");
        expect_counts_match(keys, s, 1.0, table);
        expect_counts_match(keys, s, 0.1, table);
      }
    }
  }
  // Both tables counted ids that came out of the scalar tail.
  EXPECT_GT(tail_flat, 0);
  EXPECT_GT(tail_hash, 0);
}

TEST(CountCells, UniformDepthOverloadMatchesVector) {
  const auto keys = clustered_keys(1000, 3, 9, 14);
  const auto s = make_shape({0, 1, 2}, {7, 7, 7}, 4, 15);
  EXPECT_EQ(count_cells(keys, s.kept_dims, s.partitions, 7),
            count_cells(keys, s.kept_dims, s.partitions, s.depths));
}

TEST(CountCells, PartitionMustCoverTheDepth) {
  const auto keys = clustered_keys(10, 2, 8, 16);
  auto s = make_shape({0, 1}, {6, 6}, 3, 17);
  s.partitions[1].bins = 32;  // 2^5 bins cannot index depth-6 keys
  EXPECT_THROW(count_cells(keys, s.kept_dims, s.partitions, s.depths), Error);
  s = make_shape({0, 1}, {9, 9}, 3, 17);  // deeper than d_max 8
  EXPECT_THROW(count_cells(keys, s.kept_dims, s.partitions, s.depths), Error);
  s = make_shape({0, 2}, {6, 6}, 3, 17);  // no column 2
  EXPECT_THROW(count_cells(keys, s.kept_dims, s.partitions, s.depths), Error);
}

// ---- Gather blob and root merge ----

TEST(CellBlob, MergeAddsRanksInOrder) {
  const auto s = make_shape({0, 1, 2}, {8, 8, 8}, 4, 18);
  CellMap merged;
  CellMap expected;  // masses added rank by rank
  for (std::uint64_t rank = 0; rank < 4; ++rank) {
    const auto keys = clustered_keys(rank == 2 ? 0 : 500, 3, 8, 20 + rank);
    const double weight = 1.0 + 0.1 * static_cast<double>(rank);
    const auto cells =
        count_cells(keys, s.kept_dims, s.partitions, s.depths, weight);
    merge_cells(merged, serialize_cells(cells));
    for (const auto& [coord, mass] : cells) expected[coord] += mass;
  }
  expect_same_cells(merged, expected);
}

TEST(CellBlob, TruncatedBlobThrows) {
  const CellMap cells = {{{0, 1}, 1.0}, {{1, 0}, 2.0}};
  const auto bytes = serialize_cells(cells);
  for (const std::size_t keep : {std::size_t{0}, std::size_t{5},
                                 bytes.size() / 2, bytes.size() - 1}) {
    CellMap into;
    EXPECT_THROW(merge_cells(into, std::span(bytes).first(keep)), Error)
        << keep << " of " << bytes.size() << " bytes";
  }
}

}  // namespace
}  // namespace keybin2::core
