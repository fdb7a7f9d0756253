#include "core/keys.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace keybin2::core {
namespace {

TEST(KeyOf, PartitionsRangeEvenly) {
  const Range r{0.0, 8.0};
  EXPECT_EQ(key_of(0.5, r, 3), 0u);
  EXPECT_EQ(key_of(1.5, r, 3), 1u);
  EXPECT_EQ(key_of(7.5, r, 3), 7u);
}

TEST(KeyOf, ClampsOutOfRange) {
  const Range r{0.0, 1.0};
  EXPECT_EQ(key_of(-5.0, r, 4), 0u);
  EXPECT_EQ(key_of(5.0, r, 4), 15u);
  EXPECT_EQ(key_of(1.0, r, 4), 15u);
  EXPECT_EQ(key_of(0.0, r, 4), 0u);
}

TEST(KeyOf, InfinitiesClampAndNaNThrows) {
  const Range r{0.0, 1.0};
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(key_of(-inf, r, 4), 0u);
  EXPECT_EQ(key_of(inf, r, 4), 15u);
  EXPECT_THROW(key_of(std::numeric_limits<double>::quiet_NaN(), r, 4), Error);
}

TEST(KeyOf, DepthValidation) {
  const Range r{0.0, 1.0};
  EXPECT_THROW(key_of(0.5, r, 0), Error);
  EXPECT_THROW(key_of(0.5, r, 25), Error);
  EXPECT_THROW(key_of(0.5, Range{1.0, 1.0}, 3), Error);
}

TEST(KeyOf, MonotoneInValue) {
  // The hierarchical key respects ordering: x <= y implies key(x) <= key(y).
  const Range r{-3.0, 7.0};
  Rng rng(3);
  for (int trial = 0; trial < 1000; ++trial) {
    const double x = rng.uniform(-4.0, 8.0);
    const double y = rng.uniform(-4.0, 8.0);
    const auto kx = key_of(std::min(x, y), r, 7);
    const auto ky = key_of(std::max(x, y), r, 7);
    EXPECT_LE(kx, ky);
  }
}

TEST(KeyAtDepth, PrefixProperty) {
  // The key at depth d is the length-d prefix of the binary path: coarsening
  // is a right shift, and a parent bin contains its children.
  const Range r{0.0, 1.0};
  Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    const double x = rng.uniform();
    const auto deep = key_of(x, r, 8);
    for (int d = 1; d <= 8; ++d) {
      EXPECT_EQ(key_at_depth(deep, 8, d), key_of(x, r, d));
    }
  }
}

TEST(KeyTable, StoresPerPointPerDim) {
  KeyTable t(3, 2, 5);
  EXPECT_EQ(t.points(), 3u);
  EXPECT_EQ(t.dims(), 2u);
  t.at(2, 1) = 17;
  EXPECT_EQ(t.at(2, 1), 17u);
  EXPECT_EQ(t.at_depth(2, 1, 4), 8u);  // 17 >> 1
}

TEST(ComputeKeys, MatchesScalarKeyOf) {
  Rng rng(7);
  Matrix points(50, 3);
  for (auto& v : points.flat()) v = rng.uniform(-10.0, 10.0);
  const std::vector<Range> ranges{{-10.0, 10.0}, {-10.0, 10.0}, {-10.0, 10.0}};
  const auto table = compute_keys(points, ranges, 6);
  for (std::size_t i = 0; i < 50; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(table.at(i, j), key_of(points(i, j), ranges[j], 6));
    }
  }
}

TEST(ComputeKeys, ValidatesRangeCount) {
  Matrix points(2, 3);
  EXPECT_THROW(compute_keys(points, {{0.0, 1.0}}, 4), Error);
}

TEST(ComputeKeys, IndependentPerDimensionRanges) {
  Matrix points(1, 2, {5.0, 50.0});
  const std::vector<Range> ranges{{0.0, 10.0}, {0.0, 100.0}};
  const auto table = compute_keys(points, ranges, 1);
  EXPECT_EQ(table.at(0, 0), 1u);  // 5 in upper half of [0,10)
  EXPECT_EQ(table.at(0, 1), 1u);  // 50 in upper half of [0,100)
}

TEST(FormatKey, ConcatenatesPerDimensionBins) {
  // The paper's example: bins "35", "64", "06" concatenate to one key.
  KeyTable t(1, 3, 7);
  t.at(0, 0) = 35;
  t.at(0, 1) = 64;
  t.at(0, 2) = 6;
  EXPECT_EQ(format_key(t, 0, 7), "35.64.6");
  EXPECT_EQ(format_key(t, 0, 6), "17.32.3");  // one level coarser
}

TEST(KeyTable, EmptyTable) {
  KeyTable t;
  EXPECT_EQ(t.points(), 0u);
  EXPECT_EQ(t.dims(), 0u);
}

}  // namespace
}  // namespace keybin2::core
