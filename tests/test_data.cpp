#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <set>

#include "common/error.hpp"
#include "data/dataset.hpp"
#include "data/gaussian_mixture.hpp"
#include "data/io.hpp"
#include "data/partition.hpp"
#include "data/shapes.hpp"
#include "test_util.hpp"

namespace keybin2::data {
namespace {

TEST(GaussianMixture, SampleHasRequestedShape) {
  const auto spec = make_paper_mixture(10, 4, 1);
  const auto d = sample(spec, 500, 2);
  EXPECT_EQ(d.size(), 500u);
  EXPECT_EQ(d.dims(), 10u);
  EXPECT_EQ(d.labels.size(), 500u);
}

TEST(GaussianMixture, AllComponentsGetSamples) {
  const auto spec = make_paper_mixture(5, 4, 3);
  const auto d = sample(spec, 1000, 4);
  std::set<int> seen(d.labels.begin(), d.labels.end());
  EXPECT_EQ(seen.size(), 4u);
  for (int l : seen) {
    EXPECT_GE(l, 0);
    EXPECT_LT(l, 4);
  }
}

TEST(GaussianMixture, PointsClusterAroundTheirComponentMean) {
  const auto spec = make_paper_mixture(8, 3, 5, /*separation=*/20.0);
  const auto d = sample(spec, 600, 6);
  for (std::size_t i = 0; i < d.size(); ++i) {
    const auto& comp = spec.components[static_cast<std::size_t>(d.labels[i])];
    auto row = d.points.row(i);
    double dist2 = 0.0;
    for (std::size_t j = 0; j < d.dims(); ++j) {
      const double dd = row[j] - comp.mean[j];
      dist2 += dd * dd;
    }
    // Within ~6 sigma in every dim => far below the 20-unit separation.
    EXPECT_LT(std::sqrt(dist2 / static_cast<double>(d.dims())), 6.0);
  }
}

TEST(GaussianMixture, DeterministicInSeed) {
  const auto spec = make_paper_mixture(4, 2, 7);
  const auto a = sample(spec, 100, 8);
  const auto b = sample(spec, 100, 8);
  EXPECT_TRUE(a.points == b.points);
  EXPECT_EQ(a.labels, b.labels);
}

TEST(GaussianMixture, WeightsBiasComponentChoice) {
  GaussianMixtureSpec spec;
  spec.components.push_back({{0.0}, {1.0}, 9.0});
  spec.components.push_back({{10.0}, {1.0}, 1.0});
  const auto d = sample(spec, 10000, 9);
  const auto heavy = static_cast<std::size_t>(
      std::count(d.labels.begin(), d.labels.end(), 0));
  EXPECT_NEAR(static_cast<double>(heavy) / 10000.0, 0.9, 0.02);
}

TEST(GaussianMixture, RedundantDimensionsAreShared) {
  const auto spec = make_redundant_mixture(10, 3, 4, 11);
  for (std::size_t j = 3; j < 10; ++j) {
    for (std::size_t c = 1; c < 4; ++c) {
      EXPECT_EQ(spec.components[c].mean[j], spec.components[0].mean[j]);
      EXPECT_EQ(spec.components[c].stddev[j], spec.components[0].stddev[j]);
    }
  }
  EXPECT_THROW(make_redundant_mixture(5, 6, 2, 1), Error);
}

TEST(Shapes, CorrelatedPairOverlapsAxisProjections) {
  const auto d = correlated_pair(500, 3.0, 13);
  EXPECT_EQ(d.size(), 1000u);
  // Both clusters span overlapping x ranges (that's the point of Figure 1).
  double min1 = 1e9, max0 = -1e9;
  for (std::size_t i = 0; i < d.size(); ++i) {
    if (d.labels[i] == 0) max0 = std::max(max0, d.points(i, 0));
    if (d.labels[i] == 1) min1 = std::min(min1, d.points(i, 0));
  }
  EXPECT_LT(min1, max0);  // projections overlap on x
}

TEST(Shapes, BoxesRespectGeometry) {
  const auto d = boxes(4, 100, 1.0, 5.0, 17);
  EXPECT_EQ(d.size(), 400u);
  EXPECT_THROW(boxes(4, 10, 5.0, 4.0, 17), Error);
}

TEST(Shapes, RingsHaveIncreasingRadii) {
  const auto d = rings(2, 300, 5.0, 0.1, 19);
  for (std::size_t i = 0; i < d.size(); ++i) {
    const double r = std::hypot(d.points(i, 0), d.points(i, 1));
    if (d.labels[i] == 0) EXPECT_NEAR(r, 5.0, 1.0);
    if (d.labels[i] == 1) EXPECT_NEAR(r, 10.0, 1.0);
  }
}

TEST(Shapes, MoonsAreLabelled) {
  const auto d = moons(250, 0.05, 23);
  EXPECT_EQ(d.size(), 500u);
  EXPECT_EQ(std::count(d.labels.begin(), d.labels.end(), 0), 250);
}

TEST(Normalize, MapsToUnitInterval) {
  Matrix m(3, 2, {0.0, 10.0, 5.0, 20.0, 10.0, 30.0});
  const auto bounds = minmax_normalize(m);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(m(2, 0), 1.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 0.5);
  EXPECT_DOUBLE_EQ(bounds[0].first, 0.0);
  EXPECT_DOUBLE_EQ(bounds[0].second, 10.0);
}

TEST(Normalize, ConstantColumnMapsToHalf) {
  Matrix m(2, 1, {4.0, 4.0});
  minmax_normalize(m);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(m(1, 0), 0.5);
}

TEST(Concat, JoinsPointsAndLabels) {
  Dataset a, b;
  a.points = Matrix(2, 2, {1, 2, 3, 4});
  a.labels = {0, 1};
  b.points = Matrix(1, 2, {5, 6});
  b.labels = {2};
  const auto c = concat({a, b});
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c.labels, (std::vector<int>{0, 1, 2}));
}

TEST(Concat, UnlabelledPartDropsLabels) {
  Dataset a, b;
  a.points = Matrix(1, 1, {1.0});
  a.labels = {0};
  b.points = Matrix(1, 1, {2.0});
  const auto c = concat({a, b});
  EXPECT_EQ(c.size(), 2u);
  EXPECT_FALSE(c.labelled());
}

TEST(Partition, BalancedRanges) {
  const auto ranges = partition_rows(10, 3);
  ASSERT_EQ(ranges.size(), 3u);
  EXPECT_EQ(ranges[0].count(), 4u);
  EXPECT_EQ(ranges[1].count(), 3u);
  EXPECT_EQ(ranges[2].count(), 3u);
  EXPECT_EQ(ranges[0].begin, 0u);
  EXPECT_EQ(ranges[2].end, 10u);
}

TEST(Partition, MoreRanksThanRows) {
  const auto ranges = partition_rows(2, 4);
  EXPECT_EQ(ranges[0].count(), 1u);
  EXPECT_EQ(ranges[1].count(), 1u);
  EXPECT_EQ(ranges[2].count(), 0u);
  EXPECT_EQ(ranges[3].count(), 0u);
}

TEST(Partition, ShardReassemblesToOriginal) {
  const auto spec = make_paper_mixture(3, 2, 29);
  const auto d = sample(spec, 101, 30);
  const auto shards = shard(d, 4);
  const auto rejoined = concat(shards);
  EXPECT_TRUE(rejoined.points == d.points);
  EXPECT_EQ(rejoined.labels, d.labels);
}

TEST(Io, CsvRoundtrip) {
  const auto spec = make_paper_mixture(3, 2, 31);
  const auto d = sample(spec, 50, 32);
  const std::string path = "/tmp/kb2_test_roundtrip.csv";
  write_csv(d, path);
  const auto back = read_csv(path);
  EXPECT_EQ(back.size(), d.size());
  EXPECT_EQ(back.dims(), d.dims());
  EXPECT_EQ(back.labels, d.labels);
  for (std::size_t i = 0; i < d.size(); ++i) {
    for (std::size_t j = 0; j < d.dims(); ++j) {
      EXPECT_DOUBLE_EQ(back.points(i, j), d.points(i, j));
    }
  }
  std::remove(path.c_str());
}

TEST(Io, CsvUnlabelledRoundtrip) {
  Dataset d;
  d.points = Matrix(2, 2, {1.5, -2.5, 3.5, 4.5});
  const std::string path = "/tmp/kb2_test_unlabelled.csv";
  write_csv(d, path);
  const auto back = read_csv(path);
  EXPECT_FALSE(back.labelled());
  EXPECT_TRUE(back.points == d.points);
  std::remove(path.c_str());
}

TEST(Io, BinaryRoundtripIsExact) {
  const auto spec = make_paper_mixture(7, 3, 33);
  const auto d = sample(spec, 128, 34);
  const std::string path = "/tmp/kb2_test_roundtrip.bin";
  write_binary(d, path);
  const auto back = read_binary(path);
  EXPECT_TRUE(back.points == d.points);
  EXPECT_EQ(back.labels, d.labels);
  std::remove(path.c_str());
}

TEST(Io, MissingFileThrows) {
  EXPECT_THROW(read_csv("/tmp/kb2_does_not_exist.csv"), Error);
  EXPECT_THROW(read_binary("/tmp/kb2_does_not_exist.bin"), Error);
}

TEST(Io, WrongMagicRejected) {
  const std::string path = "/tmp/kb2_bad_magic.bin";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    const char junk[32] = "not a dataset";
    std::fwrite(junk, 1, sizeof(junk), f);
    std::fclose(f);
  }
  EXPECT_THROW(read_binary(path), Error);
  std::remove(path.c_str());

  // A header whose counts disagree with the file is refused before any
  // allocation it would size.
  testutil::TempPaths tmp;
  for (const auto& bad : testutil::bad_dataset_files(tmp)) {
    EXPECT_THROW(read_binary(bad), Error) << bad;
  }
}

std::string write_text(testutil::TempPaths& tmp, const std::string& body) {
  const std::string path = tmp.make("kb2_test_cells", ".csv");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  return path;
}

TEST(Io, CsvCellsParseInFullOrThrow) {
  testutil::TempPaths tmp;
  // What std::stod / std::stoi read as a whole cell stays accepted,
  // surrounding spaces and a CRLF line end included.
  {
    const auto d = read_csv(
        write_text(tmp, "f0,f1,label\n 1.5 ,-2e1,  3 \n+4,inf,-7\n"));
    EXPECT_TRUE(d.points == Matrix(2, 2, {1.5, -20.0, 4.0, INFINITY}));
    EXPECT_EQ(d.labels, (std::vector<int>{3, -7}));
    const auto crlf = read_csv(write_text(tmp, "f0,f1\r\n0.25,8\r\n"));
    EXPECT_TRUE(crlf.points == Matrix(1, 2, {0.25, 8.0}));
  }
  // Anything else names the file, line and column.
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"f0,f1,label\n1,2,0\n3,abc,1\n", ":3:2:"},
      {"f0,f1,label\n1,2,0\n1.0x,4,1\n", ":3:1:"},
      {"f0,f1,label\n1,2,1.9\n", ":2:3:"},
      {"f0,f1,label\n1,2,x\n", ":2:3:"},
      {"f0,f1,label\n1,,0\n", ":2:2:"},
      {"f0,f1,label\n1,1e999,0\n", ":2:2:"},
      {"f0,f1,label\n1,2,99999999999\n", ":2:3:"},
      {"f0,f1\n1,2 3\n", ":2:2:"},
  };
  for (const auto& [body, where] : bad) {
    const std::string path = write_text(tmp, body);
    try {
      (void)read_csv(path);
      ADD_FAILURE() << "accepted: " << body;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(path + where), std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace keybin2::data
