#include "core/model.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/projection.hpp"

namespace keybin2::core {
namespace {

/// A hand-built 1-D model over [0, 1]: depth 3 (8 bins), cut at bin 4,
/// two cells.
Model tiny_model(double cell0_density = 100.0, double cell1_density = 50.0,
                 double min_fraction = 0.0) {
  DimensionPartition p;
  p.bins = 8;
  p.cuts = {4};
  std::vector<Cell> cells{Cell{{0}, cell0_density, -1},
                          Cell{{1}, cell1_density, -1}};
  return Model(/*input_dims=*/1, /*projection=*/Matrix(), /*depth=*/3,
               /*kept_dims=*/{0}, /*ranges=*/{Range{0.0, 1.0}},
               /*partitions=*/{p}, std::move(cells), /*score=*/5.0,
               /*total_points=*/cell0_density + cell1_density, min_fraction);
}

TEST(Model, PredictMapsValueThroughPartition) {
  const auto m = tiny_model();
  EXPECT_EQ(m.n_clusters(), 2);
  const double left[] = {0.1};
  const double right[] = {0.9};
  // Densest cell (cell 0, the left half) gets label 0.
  EXPECT_EQ(m.predict(left), 0);
  EXPECT_EQ(m.predict(right), 1);
}

TEST(Model, LabelsAreDensityOrdered) {
  // Flip densities: now the right cell is densest and gets label 0.
  const auto m = tiny_model(50.0, 100.0);
  const double left[] = {0.1};
  const double right[] = {0.9};
  EXPECT_EQ(m.predict(left), 1);
  EXPECT_EQ(m.predict(right), 0);
}

TEST(Model, TinyCellsAreAbsorbed) {
  // Cell 1 holds 1% of the mass; with min_cluster_fraction 5% it is absorbed
  // into cell 0.
  const auto m = tiny_model(990.0, 10.0, 0.05);
  EXPECT_EQ(m.n_clusters(), 1);
  const double right[] = {0.9};
  EXPECT_EQ(m.predict(right), 0);
}

TEST(Model, BatchPredictMatchesScalar) {
  const auto m = tiny_model();
  Matrix points(10, 1);
  for (std::size_t i = 0; i < 10; ++i) points(i, 0) = i / 10.0;
  const auto labels = m.predict(points);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(labels[i], m.predict(points.row(i)));
  }
}

TEST(Model, PredictValidatesDimensionality) {
  const auto m = tiny_model();
  const double wrong[] = {0.1, 0.2};
  EXPECT_THROW(m.predict(wrong), Error);
}

TEST(Model, EmptyKeptDimsIsSingleCluster) {
  Model m(3, Matrix(), 3, {}, {}, {}, {}, 0.0, 10.0, 0.0);
  EXPECT_EQ(m.n_clusters(), 1);
  const double x[] = {1.0, 2.0, 3.0};
  EXPECT_EQ(m.predict(x), 0);
}

TEST(Model, UnseenCellSnapsToNearestOccupied) {
  // Two kept dims, cells only at (0,0) and (3,3): a point in cell (0,1)
  // must land in (0,0)'s cluster, one in (3,2) in (3,3)'s.
  DimensionPartition p;
  p.bins = 8;
  p.cuts = {2, 4, 6};  // 4 primaries per dim
  std::vector<Cell> cells{Cell{{0, 0}, 10.0, -1}, Cell{{3, 3}, 5.0, -1}};
  Model m(2, Matrix(), 3, {0, 1}, {Range{0, 1}, Range{0, 1}},
          {p, p}, std::move(cells), 1.0, 15.0, 0.0);
  const double near_origin[] = {0.05, 0.4};   // primaries (0, 1)
  const double near_corner[] = {0.95, 0.6};   // primaries (3, 2)
  EXPECT_EQ(m.predict(near_origin), 0);
  EXPECT_EQ(m.predict(near_corner), 1);
}

TEST(Model, ProjectionIsAppliedBeforeKeying) {
  // Projection matrix [[2],[0]] doubles x and ignores y: a model over the
  // projected dim [0, 2] cut at 1 separates x < 0.5 from x > 0.5.
  Matrix proj(2, 1, {2.0, 0.0});
  DimensionPartition p;
  p.bins = 8;
  p.cuts = {4};
  std::vector<Cell> cells{Cell{{0}, 10.0, -1}, Cell{{1}, 10.0, -1}};
  Model m(2, std::move(proj), 3, {0}, {Range{0.0, 2.0}}, {p},
          std::move(cells), 1.0, 20.0, 0.0);
  const double low[] = {0.2, 99.0};  // y is ignored by the projection
  const double high[] = {0.8, -99.0};
  EXPECT_NE(m.predict(low), m.predict(high));
}

TEST(Model, SerializationRoundtrip) {
  const auto m = tiny_model(100.0, 50.0, 0.0);
  ByteWriter w;
  m.serialize(w);
  ByteReader r(w.bytes());
  const auto back = Model::deserialize(r);

  EXPECT_EQ(back.input_dims(), m.input_dims());
  EXPECT_EQ(back.depth(), m.depth());
  EXPECT_EQ(back.kept_dims(), m.kept_dims());
  EXPECT_EQ(back.n_clusters(), m.n_clusters());
  EXPECT_DOUBLE_EQ(back.score(), m.score());
  ASSERT_EQ(back.cells().size(), m.cells().size());
  for (std::size_t i = 0; i < m.cells().size(); ++i) {
    EXPECT_EQ(back.cells()[i].coord, m.cells()[i].coord);
    EXPECT_EQ(back.cells()[i].label, m.cells()[i].label);
    EXPECT_DOUBLE_EQ(back.cells()[i].density, m.cells()[i].density);
  }
  // Behavioural equality.
  for (double x : {0.05, 0.3, 0.55, 0.95}) {
    const double point[] = {x};
    EXPECT_EQ(back.predict(point), m.predict(point));
  }
}

TEST(Model, SerializationRoundtripWithProjection) {
  const auto proj = make_projection_matrix(6, 3, 11);
  DimensionPartition p;
  p.bins = 16;
  p.cuts = {8};
  std::vector<Cell> cells{Cell{{0}, 3.0, -1}, Cell{{1}, 2.0, -1}};
  Model m(6, proj, 4, {1}, {Range{-1, 1}, Range{-2, 2}, Range{0, 1}}, {p},
          std::move(cells), 2.5, 5.0, 0.0);
  ByteWriter w;
  m.serialize(w);
  ByteReader r(w.bytes());
  const auto back = Model::deserialize(r);
  EXPECT_TRUE(back.projection() == m.projection());
  EXPECT_EQ(back.ranges().size(), 3u);
  EXPECT_DOUBLE_EQ(back.ranges()[1].hi, 2.0);
}

TEST(Model, DeterministicLabelTieBreak) {
  // Equal densities: lexicographically smaller coordinate gets label 0.
  DimensionPartition p;
  p.bins = 8;
  p.cuts = {4};
  std::vector<Cell> cells{Cell{{1}, 10.0, -1}, Cell{{0}, 10.0, -1}};
  Model m(1, Matrix(), 3, {0}, {Range{0, 1}}, {p}, std::move(cells), 0.0,
          20.0, 0.0);
  const double left[] = {0.1};
  EXPECT_EQ(m.predict(left), 0);
}

TEST(Model, LabelOfCellHitsMissesAndTies) {
  // 5 x 5 primaries; equal densities and equal L1 distances make ties: a
  // miss goes to the first nearest cell in label (density) order.
  DimensionPartition p;
  p.bins = 16;
  p.cuts = {3, 6, 9, 12};
  std::vector<Cell> cells{Cell{{2, 2}, 9.0, -1}, Cell{{4, 0}, 5.0, -1},
                          Cell{{0, 0}, 9.0, -1}, Cell{{0, 4}, 5.0, -1},
                          Cell{{4, 4}, 7.0, -1}, Cell{{2, 0}, 3.0, -1}};
  const Model m(2, Matrix(), 4, {0, 1}, {Range{0, 1}, Range{0, 1}}, {p, p},
                std::move(cells), 1.0, 38.0, 0.0);
  ASSERT_EQ(m.n_clusters(), 6);
  // Labels follow density, then coordinate: (0,0) 0, (2,2) 1, (4,4) 2,
  // (0,4) 3, (4,0) 4, (2,0) 5. expected[a][b] labels coordinate (a, b).
  const int expected[5][5] = {
      {0, 0, 0, 3, 3},  // (0, 2): 2 from (0,0), (2,2), (0,4); (0,0) first
      {0, 0, 1, 1, 3},  // (1, 1): 2 from (0,0), (2,2), (2,0); then (0,0)
      {5, 1, 1, 1, 1},  // (2, 0) hits the sparsest cell; (2, 1) ties to (2,2)
      {4, 1, 1, 1, 2},
      {4, 4, 1, 2, 2},
  };
  for (std::uint32_t a = 0; a < 5; ++a) {
    for (std::uint32_t b = 0; b < 5; ++b) {
      const std::uint32_t coord[] = {a, b};
      EXPECT_EQ(m.label_of_cell(coord), expected[a][b])
          << "(" << a << ", " << b << ")";
    }
  }
}

/// Scalar reference for Model::predict, independent of the projection
/// kernel: project_point, then key_of, primary_of and label_of_cell.
int reference_label(const Model& m, std::span<const double> x) {
  std::vector<double> projected(m.projection().cols());
  project_point(x, m.projection(), projected);
  std::vector<std::uint32_t> coord;
  for (std::size_t k = 0; k < m.kept_dims().size(); ++k) {
    const auto j = static_cast<std::size_t>(m.kept_dims()[k]);
    const auto key = key_of(projected[j], m.ranges()[j], m.depths()[k]);
    coord.push_back(m.partitions()[k].primary_of(key));
  }
  return m.label_of_cell(coord);
}

TEST(Model, PredictMatchesScalarReferenceAtSeveralWidths) {
  // n_rp 3, 5 and 8 put the projected width at a partial, a partial second
  // and two whole lane blocks; 300 rows cross predict(Matrix)'s row blocks.
  constexpr std::size_t kInputDims = 10;
  const std::vector<std::vector<int>> kept_by_width{
      {0, 2}, {1, 2, 4}, {0, 3, 5, 7}};
  const int widths[] = {3, 5, 8};
  for (std::size_t w = 0; w < 3; ++w) {
    const int n_rp = widths[w];
    const auto& kept = kept_by_width[w];
    std::vector<int> depths;
    std::vector<DimensionPartition> partitions;
    for (std::size_t k = 0; k < kept.size(); ++k) {
      const int depth = 3 + static_cast<int>(k % 3);
      DimensionPartition p;
      p.bins = std::size_t{1} << depth;
      p.cuts = {p.bins / 4, p.bins / 2, 3 * p.bins / 4};
      depths.push_back(depth);
      partitions.push_back(p);
    }
    std::vector<Cell> cells;
    for (std::uint32_t c = 0; c < 6; ++c) {
      Cell cell;
      for (std::size_t k = 0; k < kept.size(); ++k) {
        cell.coord.push_back((c + static_cast<std::uint32_t>(k) * c / 2) % 4);
      }
      cell.density = 10.0 + c;
      cells.push_back(cell);
    }
    const Model m(kInputDims,
                  make_projection_matrix(kInputDims, n_rp, 50 + n_rp), depths,
                  kept,
                  std::vector<Range>(static_cast<std::size_t>(n_rp),
                                     Range{-5.0, 5.0}),
                  partitions, cells, 1.0, 100.0, 0.0);

    Rng rng(static_cast<std::uint64_t>(n_rp));
    Matrix points(300, kInputDims);
    for (double& v : points.flat()) {
      v = rng.uniform_int(3) == 0 ? 0.0 : rng.normal(0.0, 4.0);
    }
    for (double& v : points.row(7)) v = 0.0;
    const auto labels = m.predict(points);
    ASSERT_EQ(labels.size(), points.rows());
    for (std::size_t i = 0; i < points.rows(); ++i) {
      const int want = reference_label(m, points.row(i));
      EXPECT_EQ(m.predict(points.row(i)), want) << "n_rp " << n_rp << " row " << i;
      EXPECT_EQ(labels[i], want) << "n_rp " << n_rp << " row " << i;
    }
  }
}

/// Model bytes by hand: one input dim, no projection (or the 1 x 1
/// `projection`), one range (over [0, 1] by default), an 8-bin partition cut
/// at 4 per kept dim, and one cell.
std::vector<std::byte> model_bytes(const std::vector<int>& kept,
                                   const std::vector<std::uint32_t>& coord,
                                   const std::vector<double>& projection = {},
                                   Range range = {0.0, 1.0}) {
  ByteWriter w;
  w.write<std::uint64_t>(1);
  w.write<std::uint64_t>(projection.size());
  w.write<std::uint64_t>(projection.size());
  w.write_vec(projection);
  w.write_vec(std::vector<int>(kept.size(), 3));
  w.write_vec(kept);
  w.write<std::uint64_t>(1);
  w.write(range.lo);
  w.write(range.hi);
  w.write<std::uint64_t>(kept.size());
  for (std::size_t k = 0; k < kept.size(); ++k) {
    w.write<std::uint64_t>(8);
    w.write_vec(std::vector<std::size_t>{4});
  }
  w.write<std::uint64_t>(1);
  w.write_vec(coord);
  w.write(1.0);
  w.write<std::int32_t>(0);
  w.write(0.0);
  w.write<std::int32_t>(1);
  return w.take();
}

TEST(Model, DeserializeRejectsInconsistentShape) {
  const auto ok = model_bytes({0}, {1});
  ByteReader good(ok);
  const double right[] = {0.9};
  EXPECT_EQ(Model::deserialize(good).predict(right), 0);

  const auto wrong_arity = model_bytes({0}, {0, 1});
  ByteReader r1(wrong_arity);
  EXPECT_THROW(Model::deserialize(r1), Error);
  const auto outside = model_bytes({1}, {0});  // one range, kept dim 1
  ByteReader r2(outside);
  EXPECT_THROW(Model::deserialize(r2), Error);
}

/// The message of the keybin2::Error that deserializing `bytes` throws.
std::string deserialize_error(const std::vector<std::byte>& bytes) {
  ByteReader r(bytes);
  try {
    (void)Model::deserialize(r);
  } catch (const Error& e) {
    return e.what();
  }
  return "(accepted)";
}

TEST(Model, DeserializeRejectsNonFiniteProjectionEntries) {
  const double point[] = {0.3};
  const auto ok = model_bytes({0}, {0}, {2.0});
  ByteReader good(ok);
  EXPECT_EQ(Model::deserialize(good).predict(point), 0);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    EXPECT_NE(deserialize_error(model_bytes({0}, {0}, {bad}))
                  .find("projection"),
              std::string::npos)
        << bad;
  }
}

TEST(Model, DeserializeRejectsNonFiniteRangeBounds) {
  // A (-inf, +inf) range would key inf / inf = NaN into a uint32 bin.
  const double inf = std::numeric_limits<double>::infinity();
  for (const Range bad : {Range{-inf, inf}, Range{0.0, inf}, Range{-inf, 1.0},
                          Range{std::numeric_limits<double>::quiet_NaN(), 1.0}}) {
    EXPECT_NE(deserialize_error(model_bytes({0}, {0}, {}, bad)).find("range"),
              std::string::npos)
        << bad.lo << ", " << bad.hi;
  }
}

TEST(Model, CellArityIsValidated) {
  DimensionPartition p;
  p.bins = 8;
  std::vector<Cell> bad{Cell{{0, 1}, 1.0, -1}};  // 2 coords for 1 kept dim
  EXPECT_THROW(Model(1, Matrix(), 3, {0}, {Range{0, 1}}, {p}, std::move(bad),
                     0.0, 1.0, 0.0),
               Error);
}

}  // namespace
}  // namespace keybin2::core
