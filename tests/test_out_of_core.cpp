#include "core/out_of_core.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/error.hpp"
#include "core/streaming.hpp"
#include "data/gaussian_mixture.hpp"
#include "data/io.hpp"
#include "stats/metrics.hpp"
#include "test_util.hpp"

namespace keybin2::core {
namespace {

class OutOfCoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    input_ = tmp_.make("kb2_ooc_input", ".bin");
    labels_ = tmp_.make("kb2_ooc_labels", ".bin");
    const auto spec = data::make_paper_mixture(12, 3, 1);
    dataset_ = data::sample(spec, 6000, 2);
    data::write_binary(dataset_, input_);
  }

  testutil::TempPaths tmp_;
  std::string input_, labels_;
  data::Dataset dataset_;
};

TEST_F(OutOfCoreTest, ClustersWithoutLoadingEverything) {
  const auto result = fit_from_file(input_, labels_, {}, /*chunk=*/512);
  EXPECT_EQ(result.points, 6000u);
  EXPECT_EQ(result.dims, 12u);
  EXPECT_EQ(result.chunks, (6000 + 511) / 512);
  EXPECT_GE(result.model.n_clusters(), 3);

  const auto labels = read_labels(labels_);
  ASSERT_EQ(labels.size(), 6000u);
  EXPECT_GT(stats::pairwise_scores(labels, dataset_.labels).f1, 0.8);
}

TEST_F(OutOfCoreTest, ChunkSizeDoesNotChangeTheResult) {
  // Histograms are order-insensitive sums, and the reservoir RNG consumes
  // the same per-point stream, so any chunking yields identical output.
  const auto a = fit_from_file(input_, labels_, {}, 173);
  const auto labels_a = read_labels(labels_);
  const auto b = fit_from_file(input_, labels_, {}, 4096);
  const auto labels_b = read_labels(labels_);
  EXPECT_EQ(labels_a, labels_b);
  EXPECT_DOUBLE_EQ(a.model.score(), b.model.score());
}

TEST_F(OutOfCoreTest, MatchesInMemoryStreamingEngine) {
  const auto result = fit_from_file(input_, labels_, {}, 1024);
  const auto file_labels = read_labels(labels_);

  StreamingKeyBin2 engine(12);
  engine.push_batch(dataset_.points);
  engine.refit();
  const auto memory_labels = engine.model().predict(dataset_.points);
  EXPECT_EQ(file_labels, memory_labels);
  EXPECT_DOUBLE_EQ(result.model.score(), engine.model().score());
}

TEST_F(OutOfCoreTest, LabelsRoundtripThroughTheStream) {
  fit_from_file(input_, labels_, {}, 777);
  const auto labels = read_labels(labels_);
  // Every label is a valid cluster id.
  for (int l : labels) {
    EXPECT_GE(l, 0);
  }
}

TEST(OutOfCore, MissingOrCorruptInputsThrow) {
  EXPECT_THROW(fit_from_file("/tmp/kb2_no_such_file.bin", "/tmp/out.bin"),
               Error);
  EXPECT_THROW(read_labels("/tmp/kb2_no_such_labels.bin"), Error);

  testutil::TempPaths tmp;
  const std::string junk = tmp.make("kb2_ooc_junk", ".bin");
  {
    std::FILE* f = std::fopen(junk.c_str(), "wb");
    std::fputs("definitely not a dataset", f);
    std::fclose(f);
  }
  EXPECT_THROW(fit_from_file(junk, "/tmp/out.bin"), Error);

  const std::string labels = tmp.make("kb2_ooc_bad_labels", ".bin");
  for (const auto& bad : testutil::bad_dataset_files(tmp)) {
    EXPECT_THROW(fit_from_file(bad, labels), Error) << bad;
  }
}

TEST(OutOfCore, ZeroChunkRejected) {
  EXPECT_THROW(fit_from_file("/tmp/x.bin", "/tmp/y.bin", {}, 0), Error);
}

}  // namespace
}  // namespace keybin2::core
