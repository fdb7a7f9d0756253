// End-to-end tests of the keybin2 command-line tool: generate a dataset,
// cluster it with each algorithm, and check outputs and exit codes. Also
// the bench harnesses' shared option parser.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "data/io.hpp"
#include "stats/metrics.hpp"
#include "test_util.hpp"

namespace {

#ifndef KB2_CLI_PATH
#error "KB2_CLI_PATH must be defined by the build"
#endif

struct CommandResult {
  int exit_code = -1;
  std::string output;
};

CommandResult run(const std::string& args) {
  const std::string cmd = std::string(KB2_CLI_PATH) + " " + args + " 2>&1";
  std::array<char, 4096> buf{};
  CommandResult result;
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  while (fgets(buf.data(), buf.size(), pipe)) result.output += buf.data();
  result.exit_code = pclose(pipe);
  return result;
}

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_path_ = tmp_.make("kb2_cli_test_data", ".csv");
    out_path_ = tmp_.make("kb2_cli_test_out", ".csv");
    const auto gen = run("generate " + data_path_ +
                         " --points 1500 --dims 8 --k 3 --seed 5");
    ASSERT_EQ(gen.exit_code, 0) << gen.output;
  }

  keybin2::testutil::TempPaths tmp_;
  std::string data_path_, out_path_;
};

TEST_F(CliTest, GenerateProducesLabelledCsv) {
  const auto d = keybin2::data::read_csv(data_path_);
  EXPECT_EQ(d.size(), 1500u);
  EXPECT_EQ(d.dims(), 8u);
  EXPECT_TRUE(d.labelled());
}

TEST_F(CliTest, ClusterKeyBin2WritesAssignments) {
  const auto r = run("cluster " + data_path_ + " --out " + out_path_);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("keybin2:"), std::string::npos);
  EXPECT_NE(r.output.find("F1"), std::string::npos);

  const auto d = keybin2::data::read_csv(data_path_);
  const auto out = keybin2::data::read_csv(out_path_);
  ASSERT_EQ(out.size(), d.size());
  ASSERT_TRUE(out.labelled());
  // The written assignments must actually cluster the data.
  EXPECT_GT(keybin2::stats::pairwise_scores(out.labels, d.labels).f1, 0.8);
}

TEST_F(CliTest, EveryAlgorithmRuns) {
  for (const char* algo : {"kmeans", "xmeans", "dbscan"}) {
    const auto r = run("cluster " + data_path_ + " --algo " + algo +
                       " --k 3");
    EXPECT_EQ(r.exit_code, 0) << algo << ": " << r.output;
    EXPECT_NE(r.output.find(algo), std::string::npos) << r.output;
  }
}

TEST_F(CliTest, UnknownAlgorithmFails) {
  const auto r = run("cluster " + data_path_ + " --algo nonsense");
  EXPECT_NE(r.exit_code, 0);
}

TEST_F(CliTest, MissingInputFileFails) {
  const auto r = run("cluster /tmp/kb2_does_not_exist_42.csv");
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("error"), std::string::npos);
}

TEST_F(CliTest, BadUsageFails) {
  EXPECT_NE(run("frobnicate x").exit_code, 0);
  EXPECT_NE(run("cluster").exit_code, 0);
}

TEST_F(CliTest, DistributedRunAcceptsFaultToleranceKnobs) {
  const auto r = run("cluster " + data_path_ +
                     " --ranks 2 --timeout 30 --retries 3");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("on 2 ranks"), std::string::npos) << r.output;
}

TEST_F(CliTest, TraceJsonExportsLoadableRankTimelines) {
  const std::string trace_path = tmp_.make("kb2_cli_test_trace", ".json");
  const std::string log_path = tmp_.make("kb2_cli_test_events", ".jsonl");
  const auto r = run("cluster " + data_path_ +
                     " --ranks 4 --trace --trace-json " + trace_path +
                     " --log " + log_path);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  // --trace printed the per-stage table, the metrics counters, and the
  // rank-by-rank traffic heatmap.
  EXPECT_NE(r.output.find("stage"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("points_binned"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("comm heatmap"), std::string::npos) << r.output;

  // The exported trace is one JSON document with all four rank timelines
  // and at least one completed send->recv flow pair.
  std::string trace;
  {
    std::FILE* f = std::fopen(trace_path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::array<char, 4096> chunk{};
    std::size_t n = 0;
    while ((n = std::fread(chunk.data(), 1, chunk.size(), f)) > 0) {
      trace.append(chunk.data(), n);
    }
    std::fclose(f);
  }
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  auto count = [&](const std::string& needle) {
    std::size_t c = 0;
    for (auto pos = trace.find(needle); pos != std::string::npos;
         pos = trace.find(needle, pos + needle.size())) {
      ++c;
    }
    return c;
  };
  // process_name + thread_name metadata per rank lane.
  EXPECT_EQ(count("\"ph\":\"M\""), 8u);
  EXPECT_GE(count("\"ph\":\"X\""), 4u);
  EXPECT_GE(count("\"ph\":\"s\""), 1u);
  EXPECT_EQ(count("\"ph\":\"s\""), count("\"ph\":\"f\""));

  // A clean run emits no fault-path events, but --log must leave a (possibly
  // empty) file rather than failing silently.
  std::FILE* lf = std::fopen(log_path.c_str(), "rb");
  EXPECT_NE(lf, nullptr);
  if (lf) std::fclose(lf);
}

#ifdef __linux__
TEST_F(CliTest, ProcessBackendMatchesThreadBackendEndToEnd) {
  // Same input, both transports: identical assignments, and the merged
  // trace artifacts (per-stage table, Chrome trace, event log) must come
  // out of the forked children just like they do from threads.
  const std::string thread_out = tmp_.make("kb2_cli_test_thr", ".csv");
  const std::string trace_path = tmp_.make("kb2_cli_test_ptrace", ".json");
  const std::string log_path = tmp_.make("kb2_cli_test_pevents", ".jsonl");
  const auto t = run("cluster " + data_path_ +
                     " --ranks 4 --backend thread --out " + thread_out);
  ASSERT_EQ(t.exit_code, 0) << t.output;

  const auto p = run("cluster " + data_path_ +
                     " --ranks 4 --backend proc --trace --trace-json " +
                     trace_path + " --log " + log_path + " --out " +
                     out_path_);
  ASSERT_EQ(p.exit_code, 0) << p.output;
  EXPECT_NE(p.output.find("on 4 ranks (process backend)"),
            std::string::npos)
      << p.output;
  EXPECT_NE(p.output.find("stage"), std::string::npos) << p.output;
  EXPECT_NE(p.output.find("comm heatmap"), std::string::npos) << p.output;

  const auto thread_labels = keybin2::data::read_csv(thread_out);
  const auto proc_labels = keybin2::data::read_csv(out_path_);
  EXPECT_EQ(proc_labels.labels, thread_labels.labels)
      << "transport leaked into the math";

  // The exported trace has all four rank lanes with paired flows, exactly
  // like the thread backend's (kb2_analyze parses this shape).
  std::string trace;
  {
    std::FILE* f = std::fopen(trace_path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::array<char, 4096> chunk{};
    std::size_t n = 0;
    while ((n = std::fread(chunk.data(), 1, chunk.size(), f)) > 0) {
      trace.append(chunk.data(), n);
    }
    std::fclose(f);
  }
  auto count = [&](const std::string& needle) {
    std::size_t c = 0;
    for (auto pos = trace.find(needle); pos != std::string::npos;
         pos = trace.find(needle, pos + needle.size())) {
      ++c;
    }
    return c;
  };
  EXPECT_EQ(count("\"ph\":\"M\""), 8u);
  EXPECT_GE(count("\"ph\":\"X\""), 4u);
  EXPECT_GE(count("\"ph\":\"s\""), 1u);
  EXPECT_EQ(count("\"ph\":\"s\""), count("\"ph\":\"f\""));

  // --log left a (possibly empty) file behind, truncated by the parent and
  // appended by the children.
  std::FILE* lf = std::fopen(log_path.c_str(), "rb");
  EXPECT_NE(lf, nullptr);
  if (lf) std::fclose(lf);
}
#endif  // __linux__

class CliFitFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    bin_path_ = tmp_.make("kb2_cli_test_bin", ".bin");
    labels_path_ = tmp_.make("kb2_cli_test_bin_labels", ".bin");
    ckpt_path_ = tmp_.make("kb2_cli_test_ckpt", ".bin");
    const auto gen = run("generate " + bin_path_ +
                         " --points 2000 --dims 8 --k 3 --seed 5 --binary");
    ASSERT_EQ(gen.exit_code, 0) << gen.output;
  }

  keybin2::testutil::TempPaths tmp_;
  std::string bin_path_, labels_path_, ckpt_path_;
};

TEST_F(CliFitFileTest, FitFileClustersABinaryDataset) {
  const auto r = run("fit-file " + bin_path_ + " --out " + labels_path_ +
                     " --chunk 256");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("keybin2 fit-file:"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("2000 points"), std::string::npos) << r.output;
}

TEST_F(CliFitFileTest, CheckpointPausesAndResumesAcrossInvocations) {
  // A budget-limited first invocation "dies" partway through pass 1 …
  const std::string common = "fit-file " + bin_path_ + " --out " +
                             labels_path_ + " --chunk 256 --checkpoint " +
                             ckpt_path_;
  const auto paused = run(common + " --budget-chunks 3");
  EXPECT_EQ(paused.exit_code, 0) << paused.output;
  EXPECT_NE(paused.output.find("paused"), std::string::npos) << paused.output;
  {
    std::FILE* f = std::fopen(ckpt_path_.c_str(), "rb");
    ASSERT_NE(f, nullptr);  // resumable state left behind
    std::fclose(f);
  }

  // … and rerunning the identical command finishes the job.
  const auto resumed = run(common);
  EXPECT_EQ(resumed.exit_code, 0) << resumed.output;
  EXPECT_NE(resumed.output.find("keybin2 fit-file:"), std::string::npos)
      << resumed.output;
  std::FILE* gone = std::fopen(ckpt_path_.c_str(), "rb");
  EXPECT_EQ(gone, nullptr);  // checkpoint consumed on success
  if (gone) std::fclose(gone);
}

// A bench told to run zero times, on zero ranks or on empty shards would
// measure nothing and still report OK, so the parser refuses it the way it
// refuses an unknown flag.
TEST(BenchOptionsDeathTest, CountsBelowOneExitWithUsageError) {
  for (const char* flag : {"--runs", "--ranks", "--points-per-rank"}) {
    for (const char* value : {"0", "-3", "x"}) {
      SCOPED_TRACE(std::string(flag) + " " + value);
      std::vector<std::string> args = {"bench", flag, value};
      std::vector<char*> argv;
      for (auto& a : args) argv.push_back(a.data());
      EXPECT_EXIT(keybin2::bench::Options::parse(
                      static_cast<int>(argv.size()), argv.data()),
                  ::testing::ExitedWithCode(2), flag);
    }
  }
  char name[] = "bench", runs[] = "--runs", one[] = "1";
  char* argv[] = {name, runs, one};
  EXPECT_EQ(keybin2::bench::Options::parse(3, argv).runs, 1);
}

}  // namespace
