// Coreset comm plane (DESIGN.md §9): sampler invariants, sketch codec, the
// capped coreset allreduce on both backends, and the kCoreset/kAuto comm
// modes of the full fit — including the fingerprint contracts (dense ==
// sparse exactly; coreset deterministic per seed and close to dense).
#include "comm/coreset.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <numeric>

#include "comm/launch.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/cells.hpp"
#include "core/keybin2.hpp"
#include "core/streaming.hpp"
#include "data/gaussian_mixture.hpp"
#include "data/partition.hpp"
#include "runtime/context.hpp"
#include "stats/metrics.hpp"

namespace keybin2 {
namespace {

using comm::coreset::Options;
using comm::coreset::Sketch;

std::vector<double> random_masses(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> m(n);
  for (auto& x : m) x = std::floor(rng.uniform() * 8.0);  // integral, sparse-ish
  return m;
}

double total_mass(std::span<const double> v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

// ---- Sampler ----

TEST(CoresetSampler, ExactWhenUnderCap) {
  std::vector<double> masses{0.0, 3.0, 0.0, 1.0, 5.0};
  Options opts;
  opts.max_cells = 8;
  const auto sel = comm::coreset::select_weighted(masses, opts, 99);
  ASSERT_EQ(sel.kept.size(), 3u);
  EXPECT_EQ(sel.kept[0], (std::pair<std::size_t, double>{1, 3.0}));
  EXPECT_EQ(sel.kept[1], (std::pair<std::size_t, double>{3, 1.0}));
  EXPECT_EQ(sel.kept[2], (std::pair<std::size_t, double>{4, 5.0}));
  EXPECT_EQ(sel.mass_dropped, 0.0);
}

TEST(CoresetSampler, CapRespectedHeavyExactMassPreserved) {
  auto masses = random_masses(20000, 11);
  // A few unmistakable heavy hitters.
  masses[17] = 5000.0;
  masses[9999] = 9000.0;
  Options opts;
  opts.max_cells = 1024;
  opts.epsilon = 0.01;
  const double total = total_mass(masses);
  const auto sel = comm::coreset::select_weighted(masses, opts, 7);

  EXPECT_LE(sel.kept.size(), opts.max_cells);
  double kept_total = 0.0;
  std::map<std::size_t, double> kept(sel.kept.begin(), sel.kept.end());
  for (const auto& [pos, w] : kept) kept_total += w;
  // Heavy hitters carried exactly.
  const double threshold = opts.epsilon * total;
  for (std::size_t i = 0; i < masses.size(); ++i) {
    if (masses[i] >= threshold) {
      ASSERT_TRUE(kept.count(i)) << "heavy cell " << i << " sampled away";
      EXPECT_DOUBLE_EQ(kept[i], masses[i]);
    }
  }
  // Systematic resampling preserves total mass (up to FP accumulation).
  EXPECT_NEAR(kept_total, total, 1e-6 * total);
  EXPECT_GT(sel.mass_dropped, 0.0);
  // Positions ascend (required by the sketch wire format).
  for (std::size_t k = 1; k < sel.kept.size(); ++k) {
    EXPECT_LT(sel.kept[k - 1].first, sel.kept[k].first);
  }
}

TEST(CoresetSampler, DeterministicPerSeedAndSeedSensitive) {
  const auto masses = random_masses(8000, 3);
  Options opts;
  opts.max_cells = 256;
  const auto a = comm::coreset::select_weighted(masses, opts, 42);
  const auto b = comm::coreset::select_weighted(masses, opts, 42);
  const auto c = comm::coreset::select_weighted(masses, opts, 43);
  EXPECT_EQ(a.kept, b.kept);
  EXPECT_EQ(a.mass_dropped, b.mass_dropped);
  EXPECT_NE(a.kept, c.kept);  // a different draw lands elsewhere
}

TEST(CoresetSampler, EpsilonClampBoundsHeavySetToHalfTheCap) {
  // Everything "heavy" by the raw epsilon: the clamp must still leave room.
  std::vector<double> masses(64, 1.0);
  Options opts;
  opts.max_cells = 16;
  opts.epsilon = 1e-9;  // raw threshold would admit all 64 cells
  const auto sel = comm::coreset::select_weighted(masses, opts, 5);
  EXPECT_LE(sel.kept.size(), opts.max_cells);
}

// ---- Sketch codec ----

TEST(CoresetSketch, CodecRoundTrip) {
  Options opts;
  const auto masses = random_masses(4096, 21);
  auto s = comm::coreset::build(masses, opts, 77);
  ByteWriter w;
  comm::coreset::encode(s, w);
  ByteReader r(w.bytes());
  const auto back = comm::coreset::decode(r);
  EXPECT_EQ(back.length, s.length);
  EXPECT_EQ(back.index, s.index);
  EXPECT_EQ(back.weight, s.weight);
  EXPECT_DOUBLE_EQ(back.mass_dropped, s.mass_dropped);
  EXPECT_EQ(comm::coreset::expand(back), comm::coreset::expand(s));
}

TEST(CoresetSketch, DecodeRejectsUnsortedAndOutOfRange) {
  Sketch s;
  s.length = 10;
  s.index = {3, 1};  // descending
  s.weight = {1.0, 2.0};
  ByteWriter w;
  comm::coreset::encode(s, w);
  ByteReader r(w.bytes());
  EXPECT_THROW(comm::coreset::decode(r), Error);

  Sketch o;
  o.length = 4;
  o.index = {9};  // out of range
  o.weight = {1.0};
  ByteWriter w2;
  comm::coreset::encode(o, w2);
  ByteReader r2(w2.bytes());
  EXPECT_THROW(comm::coreset::decode(r2), Error);
}

TEST(CoresetSketch, MergeSumsOverlappingIndices) {
  Sketch a, b;
  a.length = b.length = 8;
  a.index = {1, 4};
  a.weight = {2.0, 3.0};
  b.index = {0, 4, 7};
  b.weight = {1.0, 5.0, 6.0};
  b.mass_dropped = 0.5;
  comm::coreset::merge(a, b);
  EXPECT_EQ(a.index, (std::vector<std::uint32_t>{0, 1, 4, 7}));
  EXPECT_EQ(a.weight, (std::vector<double>{1.0, 2.0, 8.0, 6.0}));
  EXPECT_DOUBLE_EQ(a.mass_dropped, 0.5);
}

// ---- The collective ----

TEST(CoresetAllreduce, ExactForDisjointSupportsUnderCap) {
  const std::size_t len = 4096;
  const int ranks = 4;
  std::vector<std::vector<double>> results(ranks);
  std::vector<comm::ReduceProfile> profiles(ranks);
  comm::run_ranks(ranks, [&](comm::Communicator& c) {
    std::vector<double> local(len, 0.0);
    for (std::size_t i = 0; i < 100; ++i) {
      local[static_cast<std::size_t>(c.rank()) * 100 + i] =
          static_cast<double>(i + 1);
    }
    Options opts;  // cap 4096 >> 400 occupied cells in the union
    results[static_cast<std::size_t>(c.rank())] =
        c.coreset_allreduce(local, opts,
                            &profiles[static_cast<std::size_t>(c.rank())]);
    // kCoreset only reports this call; allreduce refuses to select it.
    EXPECT_THROW((void)c.allreduce(local, comm::ReduceOp::kSum,
                                   comm::AllreduceAlgo::kCoreset),
                 Error);
  });
  // Union fits the cap at every hop, so the reduction is exact.
  std::vector<double> expected(len, 0.0);
  for (int r = 0; r < ranks; ++r) {
    for (std::size_t i = 0; i < 100; ++i) {
      expected[static_cast<std::size_t>(r) * 100 + i] =
          static_cast<double>(i + 1);
    }
  }
  for (int r = 0; r < ranks; ++r) {
    EXPECT_EQ(results[static_cast<std::size_t>(r)], expected);
    EXPECT_EQ(profiles[static_cast<std::size_t>(r)].algo,
              comm::AllreduceAlgo::kCoreset);
    EXPECT_GT(profiles[static_cast<std::size_t>(r)].bytes, 0u);
    EXPECT_DOUBLE_EQ(
        profiles[static_cast<std::size_t>(r)].coreset_mass_dropped, 0.0);
  }
}

TEST(CoresetAllreduce, CapsEveryMessagePreservesMassAndGlobalHeavyHitters) {
  const std::size_t len = 1 << 15;
  const int ranks = 8;
  const std::size_t spike = 7;
  Options opts;
  opts.max_cells = 512;
  opts.epsilon = 0.01;

  std::vector<double> expected(len, 0.0);
  std::vector<std::vector<double>> locals(ranks);
  for (int r = 0; r < ranks; ++r) {
    locals[static_cast<std::size_t>(r)] =
        random_masses(len, 1000 + static_cast<std::uint64_t>(r));
    locals[static_cast<std::size_t>(r)][spike] = 1e6;  // heavy at every level
    for (std::size_t i = 0; i < len; ++i) {
      expected[i] += locals[static_cast<std::size_t>(r)][i];
    }
  }

  std::vector<std::vector<double>> results(ranks);
  std::vector<comm::ReduceProfile> profiles(ranks);
  comm::run_ranks(ranks, [&](comm::Communicator& c) {
    const auto r = static_cast<std::size_t>(c.rank());
    results[r] = c.coreset_allreduce(locals[r], opts, &profiles[r]);
  });

  const auto& merged = results[0];
  for (int r = 0; r < ranks; ++r) EXPECT_EQ(results[static_cast<std::size_t>(r)], merged);
  // The globally heavy cell survives every compression exactly.
  EXPECT_DOUBLE_EQ(merged[spike], expected[spike]);
  // Total mass is preserved (systematic resampling moves light mass between
  // neighbouring cells but never loses it).
  EXPECT_NEAR(total_mass(merged), total_mass(expected),
              1e-6 * total_mass(expected));
  // The sketch stayed under the cap even though occupancy is ~10x larger.
  std::size_t nnz = 0;
  for (const double v : merged) nnz += (v != 0.0) ? 1 : 0;
  EXPECT_LE(nnz, opts.max_cells);
  // Per-rank attributed drops sum to something > 0 in this lossy regime.
  double dropped = 0.0;
  for (const auto& p : profiles) dropped += p.coreset_mass_dropped;
  EXPECT_GT(dropped, 0.0);
}

TEST(CoresetAllreduce, DeterministicAcrossRepeatedRuns) {
  const std::size_t len = 1 << 14;
  const int ranks = 6;  // non-power-of-two group
  Options opts;
  opts.max_cells = 256;
  auto run = [&] {
    std::vector<std::vector<double>> results(ranks);
    comm::run_ranks(ranks, [&](comm::Communicator& c) {
      const auto local =
          random_masses(len, 50 + static_cast<std::uint64_t>(c.rank()));
      results[static_cast<std::size_t>(c.rank())] =
          c.coreset_allreduce(local, opts);
    });
    return results;
  };
  EXPECT_EQ(run(), run());
}

TEST(CoresetAllreduce, ThreadAndProcessBackendsBitIdentical) {
  const std::size_t len = 1 << 14;
  const int ranks = 4;
  Options opts;
  opts.max_cells = 256;
  auto run = [&](comm::Backend backend) {
    comm::LaunchOptions lo;
    lo.backend = backend;
    return comm::run_ranks_collect_bytes(lo, ranks, [&](comm::Communicator& c) {
      const auto local =
          random_masses(len, 900 + static_cast<std::uint64_t>(c.rank()));
      const auto merged = c.coreset_allreduce(local, opts);
      ByteWriter w;
      w.write_vec(merged);
      return w.take();
    });
  };
  const auto threaded = run(comm::Backend::kThread);
  const auto process = run(comm::Backend::kProcess);
  ASSERT_EQ(threaded.size(), process.size());
  for (std::size_t r = 0; r < threaded.size(); ++r) {
    EXPECT_EQ(threaded[r], process[r]) << "rank " << r;
  }
}

// ---- Weighted-cell coreset (assess stage) ----

TEST(CoresetCells, CapsAndPreservesDensity) {
  core::CellMap cells;
  Rng rng(4);
  for (int i = 0; i < 5000; ++i) {
    cells[{static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(i % 7)}] =
        1.0 + std::floor(rng.uniform() * 4.0);
  }
  double total = 0.0;
  for (const auto& [coord, d] : cells) total += d;

  double dropped = 0.0;
  const auto capped = core::coreset_cells(cells, 512, 0.01, 99, &dropped);
  EXPECT_LE(capped.size(), 512u);
  double kept = 0.0;
  for (const auto& [coord, d] : capped) kept += d;
  EXPECT_NEAR(kept, total, 1e-6 * total);
  EXPECT_GT(dropped, 0.0);

  // Deterministic per seed; a small map passes through untouched.
  EXPECT_EQ(core::coreset_cells(cells, 512, 0.01, 99), capped);
  EXPECT_EQ(core::coreset_cells(cells, 8192, 0.01, 99), cells);
}

// ---- Full fit under the comm modes ----

struct ModeFit {
  std::vector<int> labels;                       // concatenated by rank
  std::map<std::string, std::uint64_t> counters; // merged metrics (root)
  double score = 0.0;
};

ModeFit fit_mode(const std::vector<data::Dataset>& shards, int ranks,
                 const core::Params& params) {
  ModeFit out;
  std::vector<std::vector<int>> labels(static_cast<std::size_t>(ranks));
  comm::run_ranks(ranks, [&](comm::Communicator& c) {
    runtime::Context ctx(c, params.seed);
    const auto result =
        core::fit(ctx, shards[static_cast<std::size_t>(c.rank())].points,
                  params);
    labels[static_cast<std::size_t>(c.rank())] = result.labels;
    const auto report = ctx.metrics_report();  // collective
    if (c.rank() == 0) {
      out.counters = report.counters;
      out.score = result.model.score();
    }
  });
  for (const auto& l : labels) {
    out.labels.insert(out.labels.end(), l.begin(), l.end());
  }
  return out;
}

class CoresetFitTest : public ::testing::Test {
 protected:
  static constexpr int kRanks = 4;
  void SetUp() override {
    const auto spec = data::make_paper_mixture(16, 4, 31);
    data_ = data::sample(spec, 6000, 32);
    shards_ = data::shard(data_, kRanks);
  }
  core::Params base_params() const {
    core::Params p;
    p.seed = 7;
    p.max_depth = 10;
    p.bootstrap_trials = 3;
    return p;
  }
  data::Dataset data_;
  std::vector<data::Dataset> shards_;
};

TEST_F(CoresetFitTest, DenseAndSparseFingerprintsBitIdentical) {
  auto dense = base_params();
  dense.comm_mode = core::CommMode::kDense;
  auto sparse = base_params();
  sparse.comm_mode = core::CommMode::kSparse;
  const auto a = fit_mode(shards_, kRanks, dense);
  const auto b = fit_mode(shards_, kRanks, sparse);
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_DOUBLE_EQ(a.score, b.score);
  EXPECT_TRUE(a.counters.count("reduce_algo_tree"));
  EXPECT_FALSE(a.counters.count("reduce_algo_coreset"));
}

TEST_F(CoresetFitTest, ForcedCoresetIsDeterministicAndCloseToDense) {
  auto dense = base_params();
  dense.comm_mode = core::CommMode::kDense;
  auto coreset = base_params();
  coreset.comm_mode = core::CommMode::kCoreset;
  coreset.coreset_max_cells = 1024;  // below occupancy: forces real sampling

  const auto exact = fit_mode(shards_, kRanks, dense);
  const auto approx1 = fit_mode(shards_, kRanks, coreset);
  const auto approx2 = fit_mode(shards_, kRanks, coreset);

  // Same seed -> same sketches -> same model, labels, and metrics.
  EXPECT_EQ(approx1.labels, approx2.labels);
  EXPECT_DOUBLE_EQ(approx1.score, approx2.score);
  EXPECT_EQ(approx1.counters, approx2.counters);

  // The coreset plane actually ran and reported its traffic.
  ASSERT_TRUE(approx1.counters.count("reduce_algo_coreset"));
  EXPECT_GT(approx1.counters.at("coreset_cells_sent"), 0u);

  // Bounded error: clustering agrees with the dense plane.
  const double ari = stats::adjusted_rand_index(approx1.labels, exact.labels);
  EXPECT_GE(ari, 0.9) << "coreset fit diverged from dense fit";
}

TEST_F(CoresetFitTest, AutoUpgradesToCoresetOnceDensityIsObserved) {
  auto params = base_params();
  params.comm_mode = core::CommMode::kAuto;
  params.coreset_max_cells = 64;  // tiny cap: the density rule must trip
  const auto result = fit_mode(shards_, kRanks, params);
  // Trial 0 merges exactly (no density observed yet)...
  const std::uint64_t exact_merges =
      (result.counters.count("reduce_algo_rh")
           ? result.counters.at("reduce_algo_rh")
           : 0) +
      (result.counters.count("reduce_algo_tree")
           ? result.counters.at("reduce_algo_tree")
           : 0);
  EXPECT_GE(exact_merges, 1u);
  // ...and later trials switch to the coreset plane.
  ASSERT_TRUE(result.counters.count("reduce_algo_coreset"))
      << "kAuto never selected the coreset plane";
  EXPECT_GE(result.counters.at("reduce_algo_coreset"), 1u);
}

TEST_F(CoresetFitTest, AutoWithDefaultKnobsMatchesSparseExactly) {
  // The density rule must not trip at default scale: kAuto is the default
  // comm mode, so this is the fingerprint-stability contract for every
  // pre-existing configuration.
  auto sparse = base_params();
  sparse.comm_mode = core::CommMode::kSparse;
  auto auto_mode = base_params();
  auto_mode.comm_mode = core::CommMode::kAuto;  // default knobs: cap 4096
  const auto a = fit_mode(shards_, kRanks, sparse);
  const auto b = fit_mode(shards_, kRanks, auto_mode);
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_DOUBLE_EQ(a.score, b.score);
  EXPECT_FALSE(b.counters.count("reduce_algo_coreset"));
}

TEST_F(CoresetFitTest, ForcedCoresetCapsStreamingRefits) {
  // Refits follow comm_mode as batch fit does: under a cap below the
  // merged occupancy the refit merge ships sketches, and the same seed
  // gives the same model bytes and metrics.
  auto params = base_params();
  params.comm_mode = core::CommMode::kCoreset;
  params.coreset_max_cells = 256;
  auto refit = [&] {
    std::vector<std::byte> model;
    std::map<std::string, std::uint64_t> counters;
    comm::run_ranks(kRanks, [&](comm::Communicator& c) {
      runtime::Context ctx(c, params.seed);
      core::StreamingKeyBin2 engine(data_.dims(), params);
      engine.push_batch(shards_[static_cast<std::size_t>(c.rank())].points);
      const auto& fitted = engine.refit(ctx);
      const auto report = ctx.metrics_report();  // collective
      if (c.rank() == 0) {
        ByteWriter w;
        fitted.serialize(w);
        model = w.take();
        counters = report.counters;
      }
    });
    return std::pair{model, counters};
  };
  const auto [model1, counters1] = refit();
  const auto [model2, counters2] = refit();
  EXPECT_EQ(model1, model2);
  EXPECT_EQ(counters1, counters2);
  ASSERT_TRUE(counters1.count("reduce_algo_coreset"));
  EXPECT_FALSE(counters1.count("reduce_algo_tree"));
  EXPECT_GT(counters1.at("coreset_mass_dropped"), 0u);
}

TEST_F(CoresetFitTest, ForcedCoresetProcessBackendMatchesThreadBackend) {
  auto params = base_params();
  params.comm_mode = core::CommMode::kCoreset;
  params.coreset_max_cells = 256;
  auto run = [&](comm::Backend backend) {
    comm::LaunchOptions lo;
    lo.backend = backend;
    return comm::run_ranks_collect_bytes(
        lo, kRanks, [&](comm::Communicator& c) {
          const auto result =
              core::fit(c, shards_[static_cast<std::size_t>(c.rank())].points,
                        params);
          ByteWriter w;
          w.write_vec(result.labels);
          w.write(result.model.score());
          return w.take();
        });
  };
  const auto threaded = run(comm::Backend::kThread);
  const auto process = run(comm::Backend::kProcess);
  ASSERT_EQ(threaded.size(), process.size());
  for (std::size_t r = 0; r < threaded.size(); ++r) {
    EXPECT_EQ(threaded[r], process[r]) << "rank " << r;
  }
}

}  // namespace
}  // namespace keybin2
