// Micro benchmarks (google-benchmark) for KeyBin2's kernels — the pieces
// whose complexity §3.4 analyses:
//   * key assignment         O(M * N_rp * log B)
//   * histogram construction O(M * N_rp)
//   * random projection      O(M * N * N_rp)
//   * smoothing/partitioning O(N_rp * B * w)
//   * histogram-space CH     O(B) — independent of M
//   * collectives            O(message size), the only communication
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "bench/bench_util.hpp"
#include "comm/launch.hpp"
#include "common/rng.hpp"
#include "core/assess.hpp"
#include "core/binner.hpp"
#include "core/cells.hpp"
#include "core/keybin2.hpp"
#include "core/partitioner.hpp"
#include "core/projection.hpp"
#include "data/gaussian_mixture.hpp"

// Global-allocation tally for BM_ReduceSteadyStateAllocs: every heap
// allocation in the process is counted while g_count_allocs is on. The
// overrides replace the global operators for this binary only; counting is
// a relaxed atomic increment, negligible next to malloc itself.
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<bool> g_count_allocs{false};

void* counted_alloc(std::size_t n) noexcept {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(n ? n : 1);
}

void* counted_aligned_alloc(std::size_t n, std::size_t align) noexcept {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  const std::size_t rounded = (n + align - 1) / align * align;
  return std::aligned_alloc(align, rounded ? rounded : align);
}
}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  if (void* p = counted_aligned_alloc(n, static_cast<std::size_t>(al))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  if (void* p = counted_aligned_alloc(n, static_cast<std::size_t>(al))) {
    return p;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace keybin2;

Matrix random_points(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (auto& v : m.flat()) v = rng.normal();
  return m;
}

void BM_KeyAssignment(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto points = random_points(m, 8, 1);
  const std::vector<core::Range> ranges(8, core::Range{-5.0, 5.0});
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::compute_keys(points, ranges, 7));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(m * 8) *
                          state.iterations());
}
BENCHMARK(BM_KeyAssignment)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_HistogramBuild(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto points = random_points(m, 8, 2);
  const std::vector<core::Range> ranges(8, core::Range{-5.0, 5.0});
  const auto keys = core::compute_keys(points, ranges, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::build_histograms(keys, ranges));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(m * 8) *
                          state.iterations());
}
BENCHMARK(BM_HistogramBuild)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_RandomProjection(benchmark::State& state) {
  const auto dims = static_cast<std::size_t>(state.range(0));
  const auto points = random_points(2000, dims, 3);
  const auto a =
      core::make_projection_matrix(dims, core::choose_n_rp(dims), 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::project(points, a));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(2000 * dims * a.cols()) * state.iterations());
}
BENCHMARK(BM_RandomProjection)->Arg(20)->Arg(80)->Arg(320)->Arg(1280);

void BM_PartitionHistogram(benchmark::State& state) {
  const auto bins = static_cast<std::size_t>(state.range(0));
  Rng rng(5);
  stats::Histogram h(0.0, 1.0, bins);
  for (int i = 0; i < 50000; ++i) {
    h.add(rng.normal(i % 2 ? 0.3 : 0.7, 0.07));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::partition_discrete_opt(h.counts(), 0.04));
  }
}
BENCHMARK(BM_PartitionHistogram)->Arg(32)->Arg(128)->Arg(1024);

void BM_HistogramCalinskiHarabasz(benchmark::State& state) {
  // Cost must not depend on the number of points — only on bins/cells.
  Rng rng(6);
  std::vector<stats::Histogram> hists;
  std::vector<core::DimensionPartition> partitions;
  for (int j = 0; j < 8; ++j) {
    stats::Histogram h(0.0, 1.0, 128);
    for (int i = 0; i < 10000; ++i) {
      h.add(rng.normal(i % 2 ? 0.3 : 0.7, 0.07));
    }
    core::DimensionPartition p;
    p.bins = 128;
    p.cuts = {64};
    hists.push_back(std::move(h));
    partitions.push_back(std::move(p));
  }
  std::vector<core::Cell> cells;
  for (std::uint32_t c = 0; c < 16; ++c) {
    core::Cell cell;
    for (int j = 0; j < 8; ++j) cell.coord.push_back((c >> (j % 4)) & 1);
    cell.density = 100.0 + c;
    cells.push_back(std::move(cell));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::histogram_calinski_harabasz(hists, partitions, cells));
  }
}
BENCHMARK(BM_HistogramCalinskiHarabasz);

void BM_AllreduceHistograms(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  // One KeyBin2 histogram exchange: n_rp=11 dims x 128 bins of doubles.
  const std::size_t len = 11 * 128;
  for (auto _ : state) {
    comm::run_ranks(ranks, [&](comm::Communicator& c) {
      std::vector<double> local(len, static_cast<double>(c.rank()));
      benchmark::DoNotOptimize(c.allreduce(local, comm::ReduceOp::kSum));
    });
  }
}
BENCHMARK(BM_AllreduceHistograms)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_ReduceSteadyStateAllocs(benchmark::State& state) {
  // Satellite contract: the reduce hot loop holds pooled scratch
  // (block_scratch_ / recv_block_scratch_ / frame pools), so steady-state
  // allreduces must not allocate per round beyond the caller-visible result
  // vector. The budget below is calibrated ~2x the pooled steady state;
  // losing the pooling (a fresh ByteWriter per segment per round) blows
  // through it by an order of magnitude, and this harness then fails hard.
  constexpr int kRanks = 8;
  constexpr std::size_t kLen = 16 * 4096;
  constexpr int kOps = 8;
  constexpr double kAllocBudgetPerReducePerRank = 8.0;
  std::uint64_t allocs = 0;
  for (auto _ : state) {
    comm::run_ranks(kRanks, [&](comm::Communicator& c) {
      std::vector<double> local(kLen, 0.0);
      for (int k = 0; k < 32; ++k) {
        local[static_cast<std::size_t>((c.rank() * 977 + k * 131) % kLen)] =
            1.0;
      }
      // Two warmup rounds grow every pool to its steady-state capacity.
      for (int i = 0; i < 2; ++i) {
        benchmark::DoNotOptimize(c.allreduce(
            local, comm::ReduceOp::kSum, comm::AllreduceAlgo::kRecursiveHalving));
      }
      c.barrier();
      if (c.rank() == 0) {
        g_alloc_count.store(0);
        g_count_allocs.store(true);
      }
      c.barrier();  // every rank is between the toggles only via barriers
      for (int i = 0; i < kOps; ++i) {
        benchmark::DoNotOptimize(c.allreduce(
            local, comm::ReduceOp::kSum, comm::AllreduceAlgo::kRecursiveHalving));
      }
      c.barrier();
      if (c.rank() == 0) {
        g_count_allocs.store(false);
        allocs = g_alloc_count.load();
      }
      c.barrier();  // teardown (thread join, vector frees) stays uncounted
    });
  }
  const double per_op =
      static_cast<double>(allocs) / (kOps * static_cast<double>(kRanks));
  state.counters["allocs_per_reduce_per_rank"] = per_op;
  if (per_op > kAllocBudgetPerReducePerRank) {
    std::fprintf(stderr,
                 "BM_ReduceSteadyStateAllocs: %.1f allocs per reduce per rank "
                 "exceeds budget %.1f — reduce hot loop is allocating\n",
                 per_op, kAllocBudgetPerReducePerRank);
    std::exit(1);
  }
}
BENCHMARK(BM_ReduceSteadyStateAllocs)->Iterations(1);

void BM_EndToEndFit(benchmark::State& state) {
  const auto dims = static_cast<std::size_t>(state.range(0));
  const auto spec = data::make_paper_mixture(dims, 4, 7);
  const auto d = data::sample(spec, 5000, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::fit(d.points));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(5000) *
                          state.iterations());
}
BENCHMARK(BM_EndToEndFit)->Arg(20)->Arg(320)->Unit(benchmark::kMillisecond);

void BM_EndToEndFitInstrumented(benchmark::State& state) {
  // The same fit with the full observability stack on: comm probe, metrics
  // registry, timeline capture. Compare against BM_EndToEndFit at the same
  // Arg — the budget is <5% overhead enabled; disabled costs one null-probe
  // branch per send/recv and shows up as no measurable delta.
  const auto dims = static_cast<std::size_t>(state.range(0));
  const auto spec = data::make_paper_mixture(dims, 4, 7);
  const auto d = data::sample(spec, 5000, 8);
  const core::Params params;
  for (auto _ : state) {
    runtime::Context ctx(params.seed);
    ctx.enable_timeline();  // implies enable_comm_metrics()
    benchmark::DoNotOptimize(core::fit(ctx, d.points, params));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(5000) *
                          state.iterations());
}
BENCHMARK(BM_EndToEndFitInstrumented)
    ->Arg(20)
    ->Arg(320)
    ->Unit(benchmark::kMillisecond);

}  // namespace

// Hand-rolled main instead of BENCHMARK_MAIN(): after the benchmark run we
// emit BENCH_micro_benchmarks.json like every other harness. It carries the
// machine and build provenance only — google-benchmark prints its own
// timings and owns argv, so the bench options stay at their defaults.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  bench::Options opt;
  opt.name = "micro_benchmarks";
  bench::Reporter::global().write(opt);
  return 0;
}
