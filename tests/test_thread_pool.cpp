#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace keybin2 {
namespace {

/// A one-shot signal between test threads. Waits carry a deadline, so a
/// pool that blocks a caller it should not fails the test instead of
/// hanging it.
class Latch {
 public:
  void open() {
    {
      std::lock_guard lk(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }
  bool wait() {
    std::unique_lock lk(mu_);
    return cv_.wait_for(lk, std::chrono::seconds(10), [&] { return open_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

TEST(ThreadPool, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(hits.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, SingleElementRunsInline) {
  ThreadPool pool(4);
  int value = 0;
  pool.parallel_for(1, [&](std::size_t begin, std::size_t end) {
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 1u);
    value = 42;
  });
  EXPECT_EQ(value, 42);
}

TEST(ThreadPool, PropagatesTaskException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](std::size_t begin, std::size_t) {
                          if (begin == 0) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, UsableAfterException) {
  ThreadPool pool(2);
  try {
    pool.parallel_for(10, [](std::size_t, std::size_t) {
      throw std::runtime_error("first");
    });
  } catch (const std::runtime_error&) {
  }
  std::atomic<int> sum{0};
  pool.parallel_for(10, [&](std::size_t begin, std::size_t end) {
    sum.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(sum.load(), 10);
}

TEST(ThreadPool, SizeReflectsWorkerCount) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, DefaultHasAtLeastOneWorker) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, GlobalPoolIsShared) {
  EXPECT_EQ(&global_pool(), &global_pool());
}

TEST(ThreadPool, GrainBoundsChunkCount) {
  ThreadPool pool(8);
  std::atomic<int> chunks{0};
  std::atomic<std::size_t> total{0};
  pool.parallel_for(1000, /*grain=*/300,
                    [&](std::size_t begin, std::size_t end) {
                      chunks.fetch_add(1);
                      total.fetch_add(end - begin);
                    });
  EXPECT_EQ(total.load(), 1000u);
  // ceil(1000 / 300) = 4 chunks at most, regardless of worker count.
  EXPECT_LE(chunks.load(), 4);
}

TEST(ThreadPool, GrainLargerThanRangeRunsInline) {
  ThreadPool pool(8);
  const auto caller = std::this_thread::get_id();
  std::atomic<int> chunks{0};
  pool.parallel_for(100, /*grain=*/1000,
                    [&](std::size_t begin, std::size_t end) {
                      EXPECT_EQ(std::this_thread::get_id(), caller);
                      EXPECT_EQ(begin, 0u);
                      EXPECT_EQ(end, 100u);
                      chunks.fetch_add(1);
                    });
  EXPECT_EQ(chunks.load(), 1);
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(4);
  std::atomic<std::size_t> inner_total{0};
  pool.parallel_for(8, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      // A pool worker (or the caller) re-entering parallel_for must not wait
      // on the pool it is already servicing; the nested loop runs inline.
      pool.parallel_for(10, [&](std::size_t b, std::size_t e) {
        inner_total.fetch_add(e - b);
      });
    }
  });
  EXPECT_EQ(inner_total.load(), 80u);
}

TEST(ThreadPool, BackToBackLoopsProduceStableResults) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::size_t> total{0};
    pool.parallel_for(257, /*grain=*/16, [&](std::size_t b, std::size_t e) {
      total.fetch_add(e - b);
    });
    ASSERT_EQ(total.load(), 257u) << "round " << round;
  }
}

TEST(ThreadPool, CallerOutlivesEveryWorkerThatTookItsJob) {
  // A worker that took the job can be descheduled before it claims a chunk,
  // while the caller drains every chunk itself. parallel_for must not return
  // (ending the frame that holds the job) until that worker has let go.
  // Busy threads oversubscribe the cores so late workers are common; two
  // callers keep the job slot busy. Under ASan with
  // detect_stack_use_after_return=1, any touch of a returned frame aborts.
  ThreadPool pool(4);
  std::atomic<bool> stop{false};
  std::vector<std::thread> busy;
  for (int i = 0; i < 8; ++i) {
    busy.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
      }
    });
  }
  std::atomic<int> wrong{0};
  const auto caller = [&] {
    for (int round = 0; round < 200000; ++round) {
      int slots[4] = {-1, -1, -1, -1};  // stack-local state the chunks write
      pool.parallel_for(4, /*grain=*/1, [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) slots[i] = round;
      });
      for (const int v : slots) {
        if (v != round) wrong.fetch_add(1);
      }
    }
  };
  std::thread a(caller);
  std::thread b(caller);
  a.join();
  b.join();
  stop.store(true);
  for (auto& t : busy) t.join();
  EXPECT_EQ(wrong.load(), 0);
}

TEST(ThreadPool, OwnerReturnsWhileAnotherCallersFallbackKernelRuns) {
  // Caller A owns the fork-join; caller B arrives while it is in flight and
  // runs its own kernel inline. A's workers must be able to leave A's job
  // while B's kernel runs, so A returns first.
  ThreadPool pool(4);
  Latch a_in_kernel, b_in_kernel, a_returned;
  bool b_saw_a_return = false;
  std::thread b([&] {
    if (!a_in_kernel.wait()) return;
    pool.parallel_for(4, [&](std::size_t, std::size_t) {
      b_in_kernel.open();
      b_saw_a_return = a_returned.wait();
    });
  });
  pool.parallel_for(4, [&](std::size_t, std::size_t) {
    a_in_kernel.open();
    (void)b_in_kernel.wait();  // keeps A's job in flight until B runs inline
  });
  a_returned.open();
  b.join();
  EXPECT_TRUE(b_saw_a_return)
      << "the owner returned only after the fallback kernel had ended";
}

/// Caller B runs a kernel inline while caller A's fork-join is in flight,
/// and that kernel calls parallel_for itself. Returns the items the nested
/// call covered.
std::size_t parallel_for_inside_a_fallback_kernel() {
  ThreadPool pool(4);
  Latch a_in_kernel, b_returned;
  std::atomic<std::size_t> nested{0};
  std::thread b([&] {
    if (!a_in_kernel.wait()) return;
    pool.parallel_for(4, [&](std::size_t, std::size_t) {
      pool.parallel_for(10, [&](std::size_t lo, std::size_t hi) {
        nested.fetch_add(hi - lo);
      });
    });
    b_returned.open();
  });
  pool.parallel_for(4, [&](std::size_t, std::size_t) {
    a_in_kernel.open();
    (void)b_returned.wait();  // keeps A's job in flight until B is done
  });
  b.join();
  return nested.load();
}

TEST(ThreadPoolDeathTest, ParallelForInsideAFallbackKernelReturns) {
  // A deadlock cannot be joined, so the scenario runs in a child process
  // whose alarm turns a hang into a failed exit.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        alarm(30);
        std::exit(parallel_for_inside_a_fallback_kernel() == 10 ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

class ThreadPoolShapes
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(ThreadPoolShapes, PartitionIsExact) {
  const auto [workers, n] = GetParam();
  ThreadPool pool(workers);
  std::atomic<std::size_t> total{0};
  std::atomic<int> chunks{0};
  pool.parallel_for(n, [&](std::size_t begin, std::size_t end) {
    EXPECT_LT(begin, end);
    total.fetch_add(end - begin);
    chunks.fetch_add(1);
  });
  EXPECT_EQ(total.load(), n);
  EXPECT_LE(static_cast<std::size_t>(chunks.load()), std::max<std::size_t>(workers, 1));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ThreadPoolShapes,
    ::testing::Values(std::pair<std::size_t, std::size_t>{1, 10},
                      std::pair<std::size_t, std::size_t>{2, 3},
                      std::pair<std::size_t, std::size_t>{4, 4},
                      std::pair<std::size_t, std::size_t>{4, 1000},
                      std::pair<std::size_t, std::size_t>{8, 7},
                      std::pair<std::size_t, std::size_t>{3, 100}));

}  // namespace
}  // namespace keybin2
