// Rank-local worker pool for data-parallel kernels.
//
// The paper offloads key assignment and histogram construction to a GPU; here
// the same per-point / per-dimension decomposition runs on a thread pool
// (CP.4: think in tasks; CP.24: the pool joins in its destructor).
//
// parallel_for runs on a no-allocation fork-join path: the caller publishes
// one borrowed job descriptor, workers (and the caller itself) claim chunk
// indices from an atomic cursor, and completion is a count of the workers
// still holding the job — no per-chunk std::function allocations, no task
// queue churn. Grain-size
// control caps how finely a range is split so small-n stages stop paying
// dispatch overhead for chunks not worth a wake-up.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace keybin2 {

class ThreadPool {
 public:
  /// threads == 0 selects hardware_concurrency() (minimum 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  /// Tag selecting a zero-worker pool: every parallel_for runs inline on the
  /// calling thread. The only pool that may exist in a freshly forked child
  /// of a multi-threaded process, where starting threads is not an option.
  struct Inline {};
  explicit ThreadPool(Inline) {}

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Run fn(begin, end) over [0, n) split into contiguous chunks (at most one
  /// per worker) and wait for completion. Exceptions from tasks are rethrown
  /// on the calling thread (first one wins).
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t, std::size_t)>& fn) {
    parallel_for(n, /*grain=*/1, fn);
  }

  /// Grained variant: no chunk is smaller than `grain` items (except the
  /// whole range), so a range of n items forks at most
  /// min(workers, ceil(n / grain)) chunks. Ranges that fit in one grain run
  /// inline with zero synchronization. A call made while another fork-join
  /// is in flight (from another rank sharing the pool, or nested inside a
  /// chunk) also runs inline, serially, without holding the pool's lock —
  /// the pool is a flat fork-join, not a scheduler.
  void parallel_for(std::size_t n, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t)>& fn);

 private:
  /// One fork-join job: chunk geometry plus the claim cursor. The job and
  /// its callable live in the caller's frame, so parallel_for returns only
  /// once no worker holds the job (holders_).
  struct Job {
    const std::function<void(std::size_t, std::size_t)>* fn = nullptr;
    std::size_t n = 0;
    std::size_t chunks = 0;
    std::size_t base = 0;   // chunk c covers base items (+1 for c < extra)
    std::size_t extra = 0;
    std::atomic<std::size_t> next_chunk{0};
    std::exception_ptr first_error;
    std::mutex err_mu;
  };

  void worker_loop();
  /// Claim and run chunks of `job` until the cursor is exhausted.
  static void drain(Job& job);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;       // workers: new job or stop
  std::condition_variable done_cv_;  // caller: no worker holds the job
  Job* job_ = nullptr;               // guarded by mu_
  std::uint64_t job_generation_ = 0; // guarded by mu_
  std::size_t holders_ = 0;          // workers inside job_; guarded by mu_
  bool stop_ = false;
};

/// Process-wide pool shared by kernels that do not need a private pool.
ThreadPool& global_pool();

/// Install a zero-worker inline pool as the global pool. Must be called in a
/// child process immediately after fork(): the parent's worker threads do not
/// exist in the child, so any previously created pool is unusable there (and
/// under TSan, starting replacement threads after a multi-threaded fork
/// aborts). The old pool object is deliberately leaked — its threads are not
/// ours to join from the child.
void reset_global_pool_after_fork();

}  // namespace keybin2
