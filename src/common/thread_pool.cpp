#include "common/thread_pool.hpp"

#include <algorithm>

namespace keybin2 {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::drain(Job& job) {
  for (;;) {
    const std::size_t c = job.next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (c >= job.chunks) break;
    const std::size_t begin =
        c * job.base + std::min(c, job.extra);
    const std::size_t end = begin + job.base + (c < job.extra ? 1 : 0);
    try {
      (*job.fn)(begin, end);
    } catch (...) {
      std::lock_guard lk(job.err_mu);
      if (!job.first_error) job.first_error = std::current_exception();
    }
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen_generation = 0;
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock lk(mu_);
      cv_.wait(lk, [&] {
        return stop_ || (job_ != nullptr && job_generation_ != seen_generation);
      });
      if (stop_) return;
      job = job_;
      seen_generation = job_generation_;
      ++holders_;
    }
    drain(*job);
    // The job lives in the caller's frame: the caller may not return until
    // this worker has let go of it, even when every chunk is already done.
    {
      std::lock_guard lk(mu_);
      if (--holders_ == 0) done_cv_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  // At most one chunk per worker (never more chunks than grains fit in n).
  const std::size_t by_grain = (n + grain - 1) / grain;
  const std::size_t chunks = std::max<std::size_t>(
      1, std::min({n, workers_.size(), by_grain}));
  if (chunks <= 1) {
    fn(0, n);
    return;
  }

  Job job;
  job.fn = &fn;
  job.n = n;
  job.chunks = chunks;
  job.base = n / chunks;
  job.extra = n % chunks;

  bool busy = false;
  {
    std::lock_guard lk(mu_);
    busy = job_ != nullptr;
    if (!busy) {
      job_ = &job;
      ++job_generation_;
    }
  }
  if (busy) {
    // Another fork-join is in flight: a rank sharing the global pool, or
    // this very thread nested inside a chunk (job_ stays set until its owner
    // has drained and every worker has let go). Run inline rather than
    // queueing behind it, and outside the lock, which the owner's workers
    // need to leave their job.
    fn(0, n);
    return;
  }
  cv_.notify_all();

  // The caller helps: claim chunks alongside the workers, then wait for
  // every worker that took the job to leave it. Once this drain returns,
  // every chunk is claimed, and a worker finishes its chunks before it lets
  // go, so no holders means every chunk is done. Clearing job_ under the
  // same lock keeps any later worker from taking it.
  drain(job);
  {
    std::unique_lock lk(mu_);
    done_cv_.wait(lk, [&] { return holders_ == 0; });
    job_ = nullptr;
  }
  if (job.first_error) std::rethrow_exception(job.first_error);
}

namespace {

// The global pool lives behind an atomic pointer (not a function-local
// static) so a forked child can swap in a fork-safe replacement without
// touching the parent's pool, whose worker threads do not exist in the child.
std::atomic<ThreadPool*> g_pool{nullptr};
std::mutex g_pool_mu;

}  // namespace

ThreadPool& global_pool() {
  ThreadPool* p = g_pool.load(std::memory_order_acquire);
  if (p != nullptr) return *p;
  std::lock_guard lk(g_pool_mu);
  p = g_pool.load(std::memory_order_relaxed);
  if (p == nullptr) {
    p = new ThreadPool();
    g_pool.store(p, std::memory_order_release);
  }
  return *p;
}

void reset_global_pool_after_fork() {
  // Runs in a single-threaded child: a plain store suffices, and it must not
  // take g_pool_mu (the fork may have captured it locked by another thread).
  // Later global_pool() calls see the non-null pointer and never lock.
  g_pool.store(new ThreadPool(ThreadPool::Inline{}), std::memory_order_release);
}

}  // namespace keybin2
