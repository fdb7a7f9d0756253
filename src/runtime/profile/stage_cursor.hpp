// Lock-free primitives of the continuous profiler (DESIGN.md §8).
//
// The sampling profiler needs to read "what stage is this rank in right
// now?" from a context that may not take locks or allocate: a SIGPROF
// handler interrupting the rank itself (process backend), or a sampler
// thread racing the rank (thread backend). Two fixed-size structures carry
// the whole data path:
//
//   * StageCursor — a seqlock-versioned copy of the current scope path.
//     The rank thread is the only writer (it republishes at every scope
//     open/close); readers copy the buffer and retry/drop on a torn read.
//     This is the same publish-after-copy discipline as the ProcComm ring
//     heads: bump the sequence odd, write the payload, bump it even with
//     release ordering. The payload itself is relaxed atomics, so a reader
//     racing the writer sees torn data (and drops it), never a data race.
//   * SampleTable — open-addressing hash table of (stage path -> hit
//     count) with a single designated writer (the signal handler or the
//     hub thread). record() never allocates, never locks, and degrades to
//     a dropped-sample counter when the table is full or the cursor read
//     tore — a dropped sample is invisible noise, a blocked sampler would
//     be a heisenbug.
//
// Both are async-signal-safe on the writer path by construction: no
// malloc, no locks, bounded loops only.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace keybin2::runtime::profile {

/// Seqlock-published mirror of the rank's current scope path. One writer
/// (the rank thread), any number of readers (sampler thread, the rank's own
/// SIGPROF handler). Paths longer than kMaxPath-1 keep their tail — the
/// leaf stage is the interesting part of "fit/trial12/bin".
class StageCursor {
 public:
  static constexpr std::size_t kMaxPath = 96;

  void publish(std::string_view path) {
    if (path.size() > kMaxPath - 1) {
      path.remove_prefix(path.size() - (kMaxPath - 1));
    }
    seq_.store(seq_.load(std::memory_order_relaxed) + 1,
               std::memory_order_release);  // odd: write in progress
    std::atomic_thread_fence(std::memory_order_release);
    len_.store(static_cast<std::uint32_t>(path.size()),
               std::memory_order_relaxed);
    for (std::size_t i = 0; i < path.size(); ++i) {
      path_[i].store(path[i], std::memory_order_relaxed);
    }
    std::atomic_thread_fence(std::memory_order_release);
    seq_.store(seq_.load(std::memory_order_relaxed) + 1,
               std::memory_order_release);  // even: stable
  }

  /// Copy the current path into `out` (>= kMaxPath bytes). Returns false on
  /// a torn read (writer mid-publish) — the caller drops the sample rather
  /// than spin, because under SIGPROF the interrupted writer cannot finish
  /// until the handler returns.
  bool snapshot(char* out, std::uint32_t* len) const {
    const std::uint32_t s1 = seq_.load(std::memory_order_acquire);
    if ((s1 & 1u) != 0) return false;
    std::atomic_thread_fence(std::memory_order_acquire);
    const std::uint32_t n = len_.load(std::memory_order_relaxed);
    if (n > kMaxPath - 1) return false;  // torn length
    for (std::uint32_t i = 0; i < n; ++i) {
      out[i] = path_[i].load(std::memory_order_relaxed);
    }
    out[n] = '\0';
    std::atomic_thread_fence(std::memory_order_acquire);
    if (seq_.load(std::memory_order_acquire) != s1) return false;
    *len = n;
    return true;
  }

 private:
  std::atomic<std::uint32_t> seq_{0};
  std::atomic<std::uint32_t> len_{0};
  std::atomic<char> path_[kMaxPath] = {};
};

/// Fixed-size open-addressing (path -> sample count) table with one
/// designated writer. Readers (flamegraph export) run after sampling has
/// stopped, so only the writer path needs the lock-free discipline.
class SampleTable {
 public:
  static constexpr std::size_t kSlots = 512;
  static constexpr std::size_t kMaxPath = StageCursor::kMaxPath;

  struct Slot {
    std::atomic<std::uint32_t> used{0};
    char path[kMaxPath] = {};
    std::atomic<std::uint64_t> count{0};
  };

  /// Record one hit of `path` (len bytes). Signal-safe: linear probe over a
  /// fixed array, no allocation. A full table counts the sample as dropped
  /// instead of evicting — sampling is best-effort by design.
  void record(const char* path, std::uint32_t len) {
    total_.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t h = fnv1a(path, len);
    for (std::size_t probe = 0; probe < kSlots; ++probe) {
      Slot& s = slots_[(h + probe) % kSlots];
      if (s.used.load(std::memory_order_acquire) == 0) {
        std::memcpy(s.path, path, len);
        s.path[len] = '\0';
        s.used.store(1, std::memory_order_release);
        s.count.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      if (std::strncmp(s.path, path, kMaxPath) == 0 &&
          s.path[len] == '\0') {
        s.count.fetch_add(1, std::memory_order_relaxed);
        return;
      }
    }
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }

  void drop() {
    total_.fetch_add(1, std::memory_order_relaxed);
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }

  std::uint64_t total() const {
    return total_.load(std::memory_order_relaxed);
  }
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Visit every occupied slot (call only after sampling stopped).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.used.load(std::memory_order_acquire) != 0) {
        fn(std::string_view(s.path), s.count.load(std::memory_order_relaxed));
      }
    }
  }

 private:
  static std::uint64_t fnv1a(const char* data, std::uint32_t len) {
    std::uint64_t h = 1469598103934665603ull;
    for (std::uint32_t i = 0; i < len; ++i) {
      h ^= static_cast<unsigned char>(data[i]);
      h *= 1099511628211ull;
    }
    return h;
  }

  Slot slots_[kSlots];
  std::atomic<std::uint64_t> total_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

/// Per-interval sample counts, flushed into the Timeline as counter events
/// at Profiler::stop() — the "sample density" track in the Chrome trace.
/// Fixed capacity: runs longer than kMaxBuckets * bucket_ns fold their
/// tail samples into the last bucket (density flattens, never lies about
/// totals).
struct DensitySeries {
  static constexpr std::size_t kMaxBuckets = 600;

  std::int64_t t0_ns = 0;
  std::int64_t bucket_ns = 100'000'000;  // 100 ms
  std::atomic<std::uint32_t> counts[kMaxBuckets] = {};

  void record(std::int64_t t_ns) {
    std::int64_t idx = (t_ns - t0_ns) / bucket_ns;
    if (idx < 0) idx = 0;
    if (idx >= static_cast<std::int64_t>(kMaxBuckets)) {
      idx = kMaxBuckets - 1;
    }
    counts[idx].fetch_add(1, std::memory_order_relaxed);
  }
};

/// "fit/trial12/bin" -> "fit;trial*;bin": one collapsed-stack (flamegraph)
/// frame line from a folded scope path. Declared here so the sampler, the
/// profiler export, and the tests agree on the separator.
std::string collapse_stack(std::string_view folded_path);

}  // namespace keybin2::runtime::profile
