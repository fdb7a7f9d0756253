#include "runtime/segment.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <new>

#if defined(__linux__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "common/error.hpp"
#include "common/timer.hpp"
#include "runtime/flight/flight.hpp"
#include "runtime/profile/telemetry.hpp"

namespace keybin2::runtime {

namespace {

constexpr std::uint32_t kMaxRanks = 4096;
constexpr std::uint32_t kMaxSlots = 1u << 24;

static_assert(sizeof(SegmentHeader) % alignof(profile::TelemetrySlot) == 0);
static_assert(sizeof(profile::TelemetrySlot) % alignof(flight::RankControl) ==
              0);

std::size_t rings_offset(std::uint32_t n_ranks) {
  return sizeof(SegmentHeader) +
         std::size_t{n_ranks} * sizeof(profile::TelemetrySlot);
}

std::size_t ring_stride(std::uint32_t slots_per_rank) {
  return sizeof(flight::RankControl) +
         std::size_t{slots_per_rank} * sizeof(flight::FlightRecord);
}

std::size_t segment_bytes(std::uint32_t n_ranks, std::uint32_t slots_per_rank) {
  return rings_offset(n_ranks) +
         std::size_t{n_ranks} * ring_stride(slots_per_rank);
}

std::string normalize_name(std::string name) {
  if (!name.empty() && name[0] != '/') name.insert(name.begin(), '/');
  return name;
}

}  // namespace

#if defined(__linux__)

RankSegment::RankSegment(int n_ranks, std::string_view job, std::string name,
                         std::uint32_t slots_per_rank)
    : name_(normalize_name(std::move(name))), creator_(true) {
  KB2_CHECK_MSG(n_ranks >= 1 && n_ranks <= static_cast<int>(kMaxRanks),
                "rank segment needs 1.." << kMaxRanks << " ranks, got "
                                         << n_ranks);
  KB2_CHECK_MSG(slots_per_rank >= 8 && slots_per_rank <= kMaxSlots,
                "flight ring needs 8.." << kMaxSlots << " slots, got "
                                        << slots_per_rank);
  const auto ranks = static_cast<std::uint32_t>(n_ranks);
  len_ = segment_bytes(ranks, slots_per_rank);
  void* base = nullptr;
  if (name_.empty()) {
    base = ::mmap(nullptr, len_, PROT_READ | PROT_WRITE,
                  MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    KB2_CHECK_MSG(base != MAP_FAILED,
                  "rank segment mmap failed (" << len_ << " bytes)");
  } else {
    // A stale object with this name (a crashed earlier job) is replaced,
    // not reused: its header may describe a different layout.
    int fd = ::shm_open(name_.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
    if (fd < 0 && errno == EEXIST) {
      ::shm_unlink(name_.c_str());
      fd = ::shm_open(name_.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
    }
    if (fd < 0) throw Error("rank segment: shm_open(" + name_ + ") failed");
    if (::ftruncate(fd, static_cast<off_t>(len_)) != 0) {
      ::close(fd);
      ::shm_unlink(name_.c_str());
      throw Error("rank segment: ftruncate failed for " + name_);
    }
    base = ::mmap(nullptr, len_, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
    ::close(fd);
    if (base == MAP_FAILED) {
      ::shm_unlink(name_.c_str());
      throw Error("rank segment: mmap failed for " + name_);
    }
  }
  // Both kinds of mapping start zero-filled, which is every ring's and
  // control block's initial state.
  header_ = new (base) SegmentHeader();
  header_->version = SegmentHeader::kVersion;
  header_->n_ranks = ranks;
  header_->slots_per_rank = slots_per_rank;
  header_->creator_pid = static_cast<std::int32_t>(::getpid());
  header_->created_ns = now_ns();
  const std::size_t job_len = std::min(job.size(), sizeof(header_->job) - 1);
  std::memcpy(header_->job, job.data(), job_len);
  for (int r = 0; r < n_ranks; ++r) new (slot(r)) profile::TelemetrySlot();
  // Publish the magic last: an observer attaching mid-construction sees
  // "not a segment", never a half-written header.
  std::atomic_thread_fence(std::memory_order_release);
  store_shared(header_->magic, SegmentHeader::kMagic,
               std::memory_order_release);
}

RankSegment::~RankSegment() {
  if (header_ != nullptr) ::munmap(header_, len_);
  if (creator_ && !name_.empty()) ::shm_unlink(name_.c_str());
}

std::unique_ptr<RankSegment> RankSegment::attach(const std::string& name,
                                                 std::string* error) {
  const std::string norm = normalize_name(name);
  auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return nullptr;
  };
  const int fd = ::shm_open(norm.c_str(), O_RDONLY, 0);
  if (fd < 0) return fail("no telemetry segment at " + norm);
  SegmentHeader hdr;
  struct stat st = {};
  const bool stat_ok = ::fstat(fd, &st) == 0;
  const ssize_t n = ::read(fd, &hdr, sizeof(hdr));
  if (!stat_ok || n != static_cast<ssize_t>(sizeof(hdr)) ||
      hdr.magic != SegmentHeader::kMagic ||
      hdr.version != SegmentHeader::kVersion || hdr.n_ranks == 0 ||
      hdr.n_ranks > kMaxRanks || hdr.slots_per_rank < 8 ||
      hdr.slots_per_rank > kMaxSlots) {
    ::close(fd);
    return fail(norm + " is not a telemetry segment");
  }
  // Mapping past the object's end would turn the first read of a missing
  // page into SIGBUS, so a short object is refused before anything maps.
  const std::size_t len = segment_bytes(hdr.n_ranks, hdr.slots_per_rank);
  if (static_cast<std::size_t>(st.st_size) < len) {
    ::close(fd);
    return fail(norm + " is truncated: " + std::to_string(st.st_size) +
                " bytes, its header's layout needs " + std::to_string(len));
  }
  void* base = ::mmap(nullptr, len, PROT_READ, MAP_SHARED, fd, 0);
  ::close(fd);
  if (base == MAP_FAILED) return fail("mmap failed for " + norm);
  std::unique_ptr<RankSegment> seg(new RankSegment());
  seg->name_ = norm;
  seg->header_ = static_cast<SegmentHeader*>(base);
  seg->len_ = len;
  return seg;
}

#else  // !__linux__

RankSegment::RankSegment(int, std::string_view, std::string, std::uint32_t) {
  throw Error("rank segment: shared memory requires Linux");
}
RankSegment::~RankSegment() = default;

std::unique_ptr<RankSegment> RankSegment::attach(const std::string&,
                                                 std::string* error) {
  if (error != nullptr) *error = "telemetry attach requires Linux";
  return nullptr;
}

#endif

profile::TelemetrySlot* RankSegment::slot(int rank) const {
  KB2_CHECK_MSG(rank >= 0 && rank < n_ranks(),
                "rank " << rank << " outside a " << n_ranks()
                        << "-rank segment");
  return reinterpret_cast<profile::TelemetrySlot*>(
             reinterpret_cast<char*>(header_) + sizeof(SegmentHeader)) +
         rank;
}

flight::RankControl* RankSegment::rank_control(int rank) const {
  KB2_CHECK_MSG(rank >= 0 && rank < n_ranks(),
                "rank " << rank << " outside a " << n_ranks()
                        << "-rank segment");
  return reinterpret_cast<flight::RankControl*>(
      reinterpret_cast<char*>(header_) + rings_offset(header_->n_ranks) +
      static_cast<std::size_t>(rank) * ring_stride(header_->slots_per_rank));
}

flight::FlightRecord* RankSegment::ring(int rank) const {
  return reinterpret_cast<flight::FlightRecord*>(rank_control(rank) + 1);
}

}  // namespace keybin2::runtime
