#include "runtime/profile/telemetry.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>

#if defined(__linux__)
#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>
#endif

#include "common/error.hpp"
#include "common/timer.hpp"

namespace keybin2::runtime::profile {

namespace {

// The slot array starts right after the header.
static_assert(sizeof(TelemetryHeader) % alignof(TelemetrySlot) == 0);

std::size_t segment_len(int n_ranks) {
  return sizeof(TelemetryHeader) +
         static_cast<std::size_t>(n_ranks) * sizeof(TelemetrySlot);
}

std::string normalize_name(std::string name) {
  if (!name.empty() && name[0] != '/') name.insert(name.begin(), '/');
  return name;
}

// The slot seqlock, over plain POD fields: std::atomic_ref keeps the struct
// trivially shareable across fork while giving the fences teeth.
std::uint32_t load_seq(const TelemetrySlot* s) {
  return std::atomic_ref<const std::uint32_t>(s->seq).load(
      std::memory_order_acquire);
}

void store_seq(TelemetrySlot* s, std::uint32_t v) {
  std::atomic_ref<std::uint32_t>(s->seq).store(v, std::memory_order_release);
}

void fill_slot(TelemetrySlot* slot, const TelemetryPublisher::Update& u,
               std::int64_t t_ns) {
  slot->state = u.state;
  slot->incarnation = u.incarnation;
#if defined(__linux__)
  slot->pid = static_cast<std::int32_t>(::getpid());
#endif
  slot->published_ns = t_ns;
  slot->samples = u.samples;
  slot->points_total = u.points_total;
  slot->points_per_sec = u.points_per_sec;
  slot->wait_ratio = u.wait_ratio;
  slot->rss_kb = read_rss_kb();
  slot->anomalies = u.anomalies;
  slot->respawns_total = u.respawns_total;
  slot->regrow_epochs = u.regrow_epochs;
  slot->recovery_p50_ns = u.recovery_p50_ns;
  slot->recovery_p99_ns = u.recovery_p99_ns;
  auto stage = u.stage;
  if (stage.size() > TelemetrySlot::kMaxStage - 1) {
    stage.remove_prefix(stage.size() - (TelemetrySlot::kMaxStage - 1));
  }
  std::copy(stage.begin(), stage.end(), slot->stage);
  slot->stage[stage.size()] = '\0';
}

void publish_slot(TelemetrySlot* slot, const TelemetryPublisher::Update& u,
                  std::int64_t t_ns) {
  store_seq(slot, slot->seq + 1);  // odd: write in progress
  std::atomic_thread_fence(std::memory_order_release);
  fill_slot(slot, u, t_ns);
  std::atomic_thread_fence(std::memory_order_release);
  store_seq(slot, slot->seq + 1);  // even: stable
}

}  // namespace

std::string telemetry_name_for_pid(int pid) {
  return "/kb2-tele-" + std::to_string(pid);
}

std::uint64_t read_rss_kb() {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long size_pages = 0;
  unsigned long rss_pages = 0;
  const int n = std::fscanf(f, "%lu %lu", &size_pages, &rss_pages);
  std::fclose(f);
  if (n != 2) return 0;
  const long page = ::sysconf(_SC_PAGESIZE);
  return static_cast<std::uint64_t>(rss_pages) *
         static_cast<std::uint64_t>(page > 0 ? page : 4096) / 1024;
#else
  return 0;
#endif
}

#if defined(__linux__)

TelemetrySegment::TelemetrySegment(std::string name, int n_ranks,
                                   std::string_view job)
    : n_ranks_(n_ranks) {
  name_ = name.empty() ? telemetry_name_for_pid(::getpid())
                       : normalize_name(std::move(name));
  // A stale segment with this name (crashed previous job) is replaced, not
  // reused: its header may describe a different rank count.
  int fd = ::shm_open(name_.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
  if (fd < 0 && errno == EEXIST) {
    ::shm_unlink(name_.c_str());
    fd = ::shm_open(name_.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
  }
  if (fd < 0) {
    throw Error("telemetry: shm_open(" + name_ + ") failed");
  }
  len_ = segment_len(n_ranks);
  if (::ftruncate(fd, static_cast<off_t>(len_)) != 0) {
    ::close(fd);
    ::shm_unlink(name_.c_str());
    throw Error("telemetry: ftruncate failed for " + name_);
  }
  base_ = ::mmap(nullptr, len_, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  if (base_ == MAP_FAILED) {
    base_ = nullptr;
    ::shm_unlink(name_.c_str());
    throw Error("telemetry: mmap failed for " + name_);
  }
  // Stays linked — that is the attach surface for kb2_top.
  auto* hdr = new (base_) TelemetryHeader();
  hdr->version = TelemetryHeader::kVersion;
  hdr->n_ranks = static_cast<std::uint32_t>(n_ranks);
  hdr->creator_pid = static_cast<std::int32_t>(::getpid());
  hdr->created_ns = now_ns();
  const std::size_t job_len =
      job.size() < sizeof(hdr->job) - 1 ? job.size() : sizeof(hdr->job) - 1;
  std::memcpy(hdr->job, job.data(), job_len);
  auto* slots = reinterpret_cast<TelemetrySlot*>(
      static_cast<char*>(base_) + sizeof(TelemetryHeader));
  for (int r = 0; r < n_ranks; ++r) new (&slots[r]) TelemetrySlot();
  // Publish the magic last: an observer that attaches mid-construction sees
  // "not a telemetry segment", never a half-written header.
  std::atomic_thread_fence(std::memory_order_release);
  std::atomic_ref<std::uint64_t>(hdr->magic)
      .store(TelemetryHeader::kMagic, std::memory_order_release);
}

TelemetrySegment::~TelemetrySegment() {
  if (base_ != nullptr) ::munmap(base_, len_);
  // Creator unlinks; in forked children the destructor never runs (ranks
  // _exit through the harness), so this fires exactly once.
  ::shm_unlink(name_.c_str());
}

TelemetrySlot* TelemetrySegment::slot(int rank) {
  if (rank < 0 || rank >= n_ranks_ || base_ == nullptr) return nullptr;
  return reinterpret_cast<TelemetrySlot*>(static_cast<char*>(base_) +
                                          sizeof(TelemetryHeader)) +
         rank;
}

std::unique_ptr<TelemetryReader> TelemetryReader::attach(
    const std::string& name, std::string* error) {
  const std::string norm = normalize_name(name);
  const int fd = ::shm_open(norm.c_str(), O_RDONLY, 0);
  if (fd < 0) {
    if (error != nullptr) *error = "no telemetry segment at " + norm;
    return nullptr;
  }
  TelemetryHeader hdr = {};
  const ssize_t n = ::read(fd, &hdr, sizeof(hdr));
  if (n != static_cast<ssize_t>(sizeof(hdr)) ||
      hdr.magic != TelemetryHeader::kMagic ||
      hdr.version != TelemetryHeader::kVersion ||
      hdr.n_ranks == 0 || hdr.n_ranks > 4096) {
    ::close(fd);
    if (error != nullptr) *error = norm + " is not a telemetry segment";
    return nullptr;
  }
  const std::size_t len = segment_len(static_cast<int>(hdr.n_ranks));
  void* base = ::mmap(nullptr, len, PROT_READ, MAP_SHARED, fd, 0);
  ::close(fd);
  if (base == MAP_FAILED) {
    if (error != nullptr) *error = "mmap failed for " + norm;
    return nullptr;
  }
  auto reader = std::unique_ptr<TelemetryReader>(new TelemetryReader());
  reader->header_ = hdr;
  reader->base_ = base;
  reader->len_ = len;
  return reader;
}

TelemetryReader::~TelemetryReader() {
  if (base_ != nullptr) ::munmap(base_, len_);
}

std::vector<TelemetrySample> TelemetryReader::snapshot() const {
  std::vector<TelemetrySample> out;
  const auto* slots = reinterpret_cast<const TelemetrySlot*>(
      static_cast<const char*>(base_) + sizeof(TelemetryHeader));
  for (std::uint32_t r = 0; r < header_.n_ranks; ++r) {
    const TelemetrySlot* src = &slots[r];
    for (int attempt = 0; attempt < 8; ++attempt) {
      const std::uint32_t s1 = load_seq(src);
      if ((s1 & 1u) != 0) continue;  // writer mid-publish
      TelemetrySample sample;
      sample.rank = static_cast<int>(r);
      std::memcpy(&sample.slot, src, sizeof(TelemetrySlot));
      std::atomic_thread_fence(std::memory_order_acquire);
      if (load_seq(src) != s1) continue;
      sample.slot.stage[TelemetrySlot::kMaxStage - 1] = '\0';
      out.push_back(sample);
      break;
    }
  }
  return out;
}

#else  // !__linux__

TelemetrySegment::TelemetrySegment(std::string name, int n_ranks,
                                   std::string_view)
    : name_(normalize_name(std::move(name))), n_ranks_(n_ranks) {
  throw Error("telemetry: shared-memory segment requires Linux");
}
TelemetrySegment::~TelemetrySegment() = default;
TelemetrySlot* TelemetrySegment::slot(int) { return nullptr; }

std::unique_ptr<TelemetryReader> TelemetryReader::attach(const std::string&,
                                                         std::string* error) {
  if (error != nullptr) *error = "telemetry attach requires Linux";
  return nullptr;
}
TelemetryReader::~TelemetryReader() = default;
std::vector<TelemetrySample> TelemetryReader::snapshot() const { return {}; }

#endif

void TelemetryPublisher::maybe_publish(const Update& u) {
  if (slot_ == nullptr) return;
  const std::int64_t t = now_ns();
  if (t - last_publish_ns_ < cadence_ns_) return;
  last_publish_ns_ = t;
  publish_slot(slot_, u, t);
}

void TelemetryPublisher::publish_now(const Update& u) {
  if (slot_ == nullptr) return;
  const std::int64_t t = now_ns();
  last_publish_ns_ = t;
  publish_slot(slot_, u, t);
}

namespace {

void append_json_escaped(std::string* out, std::string_view s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      *out += buf;
    } else {
      out->push_back(c);
    }
  }
}

const char* state_name(std::uint32_t state) {
  switch (state) {
    case TelemetrySlot::kLive: return "live";
    case TelemetrySlot::kDone: return "done";
    default: return "empty";
  }
}

}  // namespace

std::string top_snapshot_json(const TelemetryReader& reader,
                              std::int64_t now_ns_arg) {
  const TelemetryHeader& hdr = reader.header();
  std::string out = "{\n  \"job\": \"";
  append_json_escaped(&out, hdr.job);
  out += "\",\n  \"n_ranks\": " + std::to_string(hdr.n_ranks);
  out += ",\n  \"creator_pid\": " + std::to_string(hdr.creator_pid);
  out += ",\n  \"ranks\": [";
  const auto samples = reader.snapshot();
  char buf[64];
  bool first = true;
  for (const auto& s : samples) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"rank\": " + std::to_string(s.rank);
    out += ", \"state\": \"";
    out += state_name(s.slot.state);
    out += "\", \"incarnation\": " + std::to_string(s.slot.incarnation);
    out += ", \"pid\": " + std::to_string(s.slot.pid);
    out += ", \"stage\": \"";
    append_json_escaped(&out, s.slot.stage);
    out += "\"";
    std::snprintf(buf, sizeof(buf), ", \"points_per_sec\": %.1f",
                  s.slot.points_per_sec);
    out += buf;
    out += ", \"points_total\": " + std::to_string(s.slot.points_total);
    std::snprintf(buf, sizeof(buf), ", \"wait_ratio\": %.4f",
                  s.slot.wait_ratio);
    out += buf;
    out += ", \"rss_kb\": " + std::to_string(s.slot.rss_kb);
    out += ", \"samples\": " + std::to_string(s.slot.samples);
    out += ", \"anomalies\": " + std::to_string(s.slot.anomalies);
    out += ", \"respawns_total\": " + std::to_string(s.slot.respawns_total);
    out += ", \"regrow_epochs\": " + std::to_string(s.slot.regrow_epochs);
    out += ", \"recovery_p50_ns\": " + std::to_string(s.slot.recovery_p50_ns);
    out += ", \"recovery_p99_ns\": " + std::to_string(s.slot.recovery_p99_ns);
    const double age_ms = s.slot.published_ns == 0
                              ? -1.0
                              : static_cast<double>(now_ns_arg -
                                                    s.slot.published_ns) * 1e-6;
    std::snprintf(buf, sizeof(buf), ", \"heartbeat_age_ms\": %.1f", age_ms);
    out += buf;
    out += "}";
  }
  out += first ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

}  // namespace keybin2::runtime::profile
