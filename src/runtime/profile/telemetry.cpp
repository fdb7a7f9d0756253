#include "runtime/profile/telemetry.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>

#if defined(__linux__)
#include <unistd.h>
#endif

#include "common/timer.hpp"

namespace keybin2::runtime::profile {

namespace {

void fill_slot(TelemetrySlot* slot, const TelemetryPublisher::Update& u,
               std::int64_t t_ns, std::uint64_t rss_kb) {
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
  slot->rss_kb = rss_kb;
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
  // Read RSS (a /proc file read) before the slot goes odd: a reader retries
  // a torn slot only a few times before skipping it, so the write window
  // must stay a handful of stores.
  const std::uint64_t rss_kb = read_rss_kb();
  // The seqlock runs over a plain POD field, so the slot stays trivially
  // shareable across fork while the fences have teeth.
  store_shared(slot->seq, slot->seq + 1,
               std::memory_order_release);  // odd: write in progress
  std::atomic_thread_fence(std::memory_order_release);
  fill_slot(slot, u, t_ns, rss_kb);
  std::atomic_thread_fence(std::memory_order_release);
  store_shared(slot->seq, slot->seq + 1,
               std::memory_order_release);  // even: stable
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

std::vector<TelemetrySample> read_telemetry(const RankSegment& seg) {
  std::vector<TelemetrySample> out;
  for (int r = 0; r < seg.n_ranks(); ++r) {
    const TelemetrySlot* src = seg.slot(r);
    for (int attempt = 0; attempt < 8; ++attempt) {
      const std::uint32_t s1 =
          load_shared(src->seq, std::memory_order_acquire);
      if ((s1 & 1u) != 0) continue;  // writer mid-publish
      TelemetrySample sample;
      sample.rank = r;
      std::memcpy(&sample.slot, src, sizeof(TelemetrySlot));
      std::atomic_thread_fence(std::memory_order_acquire);
      if (load_shared(src->seq, std::memory_order_acquire) != s1) continue;
      sample.slot.stage[TelemetrySlot::kMaxStage - 1] = '\0';
      out.push_back(sample);
      break;
    }
  }
  return out;
}

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

std::string top_snapshot_json(const RankSegment& seg,
                              std::int64_t now_ns_arg) {
  const SegmentHeader& hdr = seg.header();
  std::string out = "{\n  \"job\": \"";
  append_json_escaped(&out, hdr.job);
  out += "\",\n  \"n_ranks\": " + std::to_string(hdr.n_ranks);
  out += ",\n  \"creator_pid\": " + std::to_string(hdr.creator_pid);
  out += ",\n  \"ranks\": [";
  const auto samples = read_telemetry(seg);
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
