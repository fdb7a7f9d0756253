#include "runtime/flight/flight.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/crc32.hpp"
#include "common/serialize.hpp"
#include "common/timer.hpp"

namespace keybin2::runtime::flight {

namespace {

// "KB2FLT01" little-endian.
constexpr std::uint64_t kDumpMagic = 0x3130544c46324b42ull;
constexpr std::uint32_t kDumpVersion = 1;
constexpr std::size_t kDumpHeaderBytes = 8 + 4 + 8 + 4;

[[noreturn]] void throw_defect(const std::string& path,
                               const std::string& defect,
                               const std::string& detail) {
  std::ostringstream os;
  os << "flight dump " << path << " " << detail;
  throw FlightDumpError(os.str(), path, defect);
}

}  // namespace

// ---- FlightWriter ----

FlightWriter::FlightWriter(RankSegment* seg, int rank, int incarnation)
    : seg_(seg),
      ctl_(seg->rank_control(rank)),
      slots_(seg->ring(rank)),
      n_slots_(seg->slots_per_rank()),
      incarnation_(static_cast<std::uint32_t>(incarnation)) {
  // Stamp the binding: which incarnation writes from which epoch. Published
  // before any record so a dump taken mid-bind still attributes correctly.
  store_shared(ctl_->incarnation, incarnation_, std::memory_order_relaxed);
  store_shared(ctl_->epoch_ns, now_ns(), std::memory_order_relaxed);
  store_shared(ctl_->bound, 1, std::memory_order_release);
}

void FlightWriter::record(EventType type, EventPhase phase, int peer, int tag,
                          std::uint64_t bytes, std::string_view detail) {
  if (seg_->frozen()) {
    store_shared(ctl_->dropped,
                 load_shared(ctl_->dropped, std::memory_order_relaxed) + 1,
                 std::memory_order_relaxed);
    return;
  }
  const std::uint64_t pos = load_shared(ctl_->head, std::memory_order_relaxed);
  FlightRecord& r = slots_[pos % n_slots_];
  store_shared(r.seq, 2 * pos + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  r.t_ns = now_ns();
  r.incarnation = incarnation_;
  r.type = static_cast<std::uint8_t>(type);
  r.phase = static_cast<std::uint8_t>(phase);
  r.pad = 0;
  r.peer = peer;
  r.tag = tag;
  r.bytes = bytes;
  // Keep the *tail* of long labels: "fit/trial3/bin" truncates to the
  // informative end, not the shared prefix.
  if (detail.size() > sizeof(r.detail) - 1) {
    detail.remove_prefix(detail.size() - (sizeof(r.detail) - 1));
  }
  std::memset(r.detail, 0, sizeof(r.detail));
  std::copy(detail.begin(), detail.end(), r.detail);
  std::atomic_thread_fence(std::memory_order_release);
  store_shared(r.seq, 2 * pos + 2, std::memory_order_release);
  store_shared(ctl_->head, pos + 1, std::memory_order_release);
}

// ---- dump ----

namespace {

/// Seqlock-validated snapshot of one ring's valid tail, oldest first. Torn
/// or lapped slots (seq != 2*pos+2) are simply skipped: the writer may have
/// been killed mid-slot, which is exactly the case this code serves.
std::vector<FlightRecord> snapshot_ring(const RankSegment& seg, int rank) {
  const RankControl* ctl = seg.rank_control(rank);
  const FlightRecord* slots = seg.ring(rank);
  const std::uint32_t n = seg.slots_per_rank();
  const std::uint64_t head = load_shared(ctl->head, std::memory_order_acquire);
  const std::uint64_t lo = head > n ? head - n : 0;
  std::vector<FlightRecord> out;
  out.reserve(static_cast<std::size_t>(head - lo));
  for (std::uint64_t pos = lo; pos < head; ++pos) {
    const FlightRecord& slot = slots[pos % n];
    const std::uint64_t s1 = load_shared(slot.seq, std::memory_order_acquire);
    if (s1 != 2 * pos + 2) continue;
    FlightRecord copy;
    std::memcpy(&copy, &slot, sizeof(copy));
    std::atomic_thread_fence(std::memory_order_acquire);
    const std::uint64_t s2 = load_shared(slot.seq, std::memory_order_acquire);
    if (s2 != s1) continue;
    out.push_back(copy);
  }
  return out;
}

void write_record(ByteWriter& w, const FlightRecord& r) {
  w.write<std::int64_t>(r.t_ns);
  w.write<std::uint32_t>(r.incarnation);
  w.write<std::uint8_t>(r.type);
  w.write<std::uint8_t>(r.phase);
  w.write<std::int32_t>(r.peer);
  w.write<std::int32_t>(r.tag);
  w.write<std::uint64_t>(r.bytes);
  for (char c : r.detail) w.write<std::uint8_t>(static_cast<std::uint8_t>(c));
}

FlightRecord read_record(ByteReader& r) {
  FlightRecord rec{};
  rec.t_ns = r.read<std::int64_t>();
  rec.incarnation = r.read<std::uint32_t>();
  rec.type = r.read<std::uint8_t>();
  rec.phase = r.read<std::uint8_t>();
  rec.peer = r.read<std::int32_t>();
  rec.tag = r.read<std::int32_t>();
  rec.bytes = r.read<std::uint64_t>();
  for (char& c : rec.detail) {
    c = static_cast<char>(r.read<std::uint8_t>());
  }
  return rec;
}

}  // namespace

void write_flight_dump(const std::string& path, const RankSegment& seg,
                       const std::string& reason,
                       std::span<const FlightDeath> deaths) {
  ByteWriter payload;
  payload.write_string(std::string(seg.header().job));
  payload.write_string(reason);
  payload.write<std::int64_t>(now_ns());
  const int n = seg.n_ranks();
  payload.write<std::uint32_t>(static_cast<std::uint32_t>(n));
  for (int r = 0; r < n; ++r) {
    const RankControl* ctl = seg.rank_control(r);
    payload.write<std::int32_t>(r);
    payload.write<std::uint32_t>(
        load_shared(ctl->incarnation, std::memory_order_acquire));
    payload.write<std::int64_t>(ctl->epoch_ns);
    payload.write<std::uint64_t>(
        load_shared(ctl->head, std::memory_order_acquire));
    payload.write<std::uint64_t>(
        load_shared(ctl->dropped, std::memory_order_relaxed));
    const FlightDeath* death = nullptr;
    for (const FlightDeath& d : deaths) {
      if (d.rank == r) death = &d;
    }
    payload.write<std::uint8_t>(death != nullptr ? 1 : 0);
    payload.write_string(death != nullptr ? death->reason : std::string());
    const auto records = snapshot_ring(seg, r);
    payload.write<std::uint64_t>(records.size());
    for (const FlightRecord& rec : records) write_record(payload, rec);
  }

  ByteWriter header;
  header.write<std::uint64_t>(kDumpMagic);
  header.write<std::uint32_t>(kDumpVersion);
  header.write<std::uint64_t>(
      static_cast<std::uint64_t>(payload.bytes().size()));
  header.write<std::uint32_t>(crc32(payload.bytes()));

  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    KB2_CHECK_MSG(out.is_open(),
                  "cannot open flight dump " << tmp << " for writing");
    out.write(reinterpret_cast<const char*>(header.bytes().data()),
              static_cast<std::streamsize>(header.bytes().size()));
    out.write(reinterpret_cast<const char*>(payload.bytes().data()),
              static_cast<std::streamsize>(payload.bytes().size()));
    out.flush();
    KB2_CHECK_MSG(out.good(), "short write to flight dump " << tmp);
  }
  KB2_CHECK_MSG(std::rename(tmp.c_str(), path.c_str()) == 0,
                "cannot move flight dump " << tmp << " into place at "
                                           << path);
}

FlightDump read_flight_dump(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) throw_defect(path, "missing", "cannot be opened");
  std::vector<char> raw((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  if (raw.size() < kDumpHeaderBytes) {
    std::ostringstream os;
    os << "truncated: " << raw.size() << " bytes, header alone needs "
       << kDumpHeaderBytes;
    throw_defect(path, "truncated", os.str());
  }
  ByteReader r(std::span<const std::byte>(
      reinterpret_cast<const std::byte*>(raw.data()), raw.size()));
  const auto magic = r.read<std::uint64_t>();
  if (magic != kDumpMagic) {
    throw_defect(path, "bad_magic", "has bad magic (not a KB2FLT file)");
  }
  const auto version = r.read<std::uint32_t>();
  if (version != kDumpVersion) {
    std::ostringstream os;
    os << "has version " << version << ", this build reads version "
       << kDumpVersion;
    throw_defect(path, "version_skew", os.str());
  }
  const auto payload_size = r.read<std::uint64_t>();
  if (payload_size != raw.size() - kDumpHeaderBytes) {
    std::ostringstream os;
    os << "truncated: header promises " << payload_size
       << " payload bytes, file holds " << raw.size() - kDumpHeaderBytes;
    throw_defect(path, "truncated", os.str());
  }
  const auto expected_crc = r.read<std::uint32_t>();
  const std::span<const std::byte> payload(
      reinterpret_cast<const std::byte*>(raw.data()) + kDumpHeaderBytes,
      static_cast<std::size_t>(payload_size));
  const auto actual_crc = crc32(payload);
  if (actual_crc != expected_crc) {
    std::ostringstream os;
    os << "failed its CRC32 integrity check (stored " << expected_crc
       << ", computed " << actual_crc << ")";
    throw_defect(path, "crc_mismatch", os.str());
  }

  // CRC passed, so a decode failure below means a writer bug or a collision
  // — typed as "malformed" rather than crashing the reader.
  try {
    ByteReader p(payload);
    FlightDump dump;
    dump.job = p.read_string();
    dump.reason = p.read_string();
    dump.dump_t_ns = p.read<std::int64_t>();
    const auto n = p.read<std::uint32_t>();
    if (n == 0 || n > 4096) {
      throw_defect(path, "malformed",
                   "declares " + std::to_string(n) + " ranks");
    }
    dump.ranks.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      RankTrail t;
      t.rank = p.read<std::int32_t>();
      t.incarnation = p.read<std::uint32_t>();
      t.epoch_ns = p.read<std::int64_t>();
      t.records_total = p.read<std::uint64_t>();
      t.dropped = p.read<std::uint64_t>();
      t.dead = p.read<std::uint8_t>() != 0;
      t.death_reason = p.read_string();
      const auto n_records = p.read<std::uint64_t>();
      if (n_records > payload_size) {
        throw_defect(path, "malformed",
                     "declares " + std::to_string(n_records) +
                         " records for rank " + std::to_string(t.rank));
      }
      t.records.reserve(static_cast<std::size_t>(n_records));
      for (std::uint64_t j = 0; j < n_records; ++j) {
        t.records.push_back(read_record(p));
      }
      dump.ranks.push_back(std::move(t));
    }
    return dump;
  } catch (const FlightDumpError&) {
    throw;
  } catch (const std::exception& e) {
    throw_defect(path, "malformed",
                 std::string("payload does not decode: ") + e.what());
  }
}

void corrupt_flight_dump(const std::string& path, DumpCorruption mode,
                         std::uint64_t seed) {
  std::vector<char> raw;
  {
    std::ifstream in(path, std::ios::binary);
    KB2_CHECK_MSG(in.is_open(),
                  "cannot open flight dump " << path << " to corrupt");
    raw.assign((std::istreambuf_iterator<char>(in)),
               std::istreambuf_iterator<char>());
  }
  const std::size_t payload_bytes =
      raw.size() > kDumpHeaderBytes ? raw.size() - kDumpHeaderBytes : 0;
  switch (mode) {
    case DumpCorruption::kTruncateHeader:
      raw.resize(raw.size() < kDumpHeaderBytes ? raw.size() / 2
                                               : kDumpHeaderBytes / 2);
      break;
    case DumpCorruption::kTruncatePayload:
      KB2_CHECK_MSG(payload_bytes > 0,
                    "flight dump " << path << " has no payload to truncate");
      raw.resize(kDumpHeaderBytes + payload_bytes / 2);
      break;
    case DumpCorruption::kZeroSpan: {
      KB2_CHECK_MSG(payload_bytes > 0,
                    "flight dump " << path << " has no payload to zero");
      const std::size_t at = kDumpHeaderBytes + seed % payload_bytes;
      const std::size_t len = std::min<std::size_t>(16, raw.size() - at);
      std::memset(raw.data() + at, 0, len);
      break;
    }
    case DumpCorruption::kFlipBit: {
      KB2_CHECK_MSG(payload_bytes > 0,
                    "flight dump " << path << " has no payload to flip");
      const std::size_t at = kDumpHeaderBytes + seed % payload_bytes;
      raw[at] = static_cast<char>(raw[at] ^ (1 << (seed % 8)));
      break;
    }
    case DumpCorruption::kBadMagic:
      KB2_CHECK_MSG(raw.size() >= 8, "flight dump " << path << " too short");
      std::memset(raw.data(), 0x5a, 8);
      break;
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  KB2_CHECK_MSG(out.is_open(), "cannot rewrite flight dump " << path);
  out.write(raw.data(), static_cast<std::streamsize>(raw.size()));
  out.flush();
  KB2_CHECK_MSG(out.good(), "short write while corrupting " << path);
}

}  // namespace keybin2::runtime::flight
