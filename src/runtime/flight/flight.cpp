#include "runtime/flight/flight.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "common/serialize.hpp"
#include "common/timer.hpp"

namespace keybin2::runtime::flight {

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
  kFlightDumpFile.write(path, payload.bytes());
}

FlightDump read_flight_dump(const std::string& path) {
  const auto payload = kFlightDumpFile.read(path);

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
      kFlightDumpFile.fail(path, "malformed",
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
      if (n_records > payload.size()) {
        kFlightDumpFile.fail(path, "malformed",
                             "declares " + std::to_string(n_records) +
                                 " records for rank " +
                                 std::to_string(t.rank));
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
    kFlightDumpFile.fail(path, "malformed",
                         std::string("payload does not decode: ") + e.what());
  }
}

}  // namespace keybin2::runtime::flight
