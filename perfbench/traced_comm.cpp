#include "traced_comm.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <tuple>

namespace keybin2::perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void TracedComm::send(int dest, int tag, std::span<const std::byte> data) {
  const std::int64_t t0 = now_ns();
  inner_->send(dest, tag, data);
  record(CommSpan::kSend, dest, tag, data.size(), t0);
}

std::vector<std::byte> TracedComm::recv(int src, int tag) {
  const std::int64_t t0 = now_ns();
  auto data = inner_->recv(src, tag);
  record(CommSpan::kRecv, src, tag, data.size(), t0);
  return data;
}

void TracedComm::barrier() {
  const std::int64_t t0 = now_ns();
  inner_->barrier();
  record(CommSpan::kBarrier, -1, -1, 0, t0);
}

std::vector<CommSpan> TracedComm::take_spans() {
  std::vector<CommSpan> out;
  out.swap(spans_);
  return out;
}

CommSplit split_comm(const std::vector<std::vector<CommSpan>>& per_rank) {
  constexpr double kNs = 1e-9;
  CommSplit out;
  out.rank_comm_s.assign(per_rank.size(), 0.0);

  // (src, dst, tag) -> sends in call order, and how many recvs consumed.
  using Channel = std::tuple<int, int, int>;
  std::map<Channel, std::vector<const CommSpan*>> sends;
  std::map<Channel, std::size_t> consumed;
  for (std::size_t r = 0; r < per_rank.size(); ++r) {
    for (const auto& s : per_rank[r]) {
      const double dur = static_cast<double>(s.end_ns - s.begin_ns) * kNs;
      out.rank_comm_s[r] += dur;
      if (s.kind == CommSpan::kSend) {
        ++out.msgs;
        out.bytes += s.bytes;
        out.send_s += dur;
        sends[{static_cast<int>(r), s.peer, s.tag}].push_back(&s);
      } else if (s.kind == CommSpan::kBarrier) {
        out.barrier_s += dur;
      }
    }
  }

  for (std::size_t r = 0; r < per_rank.size(); ++r) {
    for (const auto& rv : per_rank[r]) {
      if (rv.kind != CommSpan::kRecv) continue;
      ++out.recvs;
      out.recv_s += static_cast<double>(rv.end_ns - rv.begin_ns) * kNs;
      const Channel ch{rv.peer, static_cast<int>(r), rv.tag};
      auto it = sends.find(ch);
      std::size_t& k = consumed[ch];
      if (it == sends.end() || k >= it->second.size()) {
        ++out.unmatched;
        continue;
      }
      const CommSpan& sd = *it->second[k++];
      const std::int64_t ready = std::max(rv.begin_ns, sd.begin_ns);
      const std::int64_t waited =
          std::min(sd.begin_ns, rv.end_ns) - rv.begin_ns;
      out.wait_late_sender_s +=
          static_cast<double>(std::max<std::int64_t>(waited, 0)) * kNs;
      const std::int64_t transfer =
          std::max<std::int64_t>(rv.end_ns - ready, 0);
      out.transfer_s += static_cast<double>(transfer) * kNs;
      out.latency_us.push_back(static_cast<double>(transfer) * 1e-3);
    }
  }
  for (const auto& [ch, list] : sends) {
    out.unmatched += list.size() - consumed[ch];
  }
  return out;
}

}  // namespace keybin2::perfbench
