#include "comm/communicator.hpp"

#include <algorithm>
#include <cstring>

#include "comm/recovery.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"

namespace keybin2::comm {

namespace {

// Reserved tag bases for collective plumbing (above kUserTagLimit).
constexpr int kTagBcast = Communicator::kUserTagLimit + 1;
constexpr int kTagReduceDouble = Communicator::kUserTagLimit + 2;
constexpr int kTagReduceU64 = Communicator::kUserTagLimit + 3;
constexpr int kTagGather = Communicator::kUserTagLimit + 4;
constexpr int kTagRingAccumulate = Communicator::kUserTagLimit + 5;
constexpr int kTagRingDistribute = Communicator::kUserTagLimit + 6;
constexpr int kTagSubBarrier = Communicator::kUserTagLimit + 7;
constexpr int kTagRsHalve = Communicator::kUserTagLimit + 8;
constexpr int kTagRdDouble = Communicator::kUserTagLimit + 9;
constexpr int kTagRhFold = Communicator::kUserTagLimit + 10;
constexpr int kTagCoreset = Communicator::kUserTagLimit + 11;

constexpr std::size_t kFrameHeaderBytes = sizeof(std::uint32_t);

// Block wire format for the recursive-halving exchanges.
constexpr std::uint8_t kBlockDense = 0;
constexpr std::uint8_t kBlockSparse = 1;

template <typename T>
void apply_op(std::vector<T>& acc, const std::vector<T>& in, ReduceOp op) {
  KB2_CHECK_MSG(acc.size() == in.size(),
                "reduce length mismatch: " << acc.size() << " vs "
                                           << in.size());
  switch (op) {
    case ReduceOp::kSum:
      for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += in[i];
      break;
    case ReduceOp::kMin:
      for (std::size_t i = 0; i < acc.size(); ++i)
        acc[i] = std::min(acc[i], in[i]);
      break;
    case ReduceOp::kMax:
      for (std::size_t i = 0; i < acc.size(); ++i)
        acc[i] = std::max(acc[i], in[i]);
      break;
  }
}

void apply_op_span(std::span<double> acc, std::span<const double> in,
                   ReduceOp op) {
  KB2_CHECK_MSG(acc.size() == in.size(),
                "reduce block length mismatch: " << acc.size() << " vs "
                                                 << in.size());
  switch (op) {
    case ReduceOp::kSum:
      for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += in[i];
      break;
    case ReduceOp::kMin:
      for (std::size_t i = 0; i < acc.size(); ++i)
        acc[i] = std::min(acc[i], in[i]);
      break;
    case ReduceOp::kMax:
      for (std::size_t i = 0; i < acc.size(); ++i)
        acc[i] = std::max(acc[i], in[i]);
      break;
  }
}

template <typename T>
int reduce_tag();
template <>
int reduce_tag<double>() {
  return kTagReduceDouble;
}
template <>
int reduce_tag<std::uint64_t>() {
  return kTagReduceU64;
}

}  // namespace

std::string tag_name(int tag) {
  switch (tag) {
    case kTagBcast: return "bcast";
    case kTagReduceDouble: return "reduce_f64";
    case kTagReduceU64: return "reduce_u64";
    case kTagGather: return "gather";
    case kTagRingAccumulate: return "ring_acc";
    case kTagRingDistribute: return "ring_dist";
    case kTagSubBarrier: return "sub_barrier";
    case kTagRsHalve: return "rs_halve";
    case kTagRdDouble: return "rd_double";
    case kTagRhFold: return "rh_fold";
    case kTagCoreset: return "coreset";
    default:
      if (tag >= 0 && tag < Communicator::kUserTagLimit) {
        return "user:" + std::to_string(tag);
      }
      return "reserved:" + std::to_string(tag);
  }
}

const char* error_kind(const CommError& e) {
  if (dynamic_cast<const FitAbortedError*>(&e) != nullptr) return "fit_aborted";
  if (dynamic_cast<const TimeoutError*>(&e) != nullptr) return "timeout";
  if (dynamic_cast<const RankFailedError*>(&e) != nullptr) return "rank_failed";
  if (dynamic_cast<const RecoveryError*>(&e) != nullptr) return "recovery";
  if (dynamic_cast<const CorruptFrameError*>(&e) != nullptr) {
    return "corrupt_frame";
  }
  return "comm_error";
}

void Communicator::check_rank(int r) const {
  KB2_CHECK_MSG(r >= 0 && r < size(), "rank " << r << " out of group size "
                                              << size());
}

void Communicator::check_user_tag(int tag) const {
  KB2_CHECK_MSG(tag >= 0 && tag < kUserTagLimit, "user tag " << tag
                                                             << " out of range");
}

std::vector<int> Communicator::agree_survivors() {
  const auto failed = failed_ranks();
  std::vector<int> survivors;
  survivors.reserve(static_cast<std::size_t>(size()));
  for (int r = 0; r < size(); ++r) {
    if (std::find(failed.begin(), failed.end(), r) == failed.end()) {
      survivors.push_back(r);
    }
  }
  return survivors;
}

void Communicator::send_frame(int dest, int tag,
                              std::span<const std::byte> payload) {
  // The frame is assembled in a member scratch buffer: send() has copied (or
  // shipped) the bytes by the time it returns, so the allocation is paid
  // once per endpoint, not once per message.
  frame_scratch_.resize(kFrameHeaderBytes + payload.size());
  const std::uint32_t crc = crc32(payload);
  std::memcpy(frame_scratch_.data(), &crc, sizeof(crc));
  if (!payload.empty()) {
    std::memcpy(frame_scratch_.data() + kFrameHeaderBytes, payload.data(),
                payload.size());
  }
  send(dest, tag, frame_scratch_);
}

std::vector<std::byte> Communicator::recv_frame(int src, int tag) {
  auto framed = recv(src, tag);
  if (framed.size() < kFrameHeaderBytes) {
    std::ostringstream os;
    os << "rank " << rank() << " recv(src=" << src << ", tag=" << tag
       << "): frame truncated to " << framed.size()
       << " bytes (missing checksum header)";
    throw CorruptFrameError(os.str());
  }
  std::uint32_t expected = 0;
  std::memcpy(&expected, framed.data(), sizeof(expected));
  const std::span<const std::byte> payload(framed.data() + kFrameHeaderBytes,
                                           framed.size() - kFrameHeaderBytes);
  const std::uint32_t actual = crc32(payload);
  if (actual != expected) {
    std::ostringstream os;
    os << "rank " << rank() << " recv(src=" << src << ", tag=" << tag
       << "): CRC32 mismatch on " << payload.size() << "-byte payload";
    throw CorruptFrameError(os.str());
  }
  framed.erase(framed.begin(),
               framed.begin() + static_cast<std::ptrdiff_t>(kFrameHeaderBytes));
  return framed;
}

void Communicator::broadcast(std::vector<std::byte>& data, int root) {
  check_rank(root);
  const int p = size();
  if (p == 1) return;
  const int me = rank();
  const int rel = (me - root + p) % p;

  // Binomial tree (MPICH-style): receive from the parent, then forward to
  // children at decreasing strides.
  int mask = 1;
  while (mask < p) {
    if (rel & mask) {
      int src = me - mask;
      if (src < 0) src += p;
      data = recv_frame(src, kTagBcast);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (rel + mask < p) {
      int dst = me + mask;
      if (dst >= p) dst -= p;
      send_frame(dst, kTagBcast, data);
    }
    mask >>= 1;
  }
}

template <typename T>
std::vector<T> Communicator::reduce_impl(std::span<const T> local, ReduceOp op,
                                         int root, int base_tag) {
  check_rank(root);
  const int p = size();
  std::vector<T> acc(local.begin(), local.end());
  if (p == 1) return acc;
  const int me = rank();
  const int rel = (me - root + p) % p;

  int mask = 1;
  bool sent = false;
  while (mask < p) {
    if ((rel & mask) == 0) {
      const int src_rel = rel | mask;
      if (src_rel < p) {
        const int src = (src_rel + root) % p;
        auto bytes = recv_frame(src, base_tag);
        ByteReader reader(bytes);
        auto in = reader.template read_vec<T>();
        apply_op(acc, in, op);
        recycle_buffer(std::move(bytes));
      }
    } else {
      const int dst = ((rel & ~mask) + root) % p;
      ByteWriter writer;
      writer.write_vec(acc);
      send_frame(dst, base_tag, writer.bytes());
      sent = true;
      break;
    }
    mask <<= 1;
  }
  if (sent) acc.clear();  // non-root holds no result
  return acc;
}

std::vector<double> Communicator::reduce(std::span<const double> local,
                                         ReduceOp op, int root) {
  return reduce_impl<double>(local, op, root, reduce_tag<double>());
}

std::vector<std::uint64_t> Communicator::reduce(
    std::span<const std::uint64_t> local, ReduceOp op, int root) {
  return reduce_impl<std::uint64_t>(local, op, root,
                                    reduce_tag<std::uint64_t>());
}

template <typename T>
std::vector<T> Communicator::allreduce_impl(std::span<const T> local,
                                            ReduceOp op) {
  auto result = reduce_impl<T>(local, op, /*root=*/0, reduce_tag<T>());
  ByteWriter writer;
  if (rank() == 0) writer.write_vec(result);
  auto bytes = writer.take();
  broadcast(bytes, /*root=*/0);
  if (rank() != 0) {
    ByteReader reader(bytes);
    result = reader.template read_vec<T>();
  }
  return result;
}

std::vector<double> Communicator::allreduce(std::span<const double> local,
                                            ReduceOp op) {
  return allreduce_impl<double>(local, op);
}

std::vector<std::uint64_t> Communicator::allreduce(
    std::span<const std::uint64_t> local, ReduceOp op) {
  return allreduce_impl<std::uint64_t>(local, op);
}

std::vector<double> Communicator::allreduce(std::span<const double> local,
                                            ReduceOp op, AllreduceAlgo algo,
                                            ReduceProfile* profile) {
  bool halving = false;
  switch (algo) {
    case AllreduceAlgo::kTree:
      break;
    case AllreduceAlgo::kRecursiveHalving:
      halving = size() > 1;
      break;
    case AllreduceAlgo::kAuto:
      halving = size() > 1 && local.size() >= kRecursiveHalvingMinElements;
      break;
    case AllreduceAlgo::kCoreset:
      throw Error("allreduce: kCoreset is not selectable; call "
                  "coreset_allreduce");
  }
  const std::uint64_t sent_before = stats().bytes_sent;
  std::vector<double> result;
  if (!halving) {
    if (profile) profile->algo = AllreduceAlgo::kTree;
    result = allreduce(local, op);
  } else {
    if (profile) profile->algo = AllreduceAlgo::kRecursiveHalving;
    result = recursive_halving_allreduce(local, op, profile);
  }
  // TrafficStats count framed sizes, so this delta includes the CRC header
  // and sparse-segment prefixes — it reconciles with the CommProbe matrix.
  if (profile) profile->bytes += stats().bytes_sent - sent_before;
  return result;
}

void Communicator::send_reduce_block(int dest, int tag,
                                     std::span<const double> block,
                                     bool sparse_ok, ReduceProfile* profile) {
  // send_frame() has copied the encoding into its own scratch by the time it
  // returns, so one member writer can serve every block of every round.
  ByteWriter& w = block_scratch_;
  w.clear();
  std::size_t nnz = 0;
  if (sparse_ok) {
    for (const double x : block) nnz += (x != 0.0) ? 1 : 0;
  }
  // Sparse iff strictly smaller on the wire: 12 bytes per occupied slot
  // (u32 index + f64 value) plus the nnz prefix, against 8 bytes per slot
  // dense. Only valid for sum — an omitted entry decodes as 0.
  const bool sparse =
      sparse_ok && nnz * 12 + sizeof(std::uint64_t) < block.size() * 8;
  if (sparse) {
    w.write<std::uint8_t>(kBlockSparse);
    w.write<std::uint64_t>(block.size());
    w.write<std::uint64_t>(nnz);
    for (std::size_t i = 0; i < block.size(); ++i) {
      if (block[i] != 0.0) {
        w.write<std::uint32_t>(static_cast<std::uint32_t>(i));
        w.write<double>(block[i]);
      }
    }
    if (profile) ++profile->sparse_blocks;
  } else {
    w.write<std::uint8_t>(kBlockDense);
    w.write_span(block);
    if (profile) ++profile->dense_blocks;
  }
  send_frame(dest, tag, w.bytes());
}

void Communicator::recv_reduce_block(int src, int tag, std::span<double> into,
                                     ReduceOp op, bool combine) {
  auto bytes = recv_frame(src, tag);
  ByteReader r(bytes);
  const auto mode = r.read<std::uint8_t>();
  if (mode == kBlockSparse) {
    const auto n = r.read<std::uint64_t>();
    KB2_CHECK_MSG(n == into.size(), "sparse block length "
                                        << n << " != expected " << into.size());
    const auto nnz = r.read<std::uint64_t>();
    if (!combine) std::fill(into.begin(), into.end(), 0.0);
    for (std::uint64_t k = 0; k < nnz; ++k) {
      const auto idx = r.read<std::uint32_t>();
      const auto val = r.read<double>();
      KB2_CHECK_MSG(idx < into.size(), "sparse index " << idx
                                                       << " out of block size "
                                                       << into.size());
      // combine implies sum (sparse blocks only travel under kSum).
      if (combine) {
        into[idx] += val;
      } else {
        into[idx] = val;
      }
    }
  } else {
    KB2_CHECK_MSG(mode == kBlockDense, "unknown reduce block mode "
                                           << static_cast<int>(mode));
    // Decode into pooled scratch (read_vec would allocate a fresh vector per
    // block); the length prefix is bounds-checked the same way read_vec does.
    const auto n = r.read<std::uint64_t>();
    KB2_CHECK_MSG(n <= r.remaining() / sizeof(double),
                  "dense block length " << n << " exceeds remaining "
                                        << r.remaining() << " bytes");
    KB2_CHECK_MSG(n == into.size(), "dense block length "
                                        << n << " != expected " << into.size());
    recv_block_scratch_.resize(n);
    // Payload layout here is [u8 mode][u64 n][n doubles]; memcpy because the
    // doubles sit at offset 9 and are not suitably aligned for a direct view.
    if (n > 0) {
      std::memcpy(recv_block_scratch_.data(),
                  bytes.data() + sizeof(std::uint8_t) + sizeof(std::uint64_t),
                  n * sizeof(double));
    }
    if (combine) {
      apply_op_span(into, recv_block_scratch_, op);
    } else {
      std::copy(recv_block_scratch_.begin(), recv_block_scratch_.end(),
                into.begin());
    }
  }
  recycle_buffer(std::move(bytes));
}

std::vector<double> Communicator::recursive_halving_allreduce(
    std::span<const double> local, ReduceOp op, ReduceProfile* profile) {
  const int p = size();
  const int me = rank();
  std::vector<double> acc(local.begin(), local.end());
  const bool sparse_ok = (op == ReduceOp::kSum);

  // Largest power of two <= p; the `rem` extra ranks fold into the core
  // first (Rabenseifner's non-power-of-two pre-step) and receive the final
  // vector afterwards.
  int p2 = 1;
  while (p2 * 2 <= p) p2 *= 2;
  const int rem = p - p2;

  int newrank;  // rank inside the power-of-two core, -1 for folded-out ranks
  if (me < 2 * rem) {
    if ((me % 2) == 1) {
      // Odd rank of a fold pair: contribute everything to the even partner,
      // then wait for the fully reduced vector at the end.
      send_reduce_block(me - 1, kTagRhFold, acc, sparse_ok, profile);
      recv_reduce_block(me - 1, kTagRhFold, acc, op, /*combine=*/false);
      return acc;
    }
    recv_reduce_block(me + 1, kTagRhFold, acc, op, /*combine=*/true);
    newrank = me / 2;
  } else {
    newrank = me - rem;
  }
  const auto old_of = [&](int nr) { return nr < rem ? nr * 2 : nr + rem; };

  // Reduce-scatter by recursive halving: at each level partners exchange the
  // half of their current segment they will not own and reduce the half they
  // keep. Both partners share [lo, hi) entering a level (they differ only in
  // the current bit), so the midpoint split is agreed without negotiation.
  std::size_t lo = 0, hi = acc.size();
  std::vector<std::pair<std::size_t, std::size_t>> segments;  // unwind stack
  for (int mask = p2 >> 1; mask >= 1; mask >>= 1) {
    const int partner = old_of(newrank ^ mask);
    const std::size_t mid = lo + (hi - lo) / 2;
    std::size_t keep_lo, keep_hi, send_lo, send_hi;
    if ((newrank & mask) == 0) {
      keep_lo = lo; keep_hi = mid; send_lo = mid; send_hi = hi;
    } else {
      keep_lo = mid; keep_hi = hi; send_lo = lo; send_hi = mid;
    }
    // Send first, then receive: safe because send() is non-blocking on every
    // backend (mailbox enqueue), so the pairwise exchange cannot deadlock.
    send_reduce_block(partner, kTagRsHalve,
                      std::span<const double>(acc.data() + send_lo,
                                              send_hi - send_lo),
                      sparse_ok, profile);
    recv_reduce_block(partner, kTagRsHalve,
                      std::span<double>(acc.data() + keep_lo,
                                        keep_hi - keep_lo),
                      op, /*combine=*/true);
    segments.emplace_back(lo, hi);
    lo = keep_lo;
    hi = keep_hi;
  }

  // Allgather by recursive doubling, unwinding the segment stack: partners
  // exchange their owned halves to reassemble each parent segment. The
  // gathered halves are final values, so they ship dense (re-encoding
  // sparseness would buy nothing once counts are merged, and min/max results
  // must not pass through the sparse path anyway).
  for (int mask = 1; mask < p2; mask <<= 1) {
    const int partner = old_of(newrank ^ mask);
    const auto [parent_lo, parent_hi] = segments.back();
    segments.pop_back();
    const std::size_t other_lo = (lo == parent_lo) ? hi : parent_lo;
    const std::size_t other_hi = (lo == parent_lo) ? parent_hi : lo;
    send_reduce_block(partner, kTagRdDouble,
                      std::span<const double>(acc.data() + lo, hi - lo),
                      /*sparse_ok=*/sparse_ok, profile);
    recv_reduce_block(partner, kTagRdDouble,
                      std::span<double>(acc.data() + other_lo,
                                        other_hi - other_lo),
                      op, /*combine=*/false);
    lo = parent_lo;
    hi = parent_hi;
  }

  // Post-step: folded-out odd ranks get the final vector from their partner.
  if (me < 2 * rem) {
    send_reduce_block(me + 1, kTagRhFold, acc, sparse_ok, profile);
  }
  return acc;
}

std::vector<double> Communicator::coreset_allreduce(
    std::span<const double> local, const coreset::Options& opts,
    ReduceProfile* profile) {
  const std::uint64_t sent_before = stats().bytes_sent;
  if (profile) profile->algo = AllreduceAlgo::kCoreset;
  const int p = size();
  const int me = rank();

  // Every sampling decision forks from (rank, tree level), so the collective
  // is reproducible per opts.seed on any backend and any group size.
  auto sketch =
      coreset::build(local, opts, coreset::fork_seed(opts.seed, me, 0));
  double my_drops = sketch.mass_dropped;  // drops this rank performed

  // Binomial-tree reduce to rank 0: receivers merge the child sketch, then
  // re-compress to the cap before the next level, so no framed message —
  // up the tree or down the broadcast — ever exceeds opts.max_cells entries.
  int mask = 1;
  std::uint64_t level = 1;
  while (mask < p) {
    if ((me & mask) == 0) {
      const int src = me | mask;
      if (src < p) {
        auto bytes = recv_frame(src, kTagCoreset);
        ByteReader r(bytes);
        const auto other = coreset::decode(r);
        coreset::merge(sketch, other);
        recycle_buffer(std::move(bytes));
        const double drops_before = sketch.mass_dropped;
        coreset::compress(sketch, opts,
                          coreset::fork_seed(opts.seed, me, level));
        my_drops += sketch.mass_dropped - drops_before;
      }
    } else {
      const int dst = me & ~mask;
      ByteWriter w;
      coreset::encode(sketch, w);
      send_frame(dst, kTagCoreset, w.bytes());
      if (profile) profile->coreset_cells += sketch.entries();
      break;
    }
    mask <<= 1;
    ++level;
  }

  // Rank 0 holds the merged sketch; fan it out and expand everywhere.
  ByteWriter w;
  if (me == 0) coreset::encode(sketch, w);
  auto bytes = w.take();
  broadcast(bytes, /*root=*/0);
  if (me != 0) {
    ByteReader r(bytes);
    sketch = coreset::decode(r);
  } else if (p > 1 && profile) {
    profile->coreset_cells += sketch.entries();
  }

  if (profile) {
    profile->coreset_mass_dropped += my_drops;
    profile->bytes += stats().bytes_sent - sent_before;
  }
  return coreset::expand(sketch);
}

double Communicator::allreduce(double value, ReduceOp op) {
  return allreduce(std::span<const double>(&value, 1), op)[0];
}

std::uint64_t Communicator::allreduce(std::uint64_t value, ReduceOp op) {
  return allreduce(std::span<const std::uint64_t>(&value, 1), op)[0];
}

std::vector<double> Communicator::ring_allreduce(
    std::span<const double> local) {
  const int p = size();
  std::vector<double> acc(local.begin(), local.end());
  if (p == 1) return acc;
  const int me = rank();
  const int next = (me + 1) % p;
  const int prev = (me - 1 + p) % p;

  // Accumulating pass: 0 starts; each rank adds its share and forwards.
  if (me == 0) {
    ByteWriter w;
    w.write_vec(acc);
    send_frame(next, kTagRingAccumulate, w.bytes());
  } else {
    auto bytes = recv_frame(prev, kTagRingAccumulate);
    ByteReader r(bytes);
    auto partial = r.read_vec<double>();
    apply_op(partial, acc, ReduceOp::kSum);
    acc = std::move(partial);
    recycle_buffer(std::move(bytes));
    if (me != p - 1) {
      ByteWriter w;
      w.write_vec(acc);
      send_frame(next, kTagRingAccumulate, w.bytes());
    }
  }

  // Distribution pass: the last rank holds the total; walk the ring again.
  if (me == p - 1) {
    ByteWriter w;
    w.write_vec(acc);
    send_frame(next, kTagRingDistribute, w.bytes());
  } else {
    auto bytes = recv_frame(prev, kTagRingDistribute);
    ByteReader r(bytes);
    acc = r.read_vec<double>();
    recycle_buffer(std::move(bytes));
    if (next != p - 1) {
      ByteWriter w;
      w.write_vec(acc);
      send_frame(next, kTagRingDistribute, w.bytes());
    }
  }
  return acc;
}

std::vector<std::vector<std::byte>> Communicator::gather(
    std::span<const std::byte> local, int root) {
  check_rank(root);
  const int p = size();
  const int me = rank();
  std::vector<std::vector<std::byte>> out;
  if (me == root) {
    out.resize(p);
    out[static_cast<std::size_t>(me)].assign(local.begin(), local.end());
    for (int r = 0; r < p; ++r) {
      if (r == root) continue;
      out[static_cast<std::size_t>(r)] = recv_frame(r, kTagGather);
    }
  } else {
    send_frame(root, kTagGather, local);
  }
  return out;
}

std::vector<std::vector<std::byte>> Communicator::allgather(
    std::span<const std::byte> local) {
  auto gathered = gather(local, /*root=*/0);
  ByteWriter writer;
  if (rank() == 0) {
    writer.write<std::uint64_t>(gathered.size());
    for (const auto& blob : gathered) {
      writer.write_span(std::span<const std::byte>(blob));
    }
  }
  auto bytes = writer.take();
  broadcast(bytes, /*root=*/0);
  if (rank() != 0) gathered = decode_allgather(bytes, size());
  return gathered;
}

std::vector<std::vector<std::byte>> decode_allgather(
    std::span<const std::byte> payload, int group_size) {
  ByteReader reader(payload);
  const auto n = reader.read<std::uint64_t>();
  KB2_CHECK_MSG(n == static_cast<std::uint64_t>(group_size),
                "allgather payload carries " << n << " blobs for a group of "
                                             << group_size);
  std::vector<std::vector<std::byte>> blobs(n);
  for (auto& blob : blobs) blob = reader.read_vec<std::byte>();
  KB2_CHECK_MSG(reader.exhausted(), "allgather payload has "
                                        << reader.remaining()
                                        << " bytes past its last blob");
  return blobs;
}

void Communicator::send_doubles(int dest, int tag, std::span<const double> v) {
  check_user_tag(tag);
  ByteWriter writer;
  writer.write_span(v);
  send_frame(dest, tag, writer.bytes());
}

std::vector<double> Communicator::recv_doubles(int src, int tag) {
  check_user_tag(tag);
  auto bytes = recv_frame(src, tag);
  ByteReader reader(bytes);
  return reader.read_vec<double>();
}

// ---- SelfComm ----

void SelfComm::send(int dest, int tag, std::span<const std::byte> data) {
  KB2_CHECK_MSG(dest == 0, "SelfComm can only send to rank 0");
  if (probe()) probe()->on_begin(0, CommProbe::kSend, dest, tag, data.size());
  const std::uint64_t flow = next_flow_id_++;
  queue_.push_back(
      Queued{tag, flow, std::vector<std::byte>(data.begin(), data.end())});
  ++stats_.messages_sent;
  stats_.bytes_sent += data.size();
  if (probe()) {
    probe()->on_send(/*self=*/0, dest, tag, data.size(), flow, queue_.size());
  }
}

std::vector<std::byte> SelfComm::recv(int src, int tag) {
  KB2_CHECK_MSG(src == 0, "SelfComm can only receive from rank 0");
  if (probe()) probe()->on_begin(0, CommProbe::kRecv, src, tag, 0);
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (it->tag == tag) {
      auto data = std::move(it->bytes);
      const std::uint64_t flow = it->flow_id;
      queue_.erase(it);
      ++stats_.messages_received;
      stats_.bytes_received += data.size();
      if (probe()) {
        // Loopback delivery never blocks: the message was already queued.
        probe()->on_recv(/*self=*/0, src, tag, data.size(), flow,
                         /*wait_ns=*/0);
      }
      return data;
    }
  }
  // No peer exists, so a missing message can never arrive: the deadline —
  // whatever it is — has effectively already expired.
  throw TimeoutError(
      "rank 0 recv(src=0, tag=" + std::to_string(tag) +
          ") timed out immediately: SelfComm has no queued message and no "
          "peer can ever send one",
      /*self=*/0, src, tag, /*elapsed_seconds=*/0.0);
}

// With no peer, a barrier and an agreement complete at once.
void SelfComm::barrier() {
  if (probe()) {
    probe()->on_begin(0, CommProbe::kBarrier, -1, -1, 0);
    probe()->on_barrier(0, /*wait_ns=*/0);
  }
}

std::vector<int> SelfComm::agree_survivors() {
  if (probe()) {
    probe()->on_begin(0, CommProbe::kAgree, -1, -1, 0);
    probe()->on_agree(0, 1);
  }
  return {0};
}

// ---- SubgroupComm ----

SubgroupComm::SubgroupComm(Communicator& parent, std::vector<int> members)
    : parent_(&parent), members_(std::move(members)) {
  KB2_CHECK_MSG(!members_.empty(), "subgroup needs at least one member");
  for (std::size_t i = 0; i < members_.size(); ++i) {
    KB2_CHECK_MSG(members_[i] >= 0 && members_[i] < parent.size(),
                  "subgroup member " << members_[i]
                                     << " out of parent group size "
                                     << parent.size());
    KB2_CHECK_MSG(i == 0 || members_[i - 1] < members_[i],
                  "subgroup members must be strictly ascending");
    if (members_[i] == parent.rank()) my_rank_ = static_cast<int>(i);
  }
  KB2_CHECK_MSG(my_rank_ >= 0, "rank " << parent.rank()
                                       << " is not a member of the subgroup");
  // Inherit the deadline the parent endpoint is already operating under.
  Communicator::set_timeout(parent.timeout());
}

int SubgroupComm::to_parent(int r) const {
  KB2_CHECK_MSG(r >= 0 && r < size(),
                "subgroup rank " << r << " out of group size " << size());
  return members_[static_cast<std::size_t>(r)];
}

void SubgroupComm::send(int dest, int tag, std::span<const std::byte> data) {
  parent_->send(to_parent(dest), tag, data);
}

std::vector<std::byte> SubgroupComm::recv(int src, int tag) {
  return parent_->recv(to_parent(src), tag);
}

void SubgroupComm::barrier() {
  // The parent's barrier counts every parent rank (including the dead ones
  // this subgroup exists to exclude), so synchronize with a members-only
  // binomial gather + release over point-to-point sends.
  const int p = size();
  if (p == 1) return;
  const int me = rank();
  ByteWriter token;
  token.write<std::uint8_t>(1);
  for (int mask = 1; mask < p; mask <<= 1) {
    if (me & mask) {
      send_frame(me & ~mask, kTagSubBarrier, token.bytes());
      break;
    }
    if (me + mask < p) recv_frame(me + mask, kTagSubBarrier);
  }
  std::vector<std::byte> release;
  broadcast(release, /*root=*/0);
}

void SubgroupComm::set_timeout(double seconds) {
  Communicator::set_timeout(seconds);
  // The parent endpoint is what actually blocks inside recv(), so the
  // deadline has to reach it.
  parent_->set_timeout(seconds);
}

void SubgroupComm::set_probe(CommProbe* probe) {
  Communicator::set_probe(probe);
  // Observation happens where bytes actually move; the probe then sees
  // subgroup traffic in the parent's (stable, full-group) rank space.
  parent_->set_probe(probe);
}

std::vector<int> SubgroupComm::failed_ranks() const {
  const auto parent_failed = parent_->failed_ranks();
  std::vector<int> out;
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (std::find(parent_failed.begin(), parent_failed.end(), members_[i]) !=
        parent_failed.end()) {
      out.push_back(static_cast<int>(i));
    }
  }
  return out;
}

std::vector<int> SubgroupComm::agree_survivors() {
  // The rendezvous runs among all live ranks of the underlying transport;
  // translate the agreed parent-space survivor set into this group's ranks.
  const auto parent_survivors = parent_->agree_survivors();
  std::vector<int> out;
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (std::find(parent_survivors.begin(), parent_survivors.end(),
                  members_[i]) != parent_survivors.end()) {
      out.push_back(static_cast<int>(i));
    }
  }
  return out;
}

}  // namespace keybin2::comm
