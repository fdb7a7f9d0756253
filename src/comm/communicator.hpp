// Message-passing substrate for KeyBin2's distributed drivers.
//
// The paper's implementation uses mpi4py on an Infiniband cluster. This
// environment has no MPI runtime, so keybin2::comm provides the same
// programming model from scratch: a fixed group of ranks exchanging typed
// messages, with collectives (barrier, broadcast, reduce, allreduce, gather,
// allgather) built on top of point-to-point send/recv using the standard
// binomial-tree algorithms. Backends:
//   * SelfComm     — a single rank (serial execution, no copies).
//   * ThreadComm   — N ranks simulated by N threads in one process, talking
//                    through mailboxes. Exercises the identical code path a
//                    real MPI deployment would (serialize → send → reduce →
//                    broadcast), with real concurrency.
//   * SubgroupComm — a densely renumbered view of a parent communicator
//                    restricted to the survivors of a failure (ULFM-style
//                    shrink-and-continue).
//
// All collective calls must be entered by every rank in the same order
// (SPMD discipline), exactly as in MPI.
//
// Fault model: recv()/barrier() honor a per-endpoint deadline
// (set_timeout()) and throw TimeoutError instead of hanging; a peer's death
// surfaces as RankFailedError naming the dead rank; every collective payload
// travels in a CRC32-checked frame so corruption that passes length checks
// still throws CorruptFrameError. All three derive from CommError — the
// recoverable class a driver may answer with agree_survivors() + retry.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "comm/coreset.hpp"
#include "common/error.hpp"
#include "common/serialize.hpp"

namespace keybin2::comm {

/// Base class of recoverable transport failures: a driver that catches a
/// CommError may call agree_survivors() and retry over the shrunken group.
/// Non-comm errors (bad parameters, broken invariants) stay plain Error and
/// are never retried.
class CommError : public Error {
 public:
  using Error::Error;
};

/// recv()/barrier() exceeded the endpoint's deadline (set_timeout()); the
/// message names (self, src, tag, elapsed) so a hung collective is
/// attributable to one missing peer.
class TimeoutError final : public CommError {
 public:
  TimeoutError(const std::string& what, int self, int src, int tag,
               double elapsed_seconds)
      : CommError(what), self_(self), src_(src), tag_(tag),
        elapsed_seconds_(elapsed_seconds) {}

  int self() const { return self_; }
  int src() const { return src_; }
  int tag() const { return tag_; }
  double elapsed_seconds() const { return elapsed_seconds_; }

 private:
  int self_, src_, tag_;
  double elapsed_seconds_;
};

/// A peer rank died (threw out of its rank function) or left the group; the
/// message names the caller, the operation, and every dead rank with its
/// recorded reason.
class RankFailedError final : public CommError {
 public:
  using CommError::CommError;
};

/// Another rank has begun survivor agreement: the current operation is
/// abandoned so this rank converges into agree_survivors() too.
class RecoveryError final : public CommError {
 public:
  using CommError::CommError;
};

/// A framed message failed its CRC32 integrity check (zero-fill, bit-flip,
/// or truncation that still parsed).
class CorruptFrameError final : public CommError {
 public:
  using CommError::CommError;
};

/// Reduction operators supported by reduce/allreduce.
enum class ReduceOp { kSum, kMin, kMax };

/// Allreduce algorithm selection. kAuto picks by payload size: small vectors
/// go through the latency-optimal binomial tree (reduce + broadcast,
/// 2·log p rounds shipping the full vector), large ones through the
/// bandwidth-optimal Rabenseifner scheme (recursive-halving reduce-scatter +
/// recursive-doubling allgather, which moves ~2·n/p elements per rank per
/// round instead of n). kCoreset is never selected here: it is the value
/// ReduceProfile::algo reports after coreset_allreduce, which trades
/// exactness for sublinear traffic (each hop ships a capped weighted
/// sketch, comm/coreset.hpp, sum only).
enum class AllreduceAlgo { kAuto, kTree, kRecursiveHalving, kCoreset };

/// What one adaptive allreduce actually did, for metrics attribution.
struct ReduceProfile {
  AllreduceAlgo algo = AllreduceAlgo::kTree;  // algorithm that ran
  std::uint64_t sparse_blocks = 0;  // segments shipped as (index,value) pairs
  std::uint64_t dense_blocks = 0;   // segments shipped dense

  /// Bytes this rank sent inside the call, measured as a TrafficStats delta
  /// around the collective — so CRC frame headers and sparse-segment
  /// prefixes are included and the number reconciles with the CommProbe
  /// per-(peer, tag) traffic matrix.
  std::uint64_t bytes = 0;

  /// kCoreset only: weighted cells this rank transmitted (tree sends plus,
  /// on the broadcast root, the final sketch fan-out payload), and the
  /// original mass its sampling passes left unselected. Summing the latter
  /// over ranks gives the global sampled-away mass of the reduction.
  std::uint64_t coreset_cells = 0;
  double coreset_mass_dropped = 0.0;
};

/// Per-rank traffic counters; used by benches and the runtime tracer to
/// report communication volume (the paper claims the histogram exchange is
/// "as small as several Kbytes"). Send and receive sides are counted
/// symmetrically: within a group, the sums over all ranks must match.
struct TrafficStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t bytes_received = 0;

  TrafficStats& operator+=(const TrafficStats& o) {
    messages_sent += o.messages_sent;
    bytes_sent += o.bytes_sent;
    messages_received += o.messages_received;
    bytes_received += o.bytes_received;
    return *this;
  }

  /// Counter-wise difference (for per-scope deltas); counters are monotone,
  /// so `later - earlier` never underflows.
  TrafficStats operator-(const TrafficStats& o) const {
    return TrafficStats{messages_sent - o.messages_sent,
                        bytes_sent - o.bytes_sent,
                        messages_received - o.messages_received,
                        bytes_received - o.bytes_received};
  }
};

/// The one observation hook a communicator fires: one begin and one
/// completion per send, recv, barrier and survivor agreement. A probe lives
/// *below* the collectives — each collective decomposes into send/recv
/// pairs, so attaching one probe at the leaf transport sees the whole
/// traffic matrix, including frames exchanged by SubgroupComm and FaultyComm
/// decorators (which forward set_probe()).
///
/// on_begin fires before the op may block or throw; the completion fires
/// once the op can no longer fail (for a send: once the frame is committed,
/// before the receiver can see it). An op that throws, or a rank killed
/// inside one, leaves a begin with no completion — the in-flight evidence
/// the post-mortem reads from the flight ring. Fault injectors fire the
/// begin of the op a simulated kill interrupts, so a simulated death leaves
/// the same evidence a real SIGKILL would.
///
/// Ranks and tags are reported in the leaf transport's rank space (the
/// original full group), so a traffic matrix stays comparable across a
/// survivor shrink. Callbacks may run concurrently from different rank
/// threads; implementations must be thread-safe. All hooks must be cheap:
/// they run inside the transport's critical path, on_send under ThreadComm's
/// mailbox lock — and on_begin must stay lock- and allocation-free.
class CommProbe {
 public:
  enum Op : int { kSend = 0, kRecv = 1, kBarrier = 2, kAgree = 3 };

  virtual ~CommProbe() = default;

  /// `self` is entering `op`. peer/tag are -1 where not meaningful
  /// (barrier, agreement); `bytes` is the payload of a send, else 0.
  virtual void on_begin(int self, Op op, int peer, int tag,
                        std::size_t bytes) = 0;

  /// A message left `self` for `dest`. `flow_id` is unique per delivery and
  /// reappears in the matching on_recv, letting a timeline pair the two ends
  /// of a flow. `queue_depth` is the destination mailbox depth right after
  /// enqueue (0 when the transport cannot know it).
  virtual void on_send(int self, int dest, int tag, std::size_t bytes,
                       std::uint64_t flow_id, std::size_t queue_depth) = 0;

  /// A message from `src` was delivered to `self` after blocking for
  /// `wait_ns` nanoseconds (0 when it was already waiting in the mailbox).
  virtual void on_recv(int self, int src, int tag, std::size_t bytes,
                       std::uint64_t flow_id, std::int64_t wait_ns) = 0;

  /// `self` completed a barrier after blocking for `wait_ns` nanoseconds.
  virtual void on_barrier(int self, std::int64_t wait_ns) = 0;

  /// `self` completed a survivor agreement that kept `survivors` ranks.
  virtual void on_agree(int self, std::size_t survivors) = 0;
};

/// Only named by Communicator's empty shim below; has no definition.
class FlightHook;

/// Human-readable name for a message tag: user tags print as "user:<n>",
/// the reserved collective tags above kUserTagLimit print as the collective
/// that owns them ("bcast", "gather", ...). Used by heatmap/metrics output.
std::string tag_name(int tag);

/// Stable short name of a CommError's concrete kind ("timeout",
/// "rank_failed", "recovery", "corrupt_frame") for event-log attribution.
const char* error_kind(const CommError& e);

class Communicator {
 public:
  virtual ~Communicator() = default;

  virtual int rank() const = 0;
  virtual int size() const = 0;

  /// Point-to-point: deliver bytes to `dest` under `tag`. User tags must be
  /// in [0, kUserTagLimit); higher tags are reserved for collectives.
  virtual void send(int dest, int tag, std::span<const std::byte> data) = 0;

  /// Blocking receive of the next message from `src` with `tag` (FIFO per
  /// (src, tag) channel). Honors the endpoint deadline (set_timeout()).
  virtual std::vector<std::byte> recv(int src, int tag) = 0;

  virtual void barrier() = 0;

  virtual TrafficStats stats() const = 0;

  // ---- Fault surface ----

  /// Deadline, in seconds, for recv()/barrier()/agree_survivors() to make
  /// progress before throwing TimeoutError. 0 (the default) waits forever.
  /// Virtual so decorators and subgroup views can forward to the transport
  /// that actually blocks.
  virtual void set_timeout(double seconds) { timeout_seconds_ = seconds; }
  double timeout() const { return timeout_seconds_; }

  /// Ranks of this group known to have failed (empty for healthy backends).
  virtual std::vector<int> failed_ranks() const { return {}; }

  /// How many times this rank's slot has been respawned by a supervisor
  /// (ProcComm's recovery ladder). 0 on the original incarnation and on
  /// backends without respawn; a driver seeing > 0 knows it is a
  /// replacement and may restore state from a checkpoint before rejoining
  /// the protocol. Decorators and subgroup views forward to the leaf.
  virtual int incarnation() const { return 0; }

  /// True when this group's ranks are isolated OS processes (ProcComm): a
  /// rank can really die — SIGKILL and all — without taking the others with
  /// it. Fault injectors consult this before escalating a simulated kill to
  /// a real signal; decorators and subgroup views forward to the leaf
  /// transport.
  virtual bool process_isolated() const { return false; }

  /// Collective among the *live* ranks: agree on the surviving member set
  /// after a failure and return it (in this communicator's rank space, so
  /// the result can seed a SubgroupComm). Dead and departed ranks are
  /// excluded; every live rank must call this (blocked peers are woken with
  /// RecoveryError so they converge). The default covers backends that
  /// cannot lose ranks.
  virtual std::vector<int> agree_survivors();

  static constexpr int kUserTagLimit = 1 << 20;

  /// Attach an observation probe (nullptr detaches). Leaf transports record
  /// into it; decorators and subgroup views forward to the transport that
  /// actually moves bytes. The probe must outlive the communicator or be
  /// detached first. Disabled (the default) costs one branch per operation.
  virtual void set_probe(CommProbe* probe) { probe_ = probe; }
  CommProbe* probe() const { return probe_; }

  /// Empty shim, called by no src code: the probe is the one comm hook.
  /// It stays only because perfbench/traced_comm.hpp:59 overrides it and
  /// only a benchmark change may edit that file (ROADMAP item 3, steps 2–3
  /// move TracedComm off it, then delete this and FlightHook).
  virtual void set_flight_hook(FlightHook*) {}

  /// Recovery-ladder counters, group-wide: replacement forks spent and
  /// regrow epochs completed so far. Live on ProcComm (read from the shared
  /// group header, so every rank sees supervisor activity as it happens);
  /// 0 on backends without a respawn supervisor. Decorators and subgroup
  /// views forward to the leaf.
  virtual std::uint64_t respawns_total() const { return 0; }
  virtual std::uint64_t regrow_epochs() const { return 0; }

  /// Hand a received buffer back to the transport for reuse (collectives
  /// call this after parsing a frame). The default drops it; pooled
  /// transports (ThreadComm) recycle it into their mailbox free list so
  /// steady-state collectives stop allocating per message.
  virtual void recycle_buffer(std::vector<std::byte>&& buf) { buf.clear(); }

  // ---- Collectives (implemented once, over send/recv) ----
  //
  // Every collective payload is framed with a CRC32 checksum (see
  // send_frame/recv_frame), so zero-fill or bit-flip corruption injected
  // under the collective is detected even when every length prefix still
  // parses. Raw send()/recv() stay unframed for user payloads.

  /// Broadcast `data` from `root` to all ranks (binomial tree).
  void broadcast(std::vector<std::byte>& data, int root);

  /// Elementwise reduction to `root`; every rank passes a vector of the same
  /// length. On non-root ranks the result is empty.
  std::vector<double> reduce(std::span<const double> local, ReduceOp op,
                             int root);
  std::vector<std::uint64_t> reduce(std::span<const std::uint64_t> local,
                                    ReduceOp op, int root);

  /// Elementwise reduction, result available on every rank.
  std::vector<double> allreduce(std::span<const double> local, ReduceOp op);
  std::vector<std::uint64_t> allreduce(std::span<const std::uint64_t> local,
                                       ReduceOp op);

  /// Algorithm-selectable allreduce. kAuto switches to recursive halving at
  /// kRecursiveHalvingMinElements. Under kSum, recursive-halving segments
  /// whose density makes (index,value) pairs cheaper than the dense block
  /// travel sparse (mostly-empty deep histograms); min/max always travel
  /// dense (an absent sparse entry decodes as 0, which is only an identity
  /// for sum). Note recursive halving re-associates the sum, so floating
  /// results can differ from the tree by rounding; integer-valued payloads
  /// (histogram counts) are exact under any order. kCoreset throws
  /// keybin2::Error: the sketching reduction is coreset_allreduce.
  std::vector<double> allreduce(std::span<const double> local, ReduceOp op,
                                AllreduceAlgo algo,
                                ReduceProfile* profile = nullptr);

  /// Payload size, in doubles, at which kAuto switches the allreduce from
  /// the binomial tree to recursive halving. Below this the tree's
  /// log-latency wins; above it bandwidth dominates.
  static constexpr std::size_t kRecursiveHalvingMinElements = 1024;

  /// Approximate sum-allreduce through capped weighted sketches
  /// (comm/coreset.hpp): each rank builds a sketch of its vector, sketches
  /// merge up a binomial tree with re-compression at every hop (so no
  /// framed message ever carries more than opts.max_cells entries), the
  /// root broadcasts the final sketch, and every rank expands it densely.
  /// Deterministic per opts.seed; heavy hitters (>= epsilon of total mass)
  /// are exact. Plugs into the same framed send/recv machinery as every
  /// other collective, so CRC checking, timeout/shrink, and CommProbe
  /// observation work unchanged on all backends.
  std::vector<double> coreset_allreduce(std::span<const double> local,
                                        const coreset::Options& opts,
                                        ReduceProfile* profile = nullptr);

  /// Scalar conveniences.
  double allreduce(double value, ReduceOp op);
  std::uint64_t allreduce(std::uint64_t value, ReduceOp op);

  /// Ring allreduce (sum): the accumulating pass walks the ring 0 -> 1 ->
  /// ... -> p-1, then the distribution pass walks it again, so no central
  /// authority ever exists — the topology the paper notes KeyBin2 also
  /// supports for its histogram merge (§3 step 3). 2(p-1) messages.
  std::vector<double> ring_allreduce(std::span<const double> local);

  /// Gather per-rank byte blobs to `root` (index = source rank). On non-root
  /// ranks the result is empty.
  std::vector<std::vector<std::byte>> gather(std::span<const std::byte> local,
                                             int root);

  /// Gather per-rank blobs to every rank.
  std::vector<std::vector<std::byte>> allgather(
      std::span<const std::byte> local);

  // ---- Typed helpers ----

  /// Send a double vector (length prefix included, CRC-framed).
  void send_doubles(int dest, int tag, std::span<const double> v);
  std::vector<double> recv_doubles(int src, int tag);

 protected:
  void check_rank(int r) const;
  void check_user_tag(int tag) const;

  /// Frame `payload` as [u32 crc32][payload] and send it.
  void send_frame(int dest, int tag, std::span<const std::byte> payload);

  /// Receive a frame from `src`, verify the checksum, and return the
  /// payload; throws CorruptFrameError naming (self, src, tag) on mismatch.
  std::vector<std::byte> recv_frame(int src, int tag);

 private:
  template <typename T>
  std::vector<T> reduce_impl(std::span<const T> local, ReduceOp op, int root,
                             int base_tag);
  template <typename T>
  std::vector<T> allreduce_impl(std::span<const T> local, ReduceOp op);

  /// Rabenseifner allreduce body (size() > 1): non-power-of-two ranks fold
  /// into a power-of-two core first, then recursive-halving reduce-scatter
  /// and recursive-doubling allgather over tracked element segments.
  std::vector<double> recursive_halving_allreduce(std::span<const double> local,
                                                  ReduceOp op,
                                                  ReduceProfile* profile);

  /// Ship acc[lo, hi) to `dest`, sparse-encoded when `sparse_ok` and the
  /// (index,value) form is smaller.
  void send_reduce_block(int dest, int tag, std::span<const double> block,
                         bool sparse_ok, ReduceProfile* profile);

  /// Receive a block for [lo, hi), decode (dense or sparse), and either
  /// reduce into `into` (combine=true) or overwrite it (combine=false).
  void recv_reduce_block(int src, int tag, std::span<double> into, ReduceOp op,
                         bool combine);

  double timeout_seconds_ = 0.0;
  CommProbe* probe_ = nullptr;
  std::vector<std::byte> frame_scratch_;  // reused send_frame assembly buffer

  // Reduce hot-loop scratch, pooled across blocks, rounds, and calls so the
  // steady-state recursive-halving exchange performs no allocations (the
  // micro bench BM_ReduceSteadyStateAllocs enforces this).
  ByteWriter block_scratch_;               // send-side block encoding
  std::vector<double> recv_block_scratch_;  // recv-side dense block decode
};

/// Single-rank communicator: all collectives are identity operations and
/// send/recv works as a loopback queue (so SPMD code runs unchanged).
class SelfComm final : public Communicator {
 public:
  int rank() const override { return 0; }
  int size() const override { return 1; }
  void send(int dest, int tag, std::span<const std::byte> data) override;
  /// Honors the deadline API trivially: with no peer, a missing message can
  /// never arrive, so an empty queue is an immediate TimeoutError.
  std::vector<std::byte> recv(int src, int tag) override;
  void barrier() override;
  TrafficStats stats() const override { return stats_; }
  std::vector<int> agree_survivors() override;

 private:
  // (tag -> FIFO of messages); loopback only. Each entry carries the flow id
  // assigned at send time so a probe can pair the two ends.
  struct Queued {
    int tag;
    std::uint64_t flow_id;
    std::vector<std::byte> bytes;
  };
  std::vector<Queued> queue_;
  TrafficStats stats_;
  std::uint64_t next_flow_id_ = 1;
};

/// A densely renumbered view of `parent` restricted to `members` (parent
/// ranks, strictly ascending; must contain the calling rank). This is the
/// shrunken group a driver continues on after agree_survivors(): subgroup
/// rank i maps to parent rank members[i], traffic keeps accumulating on the
/// parent's counters (stats() delegates), and barrier() is rebuilt over
/// point-to-point sends so it only involves the members. The parent must
/// outlive the subgroup.
class SubgroupComm final : public Communicator {
 public:
  SubgroupComm(Communicator& parent, std::vector<int> members);

  int rank() const override { return my_rank_; }
  int size() const override { return static_cast<int>(members_.size()); }
  void send(int dest, int tag, std::span<const std::byte> data) override;
  std::vector<std::byte> recv(int src, int tag) override;
  void barrier() override;
  TrafficStats stats() const override { return parent_->stats(); }

  void set_timeout(double seconds) override;
  void set_probe(CommProbe* probe) override;
  std::vector<int> failed_ranks() const override;
  std::vector<int> agree_survivors() override;
  bool process_isolated() const override {
    return parent_->process_isolated();
  }
  int incarnation() const override { return parent_->incarnation(); }
  std::uint64_t respawns_total() const override {
    return parent_->respawns_total();
  }
  std::uint64_t regrow_epochs() const override {
    return parent_->regrow_epochs();
  }

  const std::vector<int>& members() const { return members_; }

 private:
  int to_parent(int r) const;

  Communicator* parent_;
  std::vector<int> members_;  // subgroup rank -> parent rank
  int my_rank_ = -1;
};

}  // namespace keybin2::comm
