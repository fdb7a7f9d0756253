// Seeded chaos schedules for the soak harness (tools/kb2_soak).
//
// A ChaosSchedule is a small, fully deterministic description of "what goes
// wrong in this run": which rank dies, at which protocol operation, whether
// its respawned replacement dies too, which rank's traffic is delayed, and
// whether the run's checkpoint file gets damaged between phases. Everything
// is derived from one u64 seed (splitmix64 draws), so any soak failure is
// reproducible from the seed printed in its report line.
//
// The schedule compiles down to the comm layer's existing FaultSchedule via
// fault_for(rank, incarnation): each forked rank wraps its endpoint in a
// fault::FaultyComm built from that, so kills land as real SIGKILLs at a
// protocol point (hard_kill under the process backend) and the respawned
// incarnation gets its own — usually clean — schedule. Gating on the
// incarnation is what lets a replacement survive where its predecessor
// died; without it the respawn would re-kill at the same op forever.
#pragma once

#include <cstdint>
#include <string>

#include "comm/fault.hpp"

namespace keybin2::comm::chaos {

/// One seeded fault plan for a whole soak run.
struct ChaosSchedule {
  std::uint64_t seed = 1;

  /// Kill plan: `victim` dies at its `kill_at_op`-th comm operation
  /// (0 = nobody dies). When `kill_respawn` is set the replacement
  /// incarnation is killed too, at `respawn_kill_at_op` — a double failure
  /// that must fall down the recovery ladder, not hang.
  int victim = -1;
  std::uint64_t kill_at_op = 0;
  bool kill_respawn = false;
  std::uint64_t respawn_kill_at_op = 0;

  /// Delay plan: `delay_rank`'s sends are held `delay_ms` with probability
  /// `delay_prob` (-1 = nobody delayed). Stresses timeout paths without
  /// changing any result bytes.
  int delay_rank = -1;
  double delay_prob = 0.0;
  double delay_ms = 0.0;

  /// Checkpoint plan: when >= 0, the soak driver damages the run's
  /// checkpoint file with ContainerCorruption(corrupt_checkpoint) before
  /// the restore phase.
  int corrupt_checkpoint = -1;

  /// The FaultSchedule rank `rank` should wrap its endpoint in, given that
  /// it is the `incarnation`-th process to hold the slot (0 = original).
  fault::FaultSchedule fault_for(int rank, int incarnation) const;

  /// One-line human description ("seed=7 kill r2@op13 +respawn@op9 ...").
  std::string describe() const;
};

/// Derive a schedule deterministically from (seed, n_ranks). Roughly: 3/4
/// of seeds kill somebody, 1/4 of those also kill the replacement, half
/// delay a rank, 1/3 damage the checkpoint.
ChaosSchedule make_chaos_schedule(std::uint64_t seed, int n_ranks);

/// Soak base seed: KB2_CHAOS_SEED when set, else `fallback`.
std::uint64_t chaos_seed_from_env(std::uint64_t fallback);

}  // namespace keybin2::comm::chaos
