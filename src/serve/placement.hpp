// Placement: which machine does a job land on? The cluster layer's
// shard-choice logic, kept as pure free functions so the policy is unit-
// testable without spinning up a fleet. Two passes, SET-style (the same
// bin-pack + simulated-annealing idiom the zoo block builders ported):
//   1. greedy bin-pack — each pending job, in submit order, goes to the
//      shard with the lowest relative load (charged width / cores), ties
//      broken by lowest shard index;
//   2. an annealing improvement pass over the whole pending batch (on a
//      fleet of more than one shard): random single-job moves accepted by
//      Metropolis on the balance objective, with the BEST assignment seen
//      returned — the pass can only improve on (never worsen) the greedy
//      seed.
// Deterministic by construction: the annealer runs on a seeded Xoshiro
// stream, so identical inputs give identical placements, which is what
// lets whole fleet runs replay bit-identically under the virtual clock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "serve/admission_control.hpp"

namespace opsched::serve {

/// One shard's standing commitment as placement sees it: the summed
/// charged widths of every non-terminal job currently mapped there.
struct ShardLoad {
  std::size_t cores = 1;
  double width = 0.0;
};

/// The mean width placement charges `d` at on a `cores`-wide shard: its
/// profiled mean, or the full shard when the demand is unprofiled —
/// bin-packing a job the profiler knows nothing about as width-1 would
/// pack unprofiled jobs blind (they spread one-per-shard instead).
double placement_charged_width(const WidthDemand& d, std::size_t cores);

/// Balance objective, lower is better: sum over shards of the squared
/// relative load (width / cores)^2. Convex, so balancing strictly improves
/// it; squared terms mean one overloaded shard costs more than two
/// half-loaded ones (a makespan proxy for the fleet).
double placement_objective(const std::vector<ShardLoad>& loads);

/// `base` loads with the pending batch applied per `assignment`
/// (assignment[i] = shard of pending job i, charged widths[i]).
std::vector<ShardLoad> loads_with_assignment(
    const std::vector<ShardLoad>& base, const std::vector<double>& widths,
    const std::vector<std::size_t>& assignment);

/// Greedy bin-pack of the pending batch onto the shards: job i (in input
/// order) lands on the shard with the lowest post-placement relative load,
/// ties broken by the LOWEST shard index. Requires at least one shard.
std::vector<std::size_t> greedy_place(const std::vector<double>& widths,
                                      const std::vector<ShardLoad>& base);

/// Annealing improvement over `assignment` (usually the greedy seed):
/// 256 single-job shard moves proposed on a Xoshiro stream seeded with
/// `seed`, accepted by Metropolis on placement_objective (temperature 0.5
/// on the objective scale, cooled by 0.97 per proposal). Returns the best
/// assignment visited — the result's objective is never worse than the
/// input's. Deterministic for given (inputs, seed).
std::vector<std::size_t> anneal_place(const std::vector<double>& widths,
                                      const std::vector<ShardLoad>& base,
                                      std::vector<std::size_t> assignment,
                                      std::uint64_t seed);

}  // namespace opsched::serve
