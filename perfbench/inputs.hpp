// Seeded input generation. Every workload input — fuzz graphs, Poisson
// arrival traces, fleet job scripts, tensor seeds — is a pure function of
// the run's --seed; the program under test only ever receives these
// generated inputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace perfbench {

/// Derives an independent 64-bit stream key from (seed, salt).
std::uint64_t derive(std::uint64_t seed, std::uint64_t salt);

/// train_deep: the host-scale ResNet-152 training graph (fixed topology)
/// and a seed-derived tensor seed.
struct TrainInputs {
  opsched::Graph graph;
  std::uint64_t tensor_seed = 0;
};
TrainInputs train_deep_inputs(std::uint64_t seed);
/// train_fine: a 1000-op fuzz graph of tiny ops (max_dim 6) and a tensor
/// seed from `seed`. The graph's structure comes from `graph_seed`, not from
/// the run seed: random DAGs of the same size differ in depth and width
/// enough to move a dispatch-bound step by a quarter, which would swamp
/// every change the workload is there to show. train_fine uses
/// kMicroDispatchGraph, the graph micro_dispatch times.
inline constexpr std::uint64_t kMicroDispatchGraph = 2026;
TrainInputs train_fine_inputs(std::uint64_t seed, std::uint64_t graph_seed);

/// Exactly `count` Poisson arrivals (ms, ascending) at `rate_rps`.
std::vector<double> poisson_arrivals(double rate_rps, std::size_t count,
                                     std::uint64_t seed);

/// One job of the fleet_churn script.
struct FleetJobPlan {
  std::string model;  // zoo or models.hpp name
  int steps = 1;
  double weight = 1.0;
  int priority = 0;
  std::size_t wave = 0;
  /// Pumps after its wave's submission at which the job is cancelled;
  /// -1 when it is never cancelled.
  int cancel_after = -1;
  std::uint64_t tensor_seed = 0;
};

/// `waves` x `per_wave` jobs over the five fleet models, with mixed
/// budgets, weights and priorities; about one in eight is cancelled.
std::vector<FleetJobPlan> fleet_script(std::uint64_t seed, std::size_t waves,
                                       std::size_t per_wave);

/// The training graph of a fleet model name (batch 2).
opsched::Graph fleet_graph(const std::string& model);
const std::vector<std::string>& fleet_models();

/// Field-by-field graph equality (kinds, shapes, edges, labels).
bool same_graph(const opsched::Graph& a, const opsched::Graph& b);

}  // namespace perfbench
