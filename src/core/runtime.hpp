// Runtime: the top-level object a user of this library interacts with.
// It owns the simulated machine, profiles a training-step graph with the
// hill-climbing performance model during the first few steps, then executes
// steps under the adaptive scheduler (Strategies 1-4) or under baseline
// policies for comparison — the workflow of the paper's Figure 2.
//
// Profiling only fills the PerfDatabase. The Strategy 1/2 decisions belong
// to each substrate's AdmissionPolicy, which builds them over exactly the
// graphs it walks and rebuilds them when those graphs or the database
// change, so profiling one model never leaves another model's step on the
// wrong decisions.
//
// Two execution substrates share one Runtime:
//   - simulated: profile() + run_step()/run_step_fifo() on the SimMachine
//     (regenerates the paper's tables; deterministic virtual time). The
//     Runtime adapts the machine to run_dispatch and run_fifo
//     (core/dispatch.hpp) itself and owns the simulator's AdmissionPolicy;
//   - native host: profile_host() + run_step_host()/run_step_host_fifo(),
//     which time and run the REAL tensor kernels on real pinned threads via
//     HostCorunExecutor — the same two loops over the host's adapters, the
//     same AdmissionPolicy logic, real wall-clock.
// Profiles land in the one PerfDatabase keyed by (kind, shapes), and the
// two substrates' timescales differ wildly — use one Runtime per substrate
// (or call reset-free profile()/profile_host() for disjoint graphs only).
#pragma once

#include <functional>
#include <memory>

#include "core/admission_policy.hpp"
#include "core/dispatch.hpp"
#include "core/host_corun.hpp"
#include "machine/sim_machine.hpp"
#include "perf/hill_climb.hpp"
#include "perf/perf_db.hpp"
#include "threading/team_pool.hpp"

namespace opsched {

/// Cost of the profiling phase.
struct ProfilingReport {
  std::size_t unique_ops = 0;     // distinct (kind, shape) keys profiled
  std::size_t total_samples = 0;  // hill-climb measurements taken
  /// Profiling steps consumed: the climb samples thread counts in lockstep
  /// across ops, so the step count is the largest per-op sample count —
  /// bounded by C/x * 2 as in the paper.
  std::size_t profiling_steps = 0;
};

/// One FIFO baseline step (run_fifo) of `g` on `machine`, reset first:
/// every slot stacks an unpinned team of `intra_op` threads on the chip.
/// Throws std::invalid_argument if inter_op or intra_op is below 1.
StepResult run_sim_fifo(const Graph& g, SimMachine& machine, int inter_op,
                        int intra_op);

/// The best (inter, intra) FIFO grid point and its step time.
struct ManualOptimum {
  int inter_op = 1;
  int intra_op = 68;
  double time_ms = 0.0;
};

/// Sweeps the (inter, intra) grid with run_sim_fifo and returns the fastest
/// point — the paper's "manual optimization" procedure (Table I).
ManualOptimum manual_optimize(const Graph& g, SimMachine& machine,
                              const std::vector<int>& inter_grid,
                              const std::vector<int>& intra_grid);

class Runtime {
 public:
  explicit Runtime(const MachineSpec& spec, RuntimeOptions options = {});

  /// Profiles every unique tunable op of `g` with the hill-climb model into
  /// the database. Idempotent per graph.
  ProfilingReport profile(const Graph& g);

  /// Multi-tenant profiling: profiles every graph's unique ops (shared
  /// (kind, shape) keys are profiled once across tenants).
  ProfilingReport profile_multi(const std::vector<const Graph*>& graphs);

  /// One adaptive training step (Strategies per options.strategies).
  StepResult run_step(const Graph& g);

  /// One CO-LOCATED adaptive step over N tenants' graphs on the simulated
  /// machine (reset first), on decisions built over exactly `graphs` (see
  /// AdmissionPolicy). Ops interleave across tenants under the
  /// weighted-deficit admission walk, one decision per round. Returns one
  /// StepResult per tenant, in input order (see run_dispatch); deterministic
  /// for fixed inputs. `set` names the tenants: the serving layer passes
  /// job ids so learned state and fairness deficits follow jobs across
  /// between-step tenant-set reconfigurations; TenantSet::slots(n, weights)
  /// gives the slot-indexed population.
  std::vector<StepResult> run_step_multi(
      const std::vector<const Graph*>& graphs, const TenantSet& set);

  /// Forgets stable tenant id `id`'s learned scheduling state (decision
  /// cache, interference record, fairness deficit) on BOTH substrates'
  /// executors. Profiled curves are untouched — they are keyed by
  /// (kind, shape), not by tenant, and stay warm for future jobs.
  void retire_tenant(std::size_t id);

  /// One baseline step under a uniform (inter, intra) FIFO policy.
  StepResult run_step_fifo(const Graph& g, int inter_op, int intra_op);

  /// The paper's recommendation baseline (inter=1, intra=physical cores).
  StepResult run_step_recommendation(const Graph& g);

  /// Grid-search manual optimization (Table I procedure).
  ManualOptimum manual_optimize(const Graph& g);

  // -- native host execution ----------------------------------------------

  /// Profiles every unique tunable op of `program`'s graph by TIMING REAL
  /// KERNEL RUNS on host thread teams (hill-climb over widths) into the
  /// database. Idempotent per graph. `repeats` timed runs are averaged per
  /// sample point.
  ProfilingReport profile_host(HostGraphProgram& program, int repeats = 3);

  /// Multi-tenant host profiling: every program's unique ops timed on real
  /// teams (shared (kind, shape) keys profiled once across tenants).
  ProfilingReport profile_host_multi(
      const std::vector<HostGraphProgram*>& programs, int repeats = 3);

  /// One adaptive host step (real threads, real kernels, Strategies per
  /// options.strategies) on decisions built over the program's graph, as
  /// for run_step_multi. time_ms is wall-clock; checksum is filled.
  StepResult run_step_host(HostGraphProgram& program);

  /// One CO-LOCATED adaptive host step over N tenants (one program per
  /// training job, scheduled together on the shared host core map; see
  /// HostCorunExecutor::run_step_multi). Decisions and `set` as for
  /// run_step_multi. Returns one StepResult per tenant, in input order,
  /// each with that tenant's makespan, consumed service time, and private
  /// step checksum.
  std::vector<StepResult> run_step_multi_host(
      const std::vector<HostGraphProgram*>& programs, const TenantSet& set);

  /// Host baseline under a uniform (inter, intra) FIFO policy.
  StepResult run_step_host_fifo(HostGraphProgram& program, int inter_op,
                                int intra_op);

  /// Host recommendation baseline (inter=1, intra=host cores).
  StepResult run_step_host_recommendation(HostGraphProgram& program);

  /// The host thread-team pool (created on first use, sized to the host's
  /// logical cores).
  TeamPool& host_pool();
  /// The native executor (created on first use; learned state persists
  /// across steps like the simulator scheduler's).
  HostCorunExecutor& host_executor();

  const PerfDatabase& database() const noexcept { return db_; }
  /// Mutable access for persistence: a restarting service warm-starts by
  /// loading a saved database BEFORE any profiling/scheduling (the
  /// database is not thread-safe; see perf/perf_db.hpp).
  PerfDatabase& database() noexcept { return db_; }
  const CostModel& cost_model() const noexcept { return model_; }
  SimMachine& machine() noexcept { return machine_; }
  const RuntimeOptions& options() const noexcept { return options_; }
  /// The simulator's Strategy 1-4 admission logic, its decisions and its
  /// learned state (decision cache, interference record), which persists
  /// across steps.
  AdmissionPolicy& policy() noexcept { return policy_; }

 private:
  /// Times one tunable node of graphs[tenant] at a sampled width.
  using NodeMeasureFn = std::function<double(
      std::size_t tenant, const Node& node, int threads, AffinityMode mode)>;
  /// The hill-climb pass both profile_multi and profile_host_multi run:
  /// every tunable op whose (kind, shape) key the database lacks is climbed
  /// once with `measure` and put into the database.
  ProfilingReport profile_graphs(const std::vector<const Graph*>& graphs,
                                 const HillClimbParams& params,
                                 const NodeMeasureFn& measure);

  RuntimeOptions options_;
  MachineSpec spec_;
  CostModel model_;
  SimMachine machine_;
  PerfDatabase db_;
  AdmissionPolicy policy_;
  std::unique_ptr<TeamPool> host_pool_;
  std::unique_ptr<HostCorunExecutor> host_executor_;
};

}  // namespace opsched
