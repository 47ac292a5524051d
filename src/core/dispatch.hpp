// The two step loops of the runtime, each written once for every substrate.
//
// run_dispatch is the completion-driven dispatch loop — the one scheduling
// round of the paper's runtime (Figure 2). Per round (at step start and
// after every batch of completions):
//   Strategies 1-3: while cores are idle and some tenant has ready work, ask
//   the shared AdmissionPolicy for up to `decision_batch` launches against
//   one running-op snapshot and start them on the lowest idle cores;
//   Strategy 4: when fewer than kOverlayTriggerIdleCores cores are idle,
//   overlay the smallest ready ops onto the substrate's overlay-eligible
//   cores;
//   then wait for one or more completions, record unexpected co-run
//   slowdowns with the interference recorder, and release the dependents.
//
// The loop owns everything policy-shaped — per-tenant ready queues and
// dependency trackers, the lane-indexed in-flight table with each op's
// co-runners, per-tenant statistics and traces. A DispatchSubstrate owns
// the machine: which cores are idle, where overlays may ride, how long the
// in-flight ops have left, how a launch starts and how completions arrive.
// Runtime adapts the simulated machine (virtual clock, one completion per
// wait); HostCorunExecutor adapts real pinned thread teams (wall clock,
// completions posted by launcher threads).
//
// run_fifo is the TensorFlow-style baseline the paper measures against:
// ready ops start in arrival order on at most `inter_op` slots, every op at
// the same intra-op width. Its slots stack unpinned teams on overlapping
// cores — the OS scatters the threads — which idle-core accounting cannot
// express, so it runs over its own three-call FifoSubstrate instead of
// being a mode of run_dispatch. The paper's baselines map to:
//   recommendation:  inter_op = 1, intra_op = physical cores
//   TF default:      inter_op = intra_op = logical cores — >10x off
//                    (Section IV-A)
//   manual optimum:  the best (inter_op, intra_op) grid point (Table I)
//
// Lanes: an op launched on `cores` occupies lane 2 * cores.lowest() for a
// primary and that lane + 1 for an overlay. The lowest core of a primary
// span stays busy until the op completes, and a core carries at most one
// overlay, so the mapping is collision-free while the op is in flight.
// A FIFO op's lane is its slot.
#pragma once

#include <optional>
#include <vector>

#include "core/admission_policy.hpp"
#include "machine/sim_machine.hpp"  // EventTrace

namespace opsched {

/// Outcome of one training step — simulated (Runtime over SimMachine) or
/// native (HostCorunExecutor). On the simulated path `time_ms` is
/// virtual clock time; on the host path it is wall-clock time and
/// `checksum` carries the deterministic step checksum.
struct StepResult {
  double time_ms = 0.0;
  EventTrace trace;
  /// Scheduler statistics for the step.
  std::size_t ops_run = 0;
  std::size_t corun_launches = 0;    // launches while something else ran
  std::size_t overlay_launches = 0;  // Strategy 4 overlays
  std::size_t cache_hits = 0;        // decision-cache reuses
  std::size_t guard_fallbacks = 0;   // S2 delta-guard rewrites
  double mean_corun = 0.0;
  /// Host executors only: deterministic checksum over every node's outputs
  /// (0.0 on the simulated path, which never touches tensor values).
  double checksum = 0.0;
  /// Sum of the completed ops' individual durations (wall on the host path,
  /// virtual on the simulated one). On the multi-tenant paths this is the
  /// machine time each tenant actually consumed — the basis of the fairness
  /// metrics; time_ms is the tenant's makespan, which overlaps with other
  /// tenants'.
  double service_ms = 0.0;
  /// Time the dispatcher spent INSIDE admission decisions this step
  /// (building running views + policy calls), on the substrate's clock:
  /// the scheduler overhead the micro_dispatch bench divides by time_ms on
  /// the host, and 0.0 on the simulated path, whose decisions take no
  /// virtual time.
  double sched_ms = 0.0;
};

/// The lane of an op launched on `cores` (see the lane note above).
inline std::size_t dispatch_lane(const CoreSet& cores, bool overlay) {
  return 2 * cores.lowest() + (overlay ? 1 : 0);
}

/// One op the loop hands its substrate to start.
struct DispatchLaunch {
  std::size_t lane = 0;
  std::size_t tenant = 0;
  const Node* node = nullptr;
  Candidate candidate;
  CoreSet cores;
  bool overlay = false;
  /// Some op is still waiting in a ready queue after this launch (a
  /// substrate that runs saturating launches inline must not when an
  /// overlay could still ride on them).
  bool others_ready = false;
};

/// One finished op, as its substrate reports it (run_dispatch and run_fifo).
struct DispatchCompletion {
  std::size_t lane = 0;
  /// Completion time on the substrate's step clock.
  double end_ms = 0.0;
  double actual_ms = 0.0;
  /// What the op should have taken without interference; 0 when the
  /// substrate has no estimate yet (the recorder then skips it).
  double expected_ms = 0.0;
};

/// The machine side of the dispatch loop.
class DispatchSubstrate {
 public:
  virtual ~DispatchSubstrate() = default;

  /// Cores scheduled over; the loop keeps 2 * cores() lanes.
  virtual std::size_t cores() const = 0;
  /// The step clock, in ms since the step began.
  virtual double now_ms() const = 0;
  /// Cores free for a primary launch.
  virtual CoreSet idle_cores() const = 0;
  /// Busy cores a Strategy-4 overlay may ride on (empty when none may).
  virtual CoreSet overlay_cores() const = 0;
  /// Writes every in-flight op's predicted time to completion, on the
  /// profiled curves' timescale, at its lane of `by_lane` (sized to the lanes).
  virtual void remaining_ms(std::vector<double>& by_lane) const = 0;
  /// Starts `launch`. Returns its completion when the substrate ran it to
  /// the end before returning, nullopt when it completes asynchronously.
  virtual std::optional<DispatchCompletion> launch(
      const DispatchLaunch& launch) = 0;
  /// Blocks until at least one asynchronous launch completed and appends
  /// every completion available. Only called while an op is in flight.
  virtual void wait(std::vector<DispatchCompletion>& out) = 0;
};

/// Runs every node of every graph to completion on `substrate`, co-located
/// under `policy`'s weighted-deficit walk with slot t carrying stable id
/// set.ids[t]. `decision_batch` is next_launch_batch's max_launches (1 is
/// the decision-per-round loop). Returns one StepResult per graph, in input
/// order: time_ms is the tenant's makespan on the substrate clock,
/// service_ms the time its ops consumed, trace its private event log
/// (co-run levels count ALL tenants' in-flight ops). Throws
/// std::invalid_argument on a TenantSet/graphs size mismatch and
/// std::logic_error if the policy leaves an empty machine idle.
std::vector<StepResult> run_dispatch(AdmissionPolicy& policy,
                                     DispatchSubstrate& substrate,
                                     const std::vector<const Graph*>& graphs,
                                     const TenantSet& set,
                                     std::size_t decision_batch);

/// The machine side of the FIFO loop.
class FifoSubstrate {
 public:
  virtual ~FifoSubstrate() = default;

  /// The step clock, in ms since the step began.
  virtual double now_ms() const = 0;
  /// Starts `node` on FIFO slot `slot`, which stays busy until the
  /// substrate reports the op's completion with lane = slot.
  virtual void start(std::size_t slot, const Node& node) = 0;
  /// Blocks until at least one started op completed and appends every
  /// completion available. Only called while an op is in flight.
  virtual void wait(std::vector<DispatchCompletion>& out) = 0;
};

/// Runs every node of `g` to completion on `substrate` in arrival order,
/// at most `inter_op` at a time, each on the first free slot. time_ms is
/// the step clock at the last completion, service_ms the time the ops
/// consumed. Throws std::invalid_argument if inter_op < 1 and
/// std::logic_error if nothing runs while nodes remain.
StepResult run_fifo(FifoSubstrate& substrate, const Graph& g, int inter_op);

}  // namespace opsched
