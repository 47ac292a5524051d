// CorunScheduler: executes one training step on the simulated machine under
// Strategies 1-4 (paper Section III-D). This is the component that replaces
// TensorFlow's FIFO executor.
//
// Per scheduling round (whenever cores idle — at step start and after every
// completion):
//   Strategy 3: walk the ready queue in arrival order; for each op take its
//   `num_candidates` most performant (threads, mode) configurations; a
//   candidate is admissible if it fits the idle cores, respects the
//   Strategy-2 width guard (|Δthreads| <= 2 else fall back to the S2
//   width), is predicted not to outlast the ongoing ops (throughput guard),
//   and does not form a recorded bad-interference pair with a running op.
//   Among admissible candidates of the first such op, the one with the
//   FEWEST threads wins — freeing cores for more co-runners, the paper's
//   "maximize operations co-running" tie-break.
//   If nothing is admissible and the machine is empty, the most
//   time-consuming ready op runs (capped to the machine width).
//   Strategy 4: when no idle cores remain, the smallest ready ops (by
//   serial time) are overlaid onto spare hyper-thread contexts.
//
// Multi-tenancy: run_step_multi co-locates N independent training graphs on
// the one simulated machine — each tenant keeps a private ready queue and
// dependency tracker, and the shared AdmissionPolicy's weighted-deficit
// walk arbitrates which tenant's op claims idle cores each round. The
// single-graph run_step is the N=1 case of the same loop.
//
// The round itself is run_dispatch (core/dispatch.hpp), which this
// scheduler shares with HostCorunExecutor (real threads, real kernels);
// the scheduler only adapts the SimMachine to it. The simulator and the
// native host path answer "what runs next, at what width?" with the same
// policy AND the same loop, identically by construction.
#pragma once

#include <vector>

#include "core/admission_policy.hpp"
#include "core/concurrency_controller.hpp"
#include "core/dispatch.hpp"
#include "machine/sim_machine.hpp"

namespace opsched {

/// Lifetime: the scheduler keeps a reference to `controller`, which must
/// outlive it (Runtime owns both and guarantees this; standalone users must
/// too). `options` is copied at construction.
///
/// Thread-safety: NOT thread-safe. run_step mutates the learned state
/// (decision cache, interference record — owned by the embedded
/// AdmissionPolicy), so each SimMachine/step must be driven from one thread
/// at a time; concurrent steps need one scheduler per thread. The
/// referenced ConcurrencyController is only read.
class CorunScheduler {
 public:
  CorunScheduler(const ConcurrencyController& controller,
                 RuntimeOptions options)
      : policy_(controller, options) {}

  /// Runs every node of `g` to completion on `machine` (which is reset
  /// first). Deterministic for fixed inputs.
  StepResult run_step(const Graph& g, SimMachine& machine);

  /// Runs N tenants' graphs to completion CO-LOCATED on `machine` (reset
  /// first), ops interleaving across tenants under the weighted-deficit
  /// admission walk; slot t of `graphs` carries stable id set.ids[t] (the
  /// serving layer passes job ids), so learned state and — with
  /// set.preserve_service — the fairness deficit follow the job across
  /// between-step tenant-set reconfigurations. TenantSet::slots(n, weights)
  /// gives the slot-indexed population. Returns one StepResult per tenant,
  /// in input order: time_ms is the tenant's makespan (virtual step start
  /// to its last completion), service_ms the machine time its ops consumed,
  /// trace its private event log (co-run levels count ALL tenants' in-flight
  /// ops). Deterministic for fixed inputs.
  std::vector<StepResult> run_step_multi(
      const std::vector<const Graph*>& graphs, SimMachine& machine,
      const TenantSet& set);

  /// Bad-interference pairs recorded so far (survives across steps, as in
  /// the paper: "Our runtime can record such cases and avoid co-running
  /// such operations in the future training steps").
  std::size_t recorded_bad_pairs() const {
    return policy_.recorded_bad_pairs();
  }

  /// Clears learned state (decision cache + interference record).
  void reset_learning() { policy_.reset_learning(); }

  /// Forgets stable tenant id `id`'s learned state and fairness deficit
  /// (see AdmissionPolicy::retire_tenant) — the serving layer calls this
  /// when a job leaves for good.
  void retire_tenant(std::size_t id) { policy_.retire_tenant(id); }

  /// The shared Strategy 1-4 admission logic (also used, with its own
  /// instance, by HostCorunExecutor). Exposed for the drift tests.
  const AdmissionPolicy& policy() const noexcept { return policy_; }

 private:
  AdmissionPolicy policy_;
};

}  // namespace opsched
