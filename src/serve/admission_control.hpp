// AdmissionController: the service-level admit-now-vs-queue decision —
// distinct from core/AdmissionPolicy, which picks the next OP inside a
// step. This controller decides whether a whole JOB joins the co-located
// tenant set, by weighing the job's profiled width demand against the
// machine's core capacity and the demand of the jobs already resident.
// Demand comes from the same hill-climb profiles the per-op scheduler
// runs on (paper Section III-C): a job "wants" the widths its ops'
// profile curves say are optimal, time-weighted over the step.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/graph.hpp"
#include "perf/perf_db.hpp"
#include "serve/job.hpp"

namespace opsched::serve {

/// A job's appetite for cores, condensed from its ops' profile curves.
struct WidthDemand {
  /// Time-weighted mean of the ops' profiled-optimal widths — the cores
  /// the job keeps busy over a step, so the capacity currency admission
  /// sums in.
  double mean_width = 1.0;
  /// Widest single op (bounds instantaneous footprint, reported only).
  int peak_width = 1;
  /// Core-time area of one step (sum of profiled-best time x width) on the
  /// profiling timescale.
  double area_ms = 0.0;
  /// False when NO profile curve contributed — the numbers above are then
  /// placeholders, not measurements, and admission/placement must treat
  /// the job conservatively (charged as a full machine) instead of packing
  /// it blind as a width-1 job. estimate_demand clears this for zero-curve
  /// graphs; hand-built demands default to trusted.
  bool profiled = true;
};

/// Condenses `g`'s profiled curves into a WidthDemand. Nodes without a
/// curve (non-tunable layout ops, or shapes the profiler has not seen)
/// are excluded from the time weighting; a graph with no curves at all
/// reports the neutral demand {1.0, 1, 0.0} with `profiled == false`.
WidthDemand estimate_demand(const Graph& g, const PerfDatabase& db);

/// What admit() weighs a resident job by: its profiled appetite plus the
/// tenancy class that decides WHICH budget it charges.
struct ResidentDemand {
  WidthDemand demand;
  JobKind kind = JobKind::kTraining;
  /// Inference only: the width floor the core admission walk reserves for
  /// this tenant while it has a pending request (>= 1 once resident).
  int width_floor = 1;
};

struct AdmissionOptions {
  /// Hard cap on co-resident jobs, whatever their demand: each tenant
  /// costs scheduler state and dispatcher work every round.
  std::size_t max_corun_jobs = 4;
};

/// Pure decision logic (no clock, no state): the service owns the queue
/// and calls admit() per candidate, in priority order, whenever it
/// reconfigures. Deterministic by construction.
class AdmissionController {
 public:
  AdmissionController(AdmissionOptions options, std::size_t machine_cores);

  /// Admit `candidate` alongside `resident` now? An empty machine always
  /// admits (a job wider than the machine must still run eventually —
  /// the per-op scheduler caps its launches to the cores that exist).
  /// Training candidates take the capacity test: their charged mean width
  /// plus every resident's must fit 1.25 x cores — oversubscribed on
  /// purpose, since co-located jobs rarely peak together (the paper's
  /// Strategy 3 bet applied at job granularity). Inference candidates are
  /// admitted while the resident inference FLOORS plus their own fit the
  /// physical cores — their per-op priority displaces batch work at op
  /// boundaries anyway, so charging them against batch demand would only
  /// keep latency tenants out of a machine that can serve them. Every floor (candidate and resident) is passed through
  /// clamped_floor() first: a floor wider than the machine is a request
  /// the hardware can never satisfy, and letting it into the floors sum
  /// would starve every later inference candidate behind a reservation
  /// that cannot exist (it also used to leak into the per-op walk as a
  /// permanently unsatisfiable reservation).
  bool admit(const WidthDemand& candidate, JobKind kind, int width_floor,
             const std::vector<ResidentDemand>& resident) const;

  /// The effective inference width floor this machine can actually
  /// reserve: max(1, width_floor), capped at the physical cores. The
  /// serving layer books THIS value (not the raw spec) into the ledger and
  /// the per-op TenantSet, so reservations stay physically satisfiable.
  int clamped_floor(int width_floor) const noexcept;

  /// The mean width the capacity test charges `d` at: its profiled mean,
  /// or the full machine when the demand is unprofiled (packing a job the
  /// profiler knows nothing about as width-1 would place it blind).
  double charged_width(const WidthDemand& d) const noexcept;

  const AdmissionOptions& options() const noexcept { return options_; }
  std::size_t machine_cores() const noexcept { return cores_; }

 private:
  AdmissionOptions options_;
  std::size_t cores_;
};

}  // namespace opsched::serve
