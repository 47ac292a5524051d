#include "core/corun_scheduler.hpp"

#include <utility>

namespace opsched {

namespace {

/// Primaries below this memory intensity leave spare core cycles for a
/// Strategy-4 overlay; memory-bound ones only gain bandwidth pressure.
constexpr double kComputeBoundCutoff = 0.45;

bool is_overlay(LaunchKind kind) { return kind == LaunchKind::kOverlay; }

/// The simulated machine as a dispatch substrate: virtual clock, one
/// completion per wait, interference judged against the solo duration.
class SimSubstrate final : public DispatchSubstrate {
 public:
  explicit SimSubstrate(SimMachine& machine) : machine_(machine) {}

  std::size_t cores() const override { return machine_.spec().num_cores; }
  double now_ms() const override { return machine_.now_ms(); }
  CoreSet idle_cores() const override { return machine_.idle_cores(); }

  CoreSet overlay_cores() const override {
    CoreSet compute_bound(cores());
    for (const auto& task : machine_.running()) {
      if (!is_overlay(task.launch_kind) &&
          task.mem_intensity < kComputeBoundCutoff) {
        compute_bound = compute_bound.union_with(task.cores);
      }
    }
    return machine_.overlayable_cores().intersect(compute_bound);
  }

  void remaining_ms(std::vector<double>& by_lane) const override {
    for (const auto& task : machine_.running()) {
      by_lane[dispatch_lane(task.cores, is_overlay(task.launch_kind))] =
          task.remaining_ms / task.rate;
    }
  }

  std::optional<DispatchCompletion> launch(const DispatchLaunch& l) override {
    machine_.launch(*l.node, l.candidate.threads, l.candidate.mode, l.cores,
                    l.overlay ? LaunchKind::kOverlay : LaunchKind::kExclusive);
    return std::nullopt;
  }

  void wait(std::vector<DispatchCompletion>& out) override {
    // The loop only waits while an op is in flight.
    const SimMachine::Completion c = machine_.advance().value();
    out.push_back(
        DispatchCompletion{dispatch_lane(c.cores, is_overlay(c.launch_kind)),
                           c.finish_ms, c.actual_ms, c.solo_ms});
  }

 private:
  SimMachine& machine_;
};

}  // namespace

StepResult CorunScheduler::run_step(const Graph& g, SimMachine& machine) {
  std::vector<StepResult> results =
      run_step_multi({&g}, machine, TenantSet::slots(1));
  return std::move(results.front());
}

std::vector<StepResult> CorunScheduler::run_step_multi(
    const std::vector<const Graph*>& graphs, SimMachine& machine,
    const TenantSet& set) {
  machine.reset();
  // The machine's own (all-tenant) trace stays a live surface for
  // machine-level consumers (FifoExecutor, sim_machine_test); clearing it
  // here only stops growth across steps. The per-tenant traces returned in
  // the results are recorded by the dispatch loop at the same event points.
  machine.trace().clear();
  SimSubstrate substrate(machine);
  // One decision per round: the simulator's schedules are the reference
  // the paper's tables are regenerated from.
  return run_dispatch(policy_, substrate, graphs, set, /*decision_batch=*/1);
}

}  // namespace opsched
