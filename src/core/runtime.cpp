#include "core/runtime.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "threading/thread_team.hpp"
#include "util/clock.hpp"

namespace opsched {

namespace {

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
          task.mem_intensity < AdmissionPolicy::kComputeBoundCutoff) {
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

/// The simulated machine under the FIFO baseline: each op stacks an
/// unpinned team of intra_op threads onto min(intra_op, cores) cores.
/// Rotating bases model how successive inter-op slots land on different
/// parts of the chip (inter=2/intra=34 naturally splits the machine;
/// inter=2/intra=68 fully overlaps).
class SimFifoSubstrate final : public FifoSubstrate {
 public:
  SimFifoSubstrate(SimMachine& machine, int inter_op, int intra_op)
      : machine_(machine),
        inter_op_(static_cast<std::size_t>(inter_op)),
        intra_op_(intra_op),
        width_(std::min<std::size_t>(static_cast<std::size_t>(intra_op),
                                     machine.spec().num_cores)) {}

  double now_ms() const override { return machine_.now_ms(); }

  void start(std::size_t slot, const Node& node) override {
    const std::size_t ncores = machine_.spec().num_cores;
    const std::size_t base = base_ * width_ % ncores;
    base_ = (base_ + 1) % inter_op_;
    CoreSet cores(ncores);
    for (std::size_t i = 0; i < width_; ++i) cores.add((base + i) % ncores);
    if (slot >= slot_task_.size()) slot_task_.resize(slot + 1);
    slot_task_[slot] = machine_.launch(node, intra_op_, AffinityMode::kSpread,
                                       cores, LaunchKind::kStacked);
  }

  void wait(std::vector<DispatchCompletion>& out) override {
    const SimMachine::Completion c = machine_.advance().value();
    const auto slot = static_cast<std::size_t>(
        std::find(slot_task_.begin(), slot_task_.end(), c.id) -
        slot_task_.begin());
    out.push_back(DispatchCompletion{slot, c.finish_ms, c.actual_ms, 0.0});
  }

 private:
  SimMachine& machine_;
  std::size_t inter_op_;
  int intra_op_;
  std::size_t width_;
  std::size_t base_ = 0;  // slot base cursor, rotating over inter_op
  std::vector<SimMachine::TaskId> slot_task_;
};

}  // namespace

StepResult run_sim_fifo(const Graph& g, SimMachine& machine, int inter_op,
                        int intra_op) {
  if (intra_op < 1)
    throw std::invalid_argument("run_sim_fifo: intra_op must be >= 1");
  machine.reset();
  SimFifoSubstrate substrate(machine, inter_op, intra_op);
  return run_fifo(substrate, g, inter_op);
}

ManualOptimum manual_optimize(const Graph& g, SimMachine& machine,
                              const std::vector<int>& inter_grid,
                              const std::vector<int>& intra_grid) {
  ManualOptimum best;
  best.time_ms = std::numeric_limits<double>::infinity();
  for (int inter : inter_grid) {
    for (int intra : intra_grid) {
      const double t = run_sim_fifo(g, machine, inter, intra).time_ms;
      if (t < best.time_ms) best = ManualOptimum{inter, intra, t};
    }
  }
  return best;
}

Runtime::Runtime(const MachineSpec& spec, RuntimeOptions options)
    : options_(options),
      spec_(spec),
      model_(spec),
      machine_(spec, model_),
      policy_(db_, options_, static_cast<int>(spec.num_cores)) {}

ProfilingReport Runtime::profile(const Graph& g) {
  return profile_multi({&g});
}

ProfilingReport Runtime::profile_graphs(
    const std::vector<const Graph*>& graphs, const HillClimbParams& params,
    const NodeMeasureFn& measure) {
  ProfilingReport report;
  const HillClimbProfiler profiler(params);
  std::size_t max_samples_per_op = 0;
  for (std::size_t t = 0; t < graphs.size(); ++t) {
    for (const Node& n : graphs[t]->nodes()) {
      if (!op_kind_tunable(n.kind)) continue;
      const OpKey key = OpKey::of(n);
      if (db_.contains(key)) continue;
      ProfileCurve curve = profiler.profile([&](int threads, AffinityMode m) {
        return measure(t, n, threads, m);
      });
      max_samples_per_op =
          std::max(max_samples_per_op, profiler.last_sample_count());
      report.total_samples += curve.total_samples();
      db_.put(key, std::move(curve));
      ++report.unique_ops;
    }
  }
  report.profiling_steps = max_samples_per_op;
  return report;
}

ProfilingReport Runtime::profile_multi(
    const std::vector<const Graph*>& graphs) {
  HillClimbParams params;
  params.interval = options_.hill_climb_interval;
  params.max_threads = static_cast<int>(spec_.num_cores);
  return profile_graphs(
      graphs, params,
      [&](std::size_t, const Node& n, int threads, AffinityMode mode) {
        return model_.exec_time_ms(n, threads, mode);
      });
}

StepResult Runtime::run_step(const Graph& g) {
  return std::move(run_step_multi({&g}, TenantSet::slots(1)).front());
}

std::vector<StepResult> Runtime::run_step_multi(
    const std::vector<const Graph*>& graphs, const TenantSet& set) {
  machine_.reset();
  SimSubstrate substrate(machine_);
  // One decision per round: the simulator's schedules are the reference
  // the paper's tables are regenerated from.
  return run_dispatch(policy_, substrate, graphs, set, /*decision_batch=*/1);
}

void Runtime::retire_tenant(std::size_t id) {
  policy_.retire_tenant(id);
  if (host_executor_ != nullptr) host_executor_->retire_tenant(id);
}

StepResult Runtime::run_step_fifo(const Graph& g, int inter_op,
                                  int intra_op) {
  return run_sim_fifo(g, machine_, inter_op, intra_op);
}

StepResult Runtime::run_step_recommendation(const Graph& g) {
  return run_step_fifo(g, 1, static_cast<int>(spec_.num_cores));
}

TeamPool& Runtime::host_pool() {
  if (host_pool_ == nullptr)
    host_pool_ = std::make_unique<TeamPool>(host_logical_cores());
  return *host_pool_;
}

HostCorunExecutor& Runtime::host_executor() {
  if (host_executor_ == nullptr) {
    host_executor_ = std::make_unique<HostCorunExecutor>(
        db_, static_cast<int>(spec_.num_cores), host_pool(), options_);
  }
  return *host_executor_;
}

ProfilingReport Runtime::profile_host(HostGraphProgram& program,
                                      int repeats) {
  return profile_host_multi({&program}, repeats);
}

ProfilingReport Runtime::profile_host_multi(
    const std::vector<HostGraphProgram*>& programs, int repeats) {
  TeamPool& pool = host_pool();
  HillClimbParams params;
  params.interval = options_.hill_climb_interval;
  params.max_threads = static_cast<int>(pool.max_width());
  params.both_modes = false;  // the host pool has no tile topology
  const int reps = std::max(1, repeats);
  std::vector<const Graph*> graphs;
  for (const HostGraphProgram* program : programs)
    graphs.push_back(&program->graph());
  // The measurement is a REAL timed run of the node's bound kernel on a
  // real team of the sampled width — concurrency control on physical
  // hardware, the paper's actual setting. Tenants whose (kind, shape) keys
  // coincide share one curve: the kernel is the same work.
  return profile_graphs(
      graphs, params,
      [&](std::size_t t, const Node& n, int threads, AffinityMode) {
        ThreadTeam& team = pool.team(static_cast<std::size_t>(threads));
        const double t0 = wall_time_ms();
        for (int r = 0; r < reps; ++r) programs[t]->run_node(n.id, team);
        return (wall_time_ms() - t0) / static_cast<double>(reps);
      });
}

StepResult Runtime::run_step_host(HostGraphProgram& program) {
  return std::move(run_step_multi_host({&program}, TenantSet::slots(1)).front());
}

std::vector<StepResult> Runtime::run_step_multi_host(
    const std::vector<HostGraphProgram*>& programs, const TenantSet& set) {
  return host_executor().run_step_multi(programs, set);
}

StepResult Runtime::run_step_host_fifo(HostGraphProgram& program,
                                       int inter_op, int intra_op) {
  return host_executor().run_step_fifo(program, inter_op, intra_op);
}

StepResult Runtime::run_step_host_recommendation(HostGraphProgram& program) {
  HostCorunExecutor& exec = host_executor();
  return exec.run_step_fifo(program, 1, static_cast<int>(exec.cores()));
}

ManualOptimum Runtime::manual_optimize(const Graph& g) {
  const int c = static_cast<int>(spec_.num_cores);
  // The grid the paper's Table I explores: inter x intra with intra at
  // half/full/double the physical cores, plus small-intra points observed
  // in Section IV-B's manual optima (16 and 2).
  return opsched::manual_optimize(g, machine_, {1, 2, 4},
                                  {2, 16, c / 4, c / 2, c, 2 * c});
}

}  // namespace opsched
