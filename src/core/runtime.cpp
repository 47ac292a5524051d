#include "core/runtime.hpp"

#include <algorithm>

#include "threading/thread_team.hpp"
#include "util/clock.hpp"

namespace opsched {

Runtime::Runtime(const MachineSpec& spec, RuntimeOptions options)
    : options_(options),
      spec_(spec),
      model_(spec),
      machine_(spec, model_) {
  options_.default_width =
      std::min<int>(options_.default_width, static_cast<int>(spec.num_cores));
  controller_ = std::make_unique<ConcurrencyController>(db_, options_);
  scheduler_ = std::make_unique<CorunScheduler>(*controller_, options_);
}

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
  controller_->build(graphs);
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
  return scheduler_->run_step(g, machine_);
}

std::vector<StepResult> Runtime::run_step_multi(
    const std::vector<const Graph*>& graphs, const TenantSet& set) {
  return scheduler_->run_step_multi(graphs, machine_, set);
}

void Runtime::rebuild_decisions(const std::vector<const Graph*>& graphs) {
  controller_->build(graphs);
}

void Runtime::retire_tenant(std::size_t id) {
  scheduler_->retire_tenant(id);
  if (host_executor_ != nullptr) host_executor_->retire_tenant(id);
}

StepResult Runtime::run_step_fifo(const Graph& g, int inter_op,
                                  int intra_op) {
  const FifoExecutor exec(inter_op, intra_op);
  return exec.run_step(g, machine_);
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
        *controller_, host_pool(), options_);
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
  graphs.reserve(programs.size());
  for (HostGraphProgram* program : programs)
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
  return host_executor().run_step(program);
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
  return host_executor().run_step_recommendation(program);
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
