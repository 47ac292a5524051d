// The metric catalogue and the simulated-substrate probe.
#include <algorithm>

#include "machine/machine_spec.hpp"
#include "workloads.hpp"

namespace perfbench {

const std::vector<std::pair<std::string, std::string>>& end_to_end_names() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"setup_s", "s"},         {"peak_rss_mb", "MB"},     {"ok_frac", "frac"},
      {"latency_ms.p50", "ms"}, {"latency_ms.p95", "ms"},  {"items_per_s", "1/s"},
      {"train_steps_per_s", "1/s"},
  };
  return names;
}

const std::vector<std::pair<std::string, std::string>>& layer_metric_names() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"ops.kernel_ms", "ms"},
      {"ops.serial_pass_ms", "ms"},
      {"threading.fork_join_us", "us"},
      {"threading.launch_us.mean", "us"},
      {"threading.team_launch_frac", "frac"},
      {"perf.profile_s", "s"},
      {"perf.samples", "count"},
      {"core.sched_ms", "ms"},
      {"core.ns_per_launch", "ns"},
      {"core.idle_frac", "frac"},
      {"core.makespan_over_bound", "ratio"},
      {"core.corun_per_step", "count"},
      {"core.overlay_per_step", "count"},
      {"core.cache_hit_frac", "frac"},
      {"core.sim_step_us", "us"},
      {"core.decision_us.mean", "us"},
      {"machine.step_ms", "ms"},
      {"serve.requests_per_wall_s", "1/s"},
      {"serve.us_per_request", "us"},
      {"serve.cost_growth", "ratio"},
      {"serve.request_wait_ms.p99", "ms"},
      {"serve.latency_ms.p99", "ms"},
      {"serve.slo_attainment", "frac"},
      {"serve.slo_rps", "1/s"},
      {"serve.queue_wait_ms.p95", "ms"},
      {"serve.reconfigurations", "count"},
      {"serve.declined", "count"},
      {"cluster.jobs_per_wall_s", "1/s"},
      {"cluster.pump_us.p50", "us"},
      {"cluster.pump_us.p99", "us"},
      {"cluster.idle_pumps_frac", "frac"},
      {"cluster.submit_us", "us"},
      {"cluster.snapshot_ms", "ms"},
      {"cluster.migrated_frac", "frac"},
      {"cluster.shard_busy_jain", "ratio"},
      {"obs.trace_overhead_frac", "frac"},
  };
  return names;
}

void zero_layer_metrics(Result& r) {
  for (const auto& [name, unit] : layer_metric_names()) r.set(name, 0.0, unit);
}

SimProbe sim_probe(const std::vector<const opsched::Graph*>& graphs,
                   const std::vector<int>& floors, int steps,
                   SpanRecorder& spans) {
  Scope scope(spans, "sim_probe", "core");
  SimProbe probe;
  opsched::Runtime rt(opsched::MachineSpec::knl());
  {
    Scope prof(spans, "profile_multi", "perf");
    const double t0 = now_s();
    probe.samples = rt.profile_multi(graphs).total_samples;
    probe.profile_s = now_s() - t0;
  }
  opsched::TenantSet set;
  for (std::size_t t = 0; t < graphs.size(); ++t) {
    set.ids.push_back(t + 1);
    set.weights.push_back(1.0);
    set.floors.push_back(t < floors.size() ? floors[t] : 0);
  }
  const double cores = static_cast<double>(rt.machine().spec().num_cores);
  std::vector<double> us, makespan, idle, bound;
  double corun = 0, overlay = 0, hits = 0, ops = 0;
  for (int s = 0; s < steps; ++s) {
    std::vector<opsched::StepResult> res;
    {
      Scope step(spans, "run_step_multi", "core", static_cast<std::uint64_t>(s + 1));
      const double t0 = now_s();
      res = rt.run_step_multi(graphs, set);
      us.push_back((now_s() - t0) * 1e6);
    }
    double span = 0.0, service = 0.0, critical = 0.0, work = 0.0;
    for (std::size_t t = 0; t < res.size(); ++t) {
      const opsched::StepResult& r = res[t];
      span = std::max(span, r.time_ms);
      service += r.service_ms;
      corun += static_cast<double>(r.corun_launches);
      overlay += static_cast<double>(r.overlay_launches);
      hits += static_cast<double>(r.cache_hits);
      ops += static_cast<double>(r.ops_run);
      const StepBound b = step_bound(*graphs[t], r.trace);
      critical = std::max(critical, b.critical_ms);
      work += b.work_ms;
    }
    makespan.push_back(span);
    idle.push_back(1.0 - service / (cores * span));
    bound.push_back(span / std::max(critical, work / cores));
  }
  probe.step_us = median_of(us);
  probe.makespan_ms = median_of(makespan);
  probe.idle_frac = median_of(idle);
  probe.makespan_over_bound = median_of(bound);
  probe.corun_per_step = corun / steps;
  probe.overlay_per_step = overlay / steps;
  probe.cache_hit_frac = ops > 0 ? hits / ops : 0.0;
  return probe;
}

}  // namespace perfbench
