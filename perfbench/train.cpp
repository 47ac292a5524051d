// train_deep and train_fine: closed-loop Runtime::run_step_host steps of
// one tenant, checked step by step against the serial reference.
#include <algorithm>
#include <memory>
#include <stdexcept>

#include "machine/machine_spec.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "inputs.hpp"
#include "workloads.hpp"

namespace perfbench {

using opsched::Graph;
using opsched::HostGraphProgram;
using opsched::StepResult;

double reference_checksum(const Graph& g, std::uint64_t tensor_seed) {
  HostGraphProgram ref(g, tensor_seed);
  for (const opsched::Node& node : g.nodes()) ref.run_node_reference(node.id);
  return ref.step_checksum();
}

double serial_pass_ms(const Graph& g, std::uint64_t tensor_seed) {
  HostGraphProgram program(g, tensor_seed);
  opsched::ThreadTeam team(1);
  const double t0 = now_s();
  for (const opsched::Node& node : g.nodes()) program.run_node(node.id, team);
  return (now_s() - t0) * 1e3;
}

TrainLoop train_loop(opsched::Runtime& rt, HostGraphProgram& program, double expected,
                     std::size_t min_steps, double seconds, long inject_step,
                     bool keep_traces, SpanRecorder& spans) {
  TrainLoop loop;
  const double t0 = now_s();
  for (std::size_t s = 0; s < min_steps || now_s() - t0 < seconds; ++s) {
    StepResult r;
    {
      Scope step(spans, "run_step_host", "core", s + 1);
      r = rt.run_step_host(program);
    }
    const double want = static_cast<long>(s) == inject_step ? expected + 1.0 : expected;
    if (r.checksum != want) ++loop.mismatches;
    if (!keep_traces) r.trace = opsched::EventTrace{};  // clear() keeps the capacity
    loop.steps.push_back(std::move(r));
    loop.done_wall_s.push_back(now_s() - t0);
  }
  loop.wall_s = now_s() - t0;
  return loop;
}

StepBound step_bound(const Graph& g, const opsched::EventTrace& trace) {
  std::vector<double> start(g.size(), 0.0), end(g.size(), 0.0);
  for (const opsched::TraceEvent& e : trace.events()) {
    if (e.node >= g.size()) continue;
    (e.is_launch ? start : end)[e.node] = e.time_ms;
  }
  // Node ids are a topological order: every input precedes its consumer.
  std::vector<double> finish(g.size(), 0.0);
  StepBound b;
  for (const opsched::Node& node : g.nodes()) {
    const double d = std::max(0.0, end[node.id] - start[node.id]);
    double ready = 0.0;
    for (const opsched::NodeId in : node.inputs) ready = std::max(ready, finish[in]);
    finish[node.id] = ready + d;
    b.critical_ms = std::max(b.critical_ms, finish[node.id]);
    b.work_ms += d;
  }
  return b;
}

namespace {

struct TrainSetup {
  std::unique_ptr<opsched::Runtime> rt;
  std::unique_ptr<HostGraphProgram> program;
  opsched::ProfilingReport report;
  double profile_s = 0.0;
};

/// Program binding, host profiling and one warm-up step: what a user pays
/// before the first measured step.
TrainSetup train_setup(const TrainInputs& in, SpanRecorder& spans) {
  Scope scope(spans, "setup", "bench");
  TrainSetup s;
  {
    Scope bind(spans, "bind_program", "ops");
    s.program = std::make_unique<HostGraphProgram>(in.graph, in.tensor_seed);
  }
  s.rt = std::make_unique<opsched::Runtime>(opsched::MachineSpec::knl());
  {
    Scope prof(spans, "profile_host", "perf");
    const double t0 = now_s();
    s.report = s.rt->profile_host(*s.program, /*repeats=*/1);
    s.profile_s = now_s() - t0;
  }
  Scope warm(spans, "warmup_step", "core");
  (void)s.rt->run_step_host(*s.program);
  return s;
}

std::vector<double> field(const TrainLoop& loop, double (*get)(const StepResult&)) {
  std::vector<double> out;
  out.reserve(loop.steps.size());
  for (const StepResult& r : loop.steps) out.push_back(get(r));
  return out;
}

/// The host dispatcher's per-layer metrics: scheduling time per step and
/// per launch, and the launch and decision costs the executor's registry
/// recorded (histogram sum / count: the buckets start at 10 µs, too coarse
/// for a median of microsecond events).
void set_dispatch_metrics(const TrainLoop& loop, const opsched::obs::MetricsSnapshot& snap,
                          Result& res) {
  res.set("core.sched_ms", median_of(field(loop, [](const StepResult& r) { return r.sched_ms; })),
          "ms");
  res.set("core.ns_per_launch", median_of(field(loop, [](const StepResult& r) {
            return r.sched_ms * 1e6 / static_cast<double>(r.ops_run);
          })),
          "ns");
  const auto mean_us = [&](const char* name) {
    const opsched::obs::MetricPoint* p = snap.find(name);
    return p == nullptr || p->count == 0 ? 0.0 : p->sum / static_cast<double>(p->count) * 1e3;
  };
  res.set("core.decision_us.mean", mean_us("policy_decision_ms"), "us");
  res.set("threading.launch_us.mean", mean_us("host_launch_ms"), "us");
  const double team = static_cast<double>(snap.counter("host_team_launches_total"));
  const double launches = team + static_cast<double>(snap.counter("host_inline_launches_total")) +
                          static_cast<double>(snap.counter("host_overlay_launches_total"));
  res.set("threading.team_launch_frac", launches > 0 ? team / launches : 0.0, "frac");
}

constexpr std::size_t kMinSteps = 200;  // p95 with ten samples beyond it
constexpr int kSetups = 7;

Result run_train(const RunConfig& cfg, const TrainInputs& in,
                 SpanRecorder& spans) {
  Result res;
  zero_layer_metrics(res);
  const std::size_t cores = host_cores();

  double expected = 0.0;
  {
    Scope ref(spans, "reference_checksum", "ops");
    expected = reference_checksum(in.graph, in.tensor_seed);
  }

  // Set-up several times; the last one is kept for the measured loop.
  std::vector<double> setup_s, profile_s;
  TrainSetup setup;
  for (int k = 0; k < kSetups; ++k) {
    setup = TrainSetup{};
    const double t0 = now_s();
    setup = train_setup(in, spans);
    setup_s.push_back(now_s() - t0);
    profile_s.push_back(setup.profile_s);
  }
  opsched::Runtime& rt = *setup.rt;

  const long inject = cfg.inject_mismatch ? 7 : -1;
  const double seconds = cfg.trace ? cfg.seconds / 2.0 : cfg.seconds;
  TrainLoop loop;
  {
    Scope measured(spans, "measured_steps", "bench");
    loop = train_loop(rt, *setup.program, expected, kMinSteps, seconds, inject,
                      /*keep_traces=*/false, spans);
  }
  res.attempted += loop.steps.size();
  if (loop.mismatches > 0)
    res.fail(loop.mismatches, std::to_string(loop.mismatches) +
                                  " step checksums differ from the serial reference");

  res.context["steps"] = static_cast<double>(loop.steps.size());
  res.context["nodes"] = static_cast<double>(in.graph.size());
  res.context["host_cores"] = static_cast<double>(cores);
  if (!cfg.trace) {
    const std::vector<double> step_ms =
        field(loop, [](const StepResult& r) { return r.time_ms; });
    res.set("setup_s", median_of(setup_s), "s");
    // A closed-loop client's request is one step. The tail is the median of
    // the p95s of consecutive 200-step blocks, so a slow spell on the host
    // during part of the run does not carry the whole run's tail.
    res.set("latency_ms.p50", checked_percentile(step_ms, 50, "step_ms"), "ms");
    res.set("latency_ms.p95", block_median_percentile(step_ms, 95, kMinSteps, "step_ms"), "ms");
    // Steps per second of step time, and per wall second, over each tenth.
    std::vector<double> step_done_s;
    double step_s = 0.0;
    for (const double ms : step_ms) step_done_s.push_back(step_s += ms / 1e3);
    res.set("items_per_s", median_of(tenth_rates(step_done_s)), "1/s");
    res.set("train_steps_per_s", median_of(tenth_rates(loop.done_wall_s)), "1/s");
    res.context["latency_ms.p95.blocks"] =
        static_cast<double>(std::max<std::size_t>(1, step_ms.size() / kMinSteps));
    res.context["step_ms.samples"] = static_cast<double>(step_ms.size());
    res.context["step_ms.highest_percentile"] = highest_allowed_percentile(step_ms.size());
    return res;
  }

  // Traced pass: the same loop with the program's registry and trace
  // collector attached to the host executor, and trace events kept.
  opsched::obs::Registry reg;
  opsched::obs::TraceCollector collector;
  rt.host_executor().attach_observability(&reg, &collector);
  TrainLoop traced;
  {
    Scope measured(spans, "traced_steps", "bench");
    traced = train_loop(rt, *setup.program, expected, loop.steps.size(), 0.0,
                        -1, /*keep_traces=*/true, spans);
  }
  rt.host_executor().attach_observability(nullptr, nullptr);
  res.attempted += traced.steps.size();
  if (traced.mismatches > 0)
    res.fail(traced.mismatches, "traced steps differ from the serial reference");

  const auto med = [&](double (*get)(const StepResult&)) { return median_of(field(traced, get)); };
  res.set("ops.kernel_ms", med([](const StepResult& r) { return r.service_ms; }), "ms");
  {
    Scope pass(spans, "serial_pass", "ops");
    res.set("ops.serial_pass_ms", serial_pass_ms(in.graph, in.tensor_seed), "ms");
  }
  res.set("perf.profile_s", median_of(profile_s), "s");
  res.set("perf.samples", static_cast<double>(setup.report.total_samples), "count");
  std::vector<double> idle, bound;
  double corun = 0, overlay = 0, hits = 0, ops = 0;
  for (std::size_t s = 0; s < traced.steps.size(); ++s) {
    const StepResult& r = traced.steps[s];
    idle.push_back(1.0 - r.service_ms / (static_cast<double>(cores) * r.time_ms));
    const StepBound b = step_bound(in.graph, r.trace);
    bound.push_back(r.time_ms /
                    std::max(b.critical_ms, b.work_ms / static_cast<double>(cores)));
    corun += static_cast<double>(r.corun_launches);
    overlay += static_cast<double>(r.overlay_launches);
    hits += static_cast<double>(r.cache_hits);
    ops += static_cast<double>(r.ops_run);
  }
  const double n = static_cast<double>(traced.steps.size());
  res.set("core.idle_frac", median_of(idle), "frac");
  res.set("core.makespan_over_bound", median_of(bound), "ratio");
  res.set("core.corun_per_step", corun / n, "count");
  res.set("core.overlay_per_step", overlay / n, "count");
  res.set("core.cache_hit_frac", hits / ops, "frac");

  set_dispatch_metrics(traced, reg.snapshot(), res);
  {
    Scope probe(spans, "fork_join", "threading");
    res.set("threading.fork_join_us", fork_join_us(cores, 2000), "us");
  }

  const SimProbe sim = sim_probe({&in.graph}, {0}, 5, spans);
  res.set("core.sim_step_us", sim.step_us, "us");
  res.set("machine.step_ms", sim.makespan_ms, "ms");

  res.set("obs.trace_overhead_frac", traced.wall_s / loop.wall_s - 1.0, "frac");
  res.context["trace_events"] = static_cast<double>(collector.size());
  res.context["core.makespan_over_bound.samples"] = n;
  return res;
}

}  // namespace

Result run_train_deep(const RunConfig& cfg, SpanRecorder& spans) {
  TrainInputs in;
  {
    Scope gen(spans, "generate_inputs", "models");
    in = train_deep_inputs(cfg.seed);
  }
  return run_train(cfg, in, spans);
}

void host_probe(const Graph& g, std::uint64_t tensor_seed, std::size_t steps, Result& res,
                SpanRecorder& spans) {
  Scope scope(spans, "host_probe", "core");
  TrainInputs in;
  in.graph = g;
  in.tensor_seed = tensor_seed;
  const double expected = reference_checksum(in.graph, in.tensor_seed);
  TrainSetup setup = train_setup(in, spans);
  opsched::obs::Registry reg;
  setup.rt->host_executor().attach_observability(&reg, nullptr);
  const TrainLoop loop =
      train_loop(*setup.rt, *setup.program, expected, steps, 0.0, -1, false, spans);
  setup.rt->host_executor().attach_observability(nullptr, nullptr);
  res.attempted += loop.steps.size();
  if (loop.mismatches > 0)
    res.fail(loop.mismatches, "host probe steps differ from the serial reference");
  set_dispatch_metrics(loop, reg.snapshot(), res);
}

Result run_train_fine(const RunConfig& cfg, SpanRecorder& spans) {
  TrainInputs in;
  {
    Scope gen(spans, "generate_inputs", "models");
    in = train_fine_inputs(cfg.seed, kMicroDispatchGraph);
  }
  return run_train(cfg, in, spans);
}

}  // namespace perfbench
