// Micro-benchmark of the scheduler hot path: what one admission decision
// costs the dispatcher on a thousand-op graph, and what fraction of a real
// step that overhead is. This is the regression harness for the flat-arena
// policy rebuild (dense op ids, open-addressed decision cache, bad-pair
// adjacency map, batched decisions, sharded completion posting):
//   ns_per_launch       dispatcher decision time / ops launched — the
//                       per-launch cost of the AdmissionPolicy walk itself
//   sched_overhead_pct  decision time as % of step wall-clock — the
//                       paper's "runtime must not eat its own win" budget
//   step_ms             full native step, for the trajectory
// A second section times the simulated substrate: wall ms per
// Runtime::run_step_multi step of the same fuzz family on KNL at 250, 1000
// and 2000 ops, with the step's simulated ms and the interference record's
// size, each with the recorder on and off (info metrics: wall clock).
// Graphs come from the fuzz generator (tests/testing/graph_fuzz) so the
// ready set stays wide and irregular — the shape that punishes a slow
// policy. Decision batching k=1 (historical decision-per-wake loop) runs
// against the default k to keep the batching win visible; checksums must
// agree across k, and the bench throws if they do not.
#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "all_benchmarks.hpp"
#include "core/runtime.hpp"
#include "testing/graph_fuzz.hpp"
#include "util/clock.hpp"
#include "util/table.hpp"

namespace opsched::bench {
namespace {

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

/// The simulated-step section: eight consecutive run_step_multi steps per
/// (size, recorder) pair, reporting the median wall ms per step and the
/// last step's simulated ms and recorded pairs (a record that keeps
/// growing shows as a drift between the first and last step).
void run_sim_steps(Context& ctx) {
  constexpr int kSteps = 8;
  TablePrinter table({"ops", "recorder", "wall ms/step", "sim ms (last)",
                      "pairs"});
  for (const int nodes : {250, 1000, 2000}) {
    testing::FuzzGraphParams params;
    params.min_nodes = static_cast<std::size_t>(nodes);
    params.max_nodes = static_cast<std::size_t>(nodes);
    params.max_dim = 6;
    const Graph g = testing::fuzz_graph(/*seed=*/2026, params);
    for (const bool recorder : {true, false}) {
      RuntimeOptions opt;
      opt.interference_recorder = recorder;
      Runtime rt(MachineSpec::knl(), opt);
      rt.profile(g);
      std::vector<double> wall;
      double sim_ms = 0.0;
      for (int s = 0; s < kSteps; ++s) {
        const double t0 = wall_time_ms();
        sim_ms = rt.run_step_multi({&g}, TenantSet::slots(1))[0].time_ms;
        wall.push_back(wall_time_ms() - t0);
      }
      const std::size_t pairs = rt.policy().recorded_bad_pairs();
      const std::string tag = "/n=" + std::to_string(nodes) +
                              (recorder ? "/rec=on" : "/rec=off");
      ctx.metric("sim_step_wall_ms" + tag, median(wall), "ms",
                 Direction::kInfo);
      ctx.metric("sim_step_ms" + tag, sim_ms, "ms", Direction::kInfo);
      ctx.metric("sim_recorded_pairs" + tag, static_cast<double>(pairs),
                 "count", Direction::kInfo);
      table.add_row({std::to_string(nodes), recorder ? "on" : "off",
                     fmt_double(median(wall), 2), fmt_double(sim_ms, 2),
                     std::to_string(pairs)});
    }
  }
  ctx.out() << "\nSimulated KNL steps of the fuzz graph (" << kSteps
            << " consecutive steps each):\n";
  table.print(ctx.out());
}

void run(Context& ctx) {
  const int nodes = std::max(16, ctx.param_int("nodes", 1000));
  const std::size_t cores =
      static_cast<std::size_t>(std::max(1, ctx.param_int("cores", 4)));
  const int steps = std::max(1, ctx.param_int("steps", 3));
  const std::size_t batch =
      static_cast<std::size_t>(std::max(1, ctx.param_int("batch", 4)));

  // One fixed fuzz structure per (nodes) so runs are comparable; max_dim 6
  // keeps kernels tiny — the step should be dispatch-bound enough that the
  // scheduler's share is measurable, not buried.
  testing::FuzzGraphParams params;
  params.min_nodes = static_cast<std::size_t>(nodes);
  params.max_nodes = static_cast<std::size_t>(nodes);
  params.max_dim = 6;
  const Graph g = testing::fuzz_graph(/*seed=*/2026, params);
  HostGraphProgram program(g, /*seed=*/0x5eedULL);

  Runtime rt(MachineSpec::knl());
  const ProfilingReport prof = rt.profile_host(program, /*repeats=*/1);

  ctx.header("Micro: dispatch hot path",
             std::to_string(g.size()) + "-op fuzz graph, " +
                 std::to_string(cores) + " cores, " +
                 std::to_string(prof.unique_ops) + " ops host-profiled");

  TeamPool pool(cores);
  const int width = static_cast<int>(rt.machine().spec().num_cores);
  TablePrinter table(
      {"k", "step_ms", "sched_ms", "ns/launch", "overhead %"});

  const std::vector<HostGraphProgram*> programs{&program};
  const TenantSet solo = TenantSet::slots(1);
  double checksum = 0.0;
  for (const std::size_t k : {std::size_t{1}, batch}) {
    HostCorunOptions host;
    host.cores = cores;
    host.decision_batch = k;
    HostCorunExecutor exec(rt.database(), width, pool, rt.options(), host);
    (void)exec.run_step_multi(programs, solo);  // warm-up: teams, calibration

    std::vector<double> step_ms, sched_ms, ns_launch, overhead;
    for (int s = 0; s < steps; ++s) {
      const StepResult r = std::move(exec.run_step_multi(programs, solo)[0]);
      if (r.ops_run != g.size())
        throw std::runtime_error("micro_dispatch: step dropped ops");
      if (checksum == 0.0) checksum = r.checksum;
      if (r.checksum != checksum)
        throw std::runtime_error(
            "micro_dispatch: checksum varies with decision batching");
      step_ms.push_back(r.time_ms);
      sched_ms.push_back(r.sched_ms);
      ns_launch.push_back(r.sched_ms * 1e6 /
                          static_cast<double>(r.ops_run));
      overhead.push_back(100.0 * r.sched_ms / r.time_ms);
    }

    const std::string tag = "/k=" + std::to_string(k);
    ctx.metric("ns_per_launch" + tag, median(ns_launch), "ns");
    ctx.metric("sched_overhead_pct" + tag, median(overhead), "%");
    ctx.metric("step_ms" + tag, median(step_ms), "ms");
    table.add_row({std::to_string(k), fmt_double(median(step_ms), 2),
                   fmt_double(median(sched_ms), 3),
                   fmt_double(median(ns_launch), 0),
                   fmt_double(median(overhead), 2)});
  }

  table.print(ctx.out());
  ctx.out() << "ns/launch is the admission walk itself; overhead % is the "
               "dispatcher's share of the step — the budget the hot-path "
               "rebuild defends.\n";

  run_sim_steps(ctx);
}

}  // namespace

void register_micro_dispatch(Registry& reg) {
  Benchmark b;
  b.name = "micro_dispatch";
  b.figure = "micro";
  b.description =
      "admission-decision latency and scheduler overhead on 1000-op graphs";
  b.default_params = {
      {"nodes", "1000"}, {"cores", "4"}, {"steps", "3"}, {"batch", "4"}};
  b.fn = run;
  reg.add(std::move(b));
}

}  // namespace opsched::bench
