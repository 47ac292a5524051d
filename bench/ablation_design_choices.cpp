// Ablation bench for the design choices DESIGN.md calls out:
//   - Strategy 3's candidate count (paper: "three is an empirical number")
//   - the Strategy-2 width guard (paper: delta 2, here width-relative)
//   - the decision cache ("decisions ... can be reused")
//   - the interference recorder (Section III-D discussion)
// Each knob is toggled on an otherwise-default adaptive runtime.
#include "all_benchmarks.hpp"
#include "core/runtime.hpp"
#include "models/models.hpp"
#include "util/table.hpp"

namespace opsched::bench {
namespace {

double steady_step_ms(const Graph& g, const RuntimeOptions& opt) {
  Runtime rt(MachineSpec::knl(), opt);
  rt.profile(g);
  rt.run_step(g);
  return rt.run_step(g).time_ms;
}

void run(Context& ctx) {
  const std::string model = ctx.param("model", "resnet50");

  ctx.header("Ablation: scheduler design choices", model);

  const Graph g = build_model(model);
  const RuntimeOptions base;
  const double baseline = steady_step_ms(g, base);

  TablePrinter table({"Variant", "Step (ms)", "vs default"});
  table.add_row({"default (3 candidates, guard 35%, cache+recorder on)",
                 fmt_double(baseline, 1), "1.00x"});
  ctx.metric("default_step_ms", baseline);

  const auto row = [&](const std::string& name, const std::string& key,
                       RuntimeOptions opt) {
    const double t = steady_step_ms(g, opt);
    table.add_row({name, fmt_double(t, 1), fmt_speedup(baseline / t)});
    ctx.recap(name, "-", fmt_speedup(baseline / t));
    // Variants are diagnostic alternatives, not the shipped configuration;
    // track them as info so only the default gates regressions.
    ctx.metric(key + "_step_ms", t, "ms", Direction::kInfo);
  };

  {
    RuntimeOptions opt = base;
    opt.num_candidates = 1;
    row("1 candidate (no packing freedom)", "one_candidate", opt);
  }
  {
    RuntimeOptions opt = base;
    opt.num_candidates = 5;
    row("5 candidates", "five_candidates", opt);
  }
  {
    RuntimeOptions opt = base;
    opt.s2_guard_relative = 0.0;
    opt.s2_delta_guard = 2;
    row("strict paper guard (|delta| <= 2 absolute)", "strict_guard", opt);
  }
  {
    RuntimeOptions opt = base;
    opt.s2_guard_relative = 10.0;  // effectively no guard
    row("guard disabled (free width changes)", "no_guard", opt);
  }
  {
    RuntimeOptions opt = base;
    opt.decision_cache = false;
    row("decision cache off", "no_decision_cache", opt);
  }
  {
    RuntimeOptions opt = base;
    opt.interference_recorder = false;
    row("interference recorder off", "no_recorder", opt);
  }
  {
    RuntimeOptions opt = base;
    opt.strategies = kStrategyS123;
    row("Strategy 4 off", "no_strategy4", opt);
  }
  {
    RuntimeOptions opt = base;
    opt.hill_climb_interval = 16;
    row("coarse profiling (x=16)", "coarse_profiling", opt);
  }
  ctx.out() << "\n";
  table.print(ctx.out());
  ctx.out() << "Reading: the candidate menu and the guard trade against "
               "each other — no packing freedom serializes the step, while "
               "unguarded width changes pay team-resize penalties.\n";
}

}  // namespace

void register_ablation_design_choices(Registry& reg) {
  Benchmark b;
  b.name = "ablation_design_choices";
  b.figure = "ext";
  b.description = "scheduler design-choice ablation on one model";
  b.default_params = {{"model", "resnet50"}};
  b.fn = run;
  reg.add(std::move(b));
}

}  // namespace opsched::bench
