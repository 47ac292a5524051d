// opsched_cli: command-line front end to the library.
//
//   opsched_cli profile  --model resnet50 [--interval 4] [--save db.json]
//   opsched_cli schedule --model dcgan [--strategies s12|s123|all]
//                        [--steps 3] [--trace out.json] [--load db.json]
//   opsched_cli grid     --model resnet50
//   opsched_cli compare  --model inception_v3
//   opsched_cli serve    [--substrate host|sim] [--jobs 8] [--corun 3]
//                        [--model NAME] [--db FILE] [--save-db FILE]
//                        [--metrics-json FILE] [--trace-out FILE]
//   opsched_cli bench    [--list] [--filter a,b] [--repeats N] [--json FILE]
//                        (same flags as the opsched_bench runner)
//
// Profile database files are schema-versioned JSON (PerfDatabase), read
// and written whatever their suffix.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <vector>

#include "core/concurrency_controller.hpp"
#include "core/runtime.hpp"
#include "core/trace_export.hpp"
#include "models/models.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/service.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

#ifdef OPSCHED_CLI_HAVE_BENCH
#include "all_benchmarks.hpp"
#include "bench/driver.hpp"
#endif

using namespace opsched;

namespace {

int usage() {
  std::cerr
      << "usage: opsched_cli <profile|schedule|grid|compare|serve|bench> "
         "[--model NAME]\n"
         "  models: resnet50 dcgan inception_v3 lstm toy_cnn mnist_host\n"
         "          resnet50_host resnet101 resnet152 incep_resnet (deep "
         "zoo,\n          host-executable training graphs)\n"
         "  profile : hill-climb all unique ops, print chosen widths\n"
         "            [--interval X] [--save FILE]  (JSON database)\n"
         "  schedule: run adaptive steps  [--strategies s12|s123|all]\n"
         "            [--steps N] [--trace FILE] [--load FILE]\n"
         "  grid    : Table-I style inter-op x intra-op sweep\n"
         "  compare : recommendation vs manual grid vs adaptive\n"
         "  serve   : elastic scheduling service on a scripted job-churn\n"
         "            trace  [--substrate host|sim] [--jobs N] [--corun K]\n"
         "            [--seed S] [--db FILE] [--save-db FILE] (warm-start\n"
         "            profile reuse across restarts; a missing --db FILE\n"
         "            is a cold start, an unreadable one an error)\n"
         "            [--metrics-json FILE] (serve_*/host_*/policy_* metric\n"
         "            snapshot) [--trace-out FILE] (Chrome trace: job/step/\n"
         "            request spans + per-op host spans)\n"
         "  bench   : run the registered paper benchmarks (--list, --filter,\n"
         "            --repeats, --json, --baseline — see opsched_bench)\n";
  return 2;
}

int cmd_bench(const Flags& flags) {
#ifdef OPSCHED_CLI_HAVE_BENCH
  bench::Registry registry;
  bench::register_all(registry);
  return bench::run_cli(registry, flags, std::cout, std::cerr);
#else
  (void)flags;
  std::cerr << "error: this opsched_cli was built without the benchmark "
               "suite (configure with -DOPSCHED_BUILD_BENCH=ON)\n";
  return 2;
#endif
}

unsigned parse_strategies(const std::string& s) {
  if (s == "s12") return kStrategyS12;
  if (s == "s123") return kStrategyS123;
  return kStrategyAll;
}

int cmd_profile(const Graph& g, const Flags& flags) {
  RuntimeOptions opt;
  opt.hill_climb_interval = flags.get_int("interval", 4);
  Runtime rt(MachineSpec::knl(), opt);
  const ProfilingReport report = rt.profile(g);
  const ConcurrencyController decisions(rt.database(), opt, 68, {&g});
  std::cout << "profiled " << report.unique_ops << " unique ops, "
            << report.total_samples << " samples, "
            << report.profiling_steps << " profiling steps\n\n";

  // Top ops by aggregate recommended-width time, with chosen widths.
  std::map<OpKind, std::pair<double, int>> agg;  // kind -> (time, width)
  for (const Node& n : g.nodes()) {
    auto& a = agg[n.kind];
    a.first +=
        rt.cost_model().exec_time_ms(n, 68, AffinityMode::kSpread);
    a.second = decisions.choice_for(n).threads;
  }
  std::vector<std::pair<OpKind, std::pair<double, int>>> rows(agg.begin(),
                                                              agg.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.first > b.second.first;
  });
  TablePrinter table({"Op kind", "Aggregate @68thr (ms)", "Chosen width"});
  for (std::size_t i = 0; i < std::min<std::size_t>(10, rows.size()); ++i) {
    table.add_row({std::string(op_kind_name(rows[i].first)),
                   fmt_double(rows[i].second.first, 2),
                   std::to_string(rows[i].second.second)});
  }
  table.print(std::cout);

  if (flags.has("save")) {
    const std::string path = flags.get("save", "profiles.json");
    rt.database().save_file(path);
    std::cout << "profile database saved to " << path << " ("
              << rt.database().size() << " curves)\n";
  }
  return 0;
}

int cmd_serve(const Flags& flags) {
  const std::string substrate = flags.get("substrate", "host");
  const bool host = substrate != "sim";
  const std::string model =
      flags.get("model", host ? "mnist_host" : "toy_cnn");
  const auto batch = static_cast<std::int64_t>(flags.get_int("batch", 4));
  const int jobs = std::clamp(flags.get_int("jobs", 8), 1, 64);
  const Graph g = model == "mnist_host" ? build_mnist_host(batch)
                                        : build_model(model);

  Runtime rt(MachineSpec::knl());
  if (flags.has("db")) {
    const std::string path = flags.get("db", "profiles.json");
    // Only a missing file means a cold start: a malformed or wrong-version
    // database throws out of load_file to main's handler (exit 1).
    if (std::filesystem::exists(path)) {
      rt.database().load_file(path);
      std::cout << "warm start: " << rt.database().size()
                << " profile curves loaded from " << path << "\n";
    } else {
      std::cout << "cold start (no profile database at " << path << ")\n";
    }
  }

  serve::ServiceOptions opt;
  opt.substrate = host ? serve::Substrate::kHost : serve::Substrate::kSimulated;
  opt.admission.max_corun_jobs = static_cast<std::size_t>(
      std::clamp(flags.get_int("corun", 3), 1, 8));
  obs::Registry registry;
  obs::TraceCollector collector;
  if (flags.has("metrics-json")) opt.metrics = &registry;
  if (flags.has("trace-out")) opt.trace = &collector;
  serve::SchedulerService svc(rt, opt);

  // Scripted churn: staggered arrivals, mixed budgets/weights/priorities,
  // one scripted cancellation. Deterministic for a fixed --seed.
  Xoshiro256 rng(static_cast<std::uint64_t>(flags.get_int("seed", 1)));
  std::vector<serve::JobId> ids;
  const int cancel_victim = jobs > 2 ? 1 : -1;
  for (int j = 0; j < jobs; ++j) {
    // A couple of arrivals per cycle; steps between submissions.
    if (j > 0) svc.run_cycle();
    serve::JobSpec spec;
    spec.name = model + "#" + std::to_string(j);
    spec.graph = g;
    spec.steps = 1 + static_cast<int>(rng() % 3);
    spec.weight = (rng() % 3 == 0) ? 2.0 : 1.0;
    spec.priority = static_cast<int>(rng() % 2);
    spec.seed = 0x5eedULL + static_cast<std::uint64_t>(j);
    ids.push_back(svc.submit(spec));
    if (j == cancel_victim) svc.cancel(ids.back());
  }
  svc.drain();

  const serve::ServiceSnapshot snap = svc.snapshot();
  TablePrinter table({"Job", "Name", "Prio", "Weight", "State", "Steps",
                      "Wait (ms)", "Turnaround (ms)", "Service (ms)"});
  for (const serve::JobRecord& rec : snap.jobs) {
    table.add_row({std::to_string(rec.id), rec.name,
                   std::to_string(rec.priority), fmt_double(rec.weight, 1),
                   serve::job_state_name(rec.state),
                   std::to_string(rec.steps_done) + "/" +
                       std::to_string(rec.steps_total),
                   fmt_double(rec.wait_ms(), 2),
                   fmt_double(rec.turnaround_ms(), 2),
                   fmt_double(rec.service_ms, 2)});
  }
  table.print(std::cout);
  std::cout << snap.completed << " completed / " << snap.cancelled
            << " cancelled, " << snap.steps_run << " co-located steps, "
            << snap.reconfigurations << " reconfigurations on the "
            << serve::substrate_name(opt.substrate) << " substrate ("
            << svc.capacity_cores() << " cores)\n";

  if (flags.has("save-db")) {
    const std::string path = flags.get("save-db", "profiles.json");
    rt.database().save_file(path);
    std::cout << "profile database saved to " << path << " ("
              << rt.database().size()
              << " curves) — pass --db to warm-start the next run\n";
  }
  if (flags.has("metrics-json")) {
    const std::string path = flags.get("metrics-json", "metrics.json");
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot open " + path);
    out << obs::to_json(registry.snapshot());
    std::cout << "metrics written to " << path << "\n";
  }
  if (flags.has("trace-out")) {
    const std::string path = flags.get("trace-out", "serve_trace.json");
    collector.write(path);
    std::cout << "trace written to " << path << " (" << collector.size()
              << " spans)\n";
  }
  return 0;
}

int cmd_schedule(const Graph& g, const Flags& flags) {
  RuntimeOptions opt;
  opt.strategies = parse_strategies(flags.get("strategies", "all"));
  Runtime rt(MachineSpec::knl(), opt);
  if (flags.has("load")) {
    const std::string path = flags.get("load", "profiles.json");
    rt.database().load_file(path);
    std::cout << rt.database().size() << " profile curves loaded from "
              << path << "\n";
  }
  rt.profile(g);
  const int steps = std::max(1, flags.get_int("steps", 3));
  TablePrinter table({"Step", "Time (ms)", "Co-runs", "Overlays",
                      "Cache hits", "Mean co-run"});
  StepResult last;
  for (int s = 1; s <= steps; ++s) {
    last = rt.run_step(g);
    table.add_row({std::to_string(s), fmt_double(last.time_ms, 1),
                   std::to_string(last.corun_launches),
                   std::to_string(last.overlay_launches),
                   std::to_string(last.cache_hits),
                   fmt_double(last.mean_corun, 2)});
  }
  table.print(std::cout);
  if (flags.has("trace")) {
    const std::string path = flags.get("trace", "schedule.json");
    obs::TraceCollector collector;
    export_step_trace(last.trace, g, collector);
    collector.write(path);
    std::cout << "trace written to " << path << "\n";
  }
  return 0;
}

int cmd_grid(const Graph& g, const Flags& flags) {
  (void)flags;
  Runtime rt(MachineSpec::knl());
  const double base = rt.run_step_fifo(g, 1, 68).time_ms;
  TablePrinter table({"Inter-op", "Intra-op", "Step (ms)", "Speedup"});
  for (int inter : {1, 2, 4}) {
    for (int intra : {17, 34, 68, 136}) {
      const double t = rt.run_step_fifo(g, inter, intra).time_ms;
      table.add_row({std::to_string(inter), std::to_string(intra),
                     fmt_double(t, 1), fmt_speedup(base / t)});
    }
  }
  table.print(std::cout);
  return 0;
}

int cmd_compare(const Graph& g, const Flags& flags) {
  (void)flags;
  Runtime rt(MachineSpec::knl());
  rt.profile(g);
  const double rec = rt.run_step_recommendation(g).time_ms;
  const ManualOptimum manual = rt.manual_optimize(g);
  rt.run_step(g);
  const double adaptive = rt.run_step(g).time_ms;
  TablePrinter table({"Policy", "Step (ms)", "Speedup"});
  table.add_row({"recommendation (1 x 68)", fmt_double(rec, 1), "1.00x"});
  table.add_row({"manual grid (" + std::to_string(manual.inter_op) + " x " +
                     std::to_string(manual.intra_op) + ")",
                 fmt_double(manual.time_ms, 1),
                 fmt_speedup(rec / manual.time_ms)});
  table.add_row({"adaptive (Strategies 1-4)", fmt_double(adaptive, 1),
                 fmt_speedup(rec / adaptive)});
  table.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  const Flags flags(argc - 1, argv + 1);
  if (cmd == "bench") return cmd_bench(flags);
  if (cmd == "serve") {
    try {
      return cmd_serve(flags);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    }
  }
  const std::string model = flags.get("model", "resnet50");

  Graph g;
  try {
    g = build_model(model);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return usage();
  }

  if (cmd == "profile") return cmd_profile(g, flags);
  if (cmd == "schedule") return cmd_schedule(g, flags);
  if (cmd == "grid") return cmd_grid(g, flags);
  if (cmd == "compare") return cmd_compare(g, flags);
  return usage();
}
