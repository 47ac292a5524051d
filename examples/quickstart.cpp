// Quickstart: the 60-second tour of the opsched public API.
//
// Build a small training-step graph, profile it with the hill-climbing
// performance model, and compare TensorFlow's recommended execution
// (FIFO, 68 threads for every op) against the adaptive runtime
// (Strategies 1-4) on the simulated Knights Landing machine.
//
//   ./quickstart [--model resnet50|dcgan|inception_v3|lstm]
#include <iostream>

#include "core/runtime.hpp"
#include "core/trace_export.hpp"
#include "models/models.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

using namespace opsched;

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const std::string model_name = flags.get("model", "resnet50");

  std::cout << "opsched quickstart — model: " << model_name << "\n\n";

  // 1. A training-step dataflow graph: nodes are op instances with shapes,
  //    edges are dependencies. Ready ops can execute.
  const Graph graph = build_model(model_name);
  std::cout << "graph: " << graph.size() << " operation instances per step\n";

  // 2. The runtime owns a simulated KNL (68 cores, 34 tiles, SMT4) and the
  //    performance-model database.
  Runtime runtime{MachineSpec::knl()};

  // 3. Profiling phase: hill-climb every unique (op, shape) during the
  //    first few steps, exactly like the paper's Figure-2 workflow.
  const ProfilingReport report = runtime.profile(graph);
  std::cout << "profiled " << report.unique_ops << " unique ops with "
            << report.total_samples << " measurements ("
            << report.profiling_steps << " profiling steps)\n\n";

  // 4. Baselines: the TF-recommended configuration and grid-search manual
  //    optimization (Table I's procedure).
  const double rec = runtime.run_step_recommendation(graph).time_ms;
  const ManualOptimum manual = runtime.manual_optimize(graph);

  // 5. The adaptive runtime: Strategies 1+2 (per-op widths), 3 (co-run on
  //    disjoint cores), 4 (hyper-thread overlays). First step warms the
  //    decision cache; the second is steady state.
  runtime.run_step(graph);
  const StepResult adaptive = runtime.run_step(graph);

  TablePrinter table({"Execution policy", "Step time (ms)", "Speedup"});
  table.add_row({"TF recommendation (inter=1, intra=68)", fmt_double(rec, 1),
                 "1.00x"});
  table.add_row({"manual grid optimum (inter=" +
                     std::to_string(manual.inter_op) + ", intra=" +
                     std::to_string(manual.intra_op) + ")",
                 fmt_double(manual.time_ms, 1),
                 fmt_speedup(rec / manual.time_ms)});
  table.add_row({"opsched adaptive runtime", fmt_double(adaptive.time_ms, 1),
                 fmt_speedup(rec / adaptive.time_ms)});
  table.print(std::cout);

  std::cout << "\nscheduler stats: " << adaptive.corun_launches
            << " co-run launches, " << adaptive.overlay_launches
            << " hyper-thread overlays, mean co-running ops "
            << fmt_double(adaptive.mean_corun, 2) << "\n";
  std::cout << "(paper reference: 36% mean improvement over the "
               "recommendation, up to 49%)\n";

  // Optional: dump the schedule for chrome://tracing / Perfetto.
  if (flags.has("trace")) {
    const std::string path = flags.get("trace", "schedule.json");
    obs::TraceCollector collector;
    export_step_trace(adaptive.trace, graph, collector);
    collector.write(path);
    std::cout << "schedule trace written to " << path
              << " (open in chrome://tracing)\n";
  }
  return 0;
}
