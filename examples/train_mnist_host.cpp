// train_mnist_host: one MNIST training step natively on the host CPU — no
// simulator. The step graph's operations run as REAL tensor kernels on real
// pinned thread teams, scheduled by the paper's runtime:
//
//   1. profile: hill-climb each unique op by TIMING real kernel runs at
//      increasing team widths (Runtime::profile_host);
//   2. execute: Runtime::run_step_host dispatches ready ops through the
//      shared Strategy 1-4 admission policy (co-run on disjoint cores,
//      width guards, interference record, overlays), against the FIFO and
//      recommendation baselines;
//   3. verify: every policy must produce the bit-identical step checksum —
//      scheduling may never change numerics.
//
//   ./train_mnist_host [--steps 5] [--batch 8] [--trace host_trace.json]
#include <algorithm>
#include <iostream>

#include "core/runtime.hpp"
#include "core/trace_export.hpp"
#include "models/models.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

using namespace opsched;

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const int steps = std::max(1, flags.get_int("steps", 5));
  const std::int64_t batch = flags.get_int("batch", 8);
  const std::string trace_path = flags.get("trace", "");

  const Graph g = build_mnist_host(batch);
  HostGraphProgram program(g);
  Runtime rt(MachineSpec::knl());

  std::cout << "mnist_host: " << g.size() << " ops, batch " << batch << ", "
            << program.exact_bindings() << " exact kernel bindings, "
            << rt.host_pool().max_width() << " host cores\n\n";

  // --- 1. profile real kernels on real teams.
  const ProfilingReport prof = rt.profile_host(program);
  std::cout << "host profiling: " << prof.unique_ops << " unique ops, "
            << prof.total_samples << " timed samples (~"
            << prof.profiling_steps << " profiling steps)\n\n";

  // --- 2. scheduled steps vs. baselines (one warm-up each: first-use team
  // spawn cost is real but belongs to micro_threadpool's experiment).
  (void)rt.run_step_host_fifo(program, 2,
                              static_cast<int>(rt.host_pool().max_width()));
  (void)rt.run_step_host_recommendation(program);
  (void)rt.run_step_host(program);

  TablePrinter table({"Step", "fifo ms", "reco ms", "adaptive ms", "co-runs",
                      "cache hits"});
  double fifo_ms = 0.0, reco_ms = 0.0, adapt_ms = 0.0;
  StepResult adaptive;
  bool checksums_agree = true;
  for (int s = 1; s <= steps; ++s) {
    const StepResult fifo = rt.run_step_host_fifo(
        program, 2, static_cast<int>(rt.host_pool().max_width()));
    const StepResult reco = rt.run_step_host_recommendation(program);
    adaptive = rt.run_step_host(program);
    checksums_agree = checksums_agree &&
                      fifo.checksum == adaptive.checksum &&
                      reco.checksum == adaptive.checksum;
    fifo_ms += fifo.time_ms;
    reco_ms += reco.time_ms;
    adapt_ms += adaptive.time_ms;
    table.add_row({std::to_string(s), fmt_double(fifo.time_ms, 2),
                   fmt_double(reco.time_ms, 2),
                   fmt_double(adaptive.time_ms, 2),
                   std::to_string(adaptive.corun_launches),
                   std::to_string(adaptive.cache_hits)});
  }
  table.print(std::cout);
  const double inv = 1.0 / static_cast<double>(steps);
  std::cout << "\nmean ms/step: fifo " << fmt_double(fifo_ms * inv, 2)
            << ", recommendation " << fmt_double(reco_ms * inv, 2)
            << ", adaptive " << fmt_double(adapt_ms * inv, 2) << " ("
            << fmt_double(fifo_ms / adapt_ms, 2) << "x vs fifo)\n";
  std::cout << "adaptive: mean corun " << fmt_double(adaptive.mean_corun, 2)
            << ", " << adaptive.overlay_launches << " overlays, "
            << rt.host_executor().recorded_bad_pairs()
            << " recorded bad pairs, calibration "
            << fmt_double(rt.host_executor().calibration(), 4)
            << " wall-ms per predicted-ms\n";

  // --- 3. numerics must not depend on scheduling.
  std::cout << "step checksum " << adaptive.checksum
            << (checksums_agree ? " — identical across all policies\n"
                                : " — MISMATCH across policies!\n");

  if (!trace_path.empty()) {
    obs::TraceCollector collector;
    export_step_trace(adaptive.trace, g, collector);
    collector.write(trace_path);
    std::cout << "adaptive-step trace written to " << trace_path
              << " (chrome://tracing)\n";
  }
  return checksums_agree ? 0 : 1;
}
