// The four benchmark workloads and the layer probes they share.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/runtime.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Perturbs one expected step checksum (train_*), so the output check
  /// must count a failure. Used by the benchmark's own tests.
  bool inject_mismatch = false;
};

Result run_train_deep(const RunConfig& cfg, SpanRecorder& spans);
Result run_train_fine(const RunConfig& cfg, SpanRecorder& spans);
Result run_serve_infer(const RunConfig& cfg, SpanRecorder& spans);
Result run_fleet_churn(const RunConfig& cfg, SpanRecorder& spans);

// -- pieces shared by the workloads and the benchmark's own tests ----------

/// Host-substrate probe for a simulated workload's traced run: `steps`
/// closed-loop Runtime::run_step_host steps of `g` with the program's
/// registry attached, each checked against the serial reference (counted
/// in `res`). Sets the host dispatcher metrics: core.sched_ms,
/// core.ns_per_launch, core.decision_us.mean, threading.launch_us.mean and
/// threading.team_launch_frac.
void host_probe(const opsched::Graph& g, std::uint64_t tensor_seed, std::size_t steps,
                Result& res, SpanRecorder& spans);

/// Serial reference checksum of `g` (ops/reference kernels, node order).
double reference_checksum(const opsched::Graph& g, std::uint64_t tensor_seed);

/// Closed-loop host training: steps `program` until both `min_steps` steps
/// ran and `seconds` elapsed, checking every step's checksum against
/// `expected`. `inject_step` (>= 0) perturbs that step's expected value.
struct TrainLoop {
  std::vector<opsched::StepResult> steps;  // trace events kept when asked
  std::vector<double> done_wall_s;         // loop wall time at each step's end
  std::size_t mismatches = 0;
  double wall_s = 0.0;
};
TrainLoop train_loop(opsched::Runtime& rt, opsched::HostGraphProgram& program,
                     double expected, std::size_t min_steps, double seconds,
                     long inject_step, bool keep_traces, SpanRecorder& spans);

/// Lower-bound ingredients of one tenant's step, from its launch and
/// completion events: the critical path through the graph with every op at
/// its measured duration, and the summed op time. A step's bound is
/// max(critical path, summed op time / cores).
struct StepBound {
  double critical_ms = 0.0;
  double work_ms = 0.0;
};
StepBound step_bound(const opsched::Graph& g, const opsched::EventTrace& trace);

/// Simulated-substrate probe of one co-located step over `graphs` on a
/// fresh Runtime: profiling cost, and per-step wall time and statistics.
struct SimProbe {
  double profile_s = 0.0;
  std::size_t samples = 0;
  double step_us = 0.0;          // median wall time per run_step_multi
  double makespan_ms = 0.0;      // virtual makespan of a co-located step
  double corun_per_step = 0.0;
  double overlay_per_step = 0.0;
  double cache_hit_frac = 0.0;
  double idle_frac = 0.0;
  double makespan_over_bound = 0.0;
};
SimProbe sim_probe(const std::vector<const opsched::Graph*>& graphs,
                   const std::vector<int>& floors, int steps,
                   SpanRecorder& spans);

/// Width-1 pass of HostGraphProgram::run_node over every node of `g`, ms.
double serial_pass_ms(const opsched::Graph& g, std::uint64_t tensor_seed);

/// Sets every per-layer metric to 0 so a workload reports the full set;
/// workloads then overwrite the layers they exercise.
void zero_layer_metrics(Result& r);
/// The per-layer metric names, with units.
const std::vector<std::pair<std::string, std::string>>& layer_metric_names();
/// The end-to-end metric names, with units.
const std::vector<std::pair<std::string, std::string>>& end_to_end_names();

}  // namespace perfbench
