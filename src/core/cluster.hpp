// DataParallelCluster: the paper's Section V discussion, implemented.
//
// Data parallelism replicates the model on W machines, splits the global
// batch, and all-reduces gradients after every step. The paper argues its
// runtime "can work on individual KNLs without any change" — this class
// demonstrates exactly that: each worker owns an unmodified Runtime over
// its own simulated KNL, profiles its (smaller-batch) step graph, and
// schedules with Strategies 1-4. The cluster adds only the communication
// model (ring all-reduce over the interconnect).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/runtime.hpp"

namespace opsched {

struct ClusterOptions {
  std::size_t num_workers = 4;
  /// Scheduling options forwarded to every worker's Runtime.
  RuntimeOptions runtime;
};

struct ClusterStepResult {
  double time_ms = 0.0;        // max worker compute + all-reduce
  double compute_ms = 0.0;     // slowest worker's step
  double allreduce_ms = 0.0;   // communication phase
  std::vector<double> worker_ms;
  double param_mbytes = 0.0;   // gradient payload per worker
};

/// Builds a step graph for a given per-worker batch size.
using GraphBuilderFn = std::function<Graph(std::int64_t batch)>;

class DataParallelCluster {
 public:
  DataParallelCluster(const MachineSpec& worker_spec, ClusterOptions options);

  /// Profiles every worker on its shard of `global_batch` (identical
  /// graphs profile identically; the work is shared).
  void profile(const GraphBuilderFn& build, std::int64_t global_batch);

  /// One synchronous data-parallel training step: every worker runs its
  /// shard under the adaptive scheduler, then gradients ring-allreduce.
  ClusterStepResult run_step();

  /// Same step with every worker using the FIFO recommendation instead —
  /// the baseline for the per-worker speedup carrying over to the cluster.
  ClusterStepResult run_step_recommendation();

  /// Ring all-reduce time for `bytes` across the workers:
  /// 2*(W-1)/W * bytes / bw + 2*(W-1) * hop latency, with a 10 GB/s link
  /// and a 0.02 ms hop.
  double allreduce_ms(double bytes) const;

  std::size_t num_workers() const noexcept { return options_.num_workers; }
  /// Gradient payload: the summed parameter bytes of the profiled graph.
  double param_bytes() const noexcept { return param_bytes_; }

 private:
  ClusterStepResult finish_step(std::vector<double> worker_ms) const;

  ClusterOptions options_;
  std::vector<std::unique_ptr<Runtime>> workers_;
  std::vector<Graph> shards_;
  double param_bytes_ = 0.0;
};

/// Parameter bytes of a step graph: the optimizer ops' input tensors.
double model_parameter_bytes(const Graph& g);

// ---------------------------------------------------------------------------
// Model parallelism (paper Section V, second half): the model is partitioned
// into groups, each on one KNL. The paper's claims, which this class makes
// testable: per-worker scheduling sees fewer ready ops (less co-running),
// while intra-op concurrency control "should remain the same".
// ---------------------------------------------------------------------------

/// A stage of a partitioned graph: the sub-DAG plus the bytes that must be
/// shipped to the next stage (activations crossing the cut).
struct ModelStage {
  Graph graph;
  double boundary_bytes = 0.0;
};

/// Partitions `g` into `stages` contiguous groups of its topological order.
/// Cross-stage edges are cut: the consumer side becomes a root of its
/// stage, and the tensor's bytes are accounted to the producer stage's
/// boundary traffic.
std::vector<ModelStage> partition_model(const Graph& g, std::size_t stages);

struct ModelParallelStepResult {
  double time_ms = 0.0;        // sum of stage times + transfers (no pipelining)
  double transfer_ms = 0.0;
  std::vector<double> stage_ms;
  std::vector<double> stage_corun;  // mean co-running ops per stage
};

class ModelParallelCluster {
 public:
  ModelParallelCluster(const MachineSpec& worker_spec, ClusterOptions options);

  /// Partitions `g` into num_workers stages and profiles each worker.
  void profile(const Graph& g);

  /// One step: stages execute in sequence (plain model parallelism has no
  /// intra-batch pipelining), activations ship between stages.
  ModelParallelStepResult run_step();
  ModelParallelStepResult run_step_recommendation();

  const std::vector<ModelStage>& stages() const noexcept { return stages_; }
  /// Worker w's runtime (to inspect per-stage profiles and decisions).
  Runtime& worker(std::size_t w) { return *workers_.at(w); }

 private:
  ModelParallelStepResult run_with(bool adaptive);

  ClusterOptions options_;
  std::vector<std::unique_ptr<Runtime>> workers_;
  std::vector<ModelStage> stages_;
};

}  // namespace opsched
