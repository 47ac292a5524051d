#include "core/cluster.hpp"

#include <algorithm>
#include <stdexcept>

namespace opsched {

namespace {
/// Per-link interconnect bandwidth (GB/s). Cori's Aries gives ~10 GB/s
/// effective per node for large messages.
constexpr double kInterconnectGbs = 10.0;
/// Per-hop latency of a collective phase (ms).
constexpr double kHopLatencyMs = 0.02;
}  // namespace

double model_parameter_bytes(const Graph& g) {
  double bytes = 0.0;
  for (const Node& n : g.nodes()) {
    if (n.kind == OpKind::kApplyAdam ||
        n.kind == OpKind::kApplyGradientDescent) {
      bytes += static_cast<double>(n.input_shape.bytes());
    }
  }
  return bytes;
}

DataParallelCluster::DataParallelCluster(const MachineSpec& worker_spec,
                                         ClusterOptions options)
    : options_(options) {
  if (options_.num_workers == 0)
    throw std::invalid_argument("DataParallelCluster: need >= 1 worker");
  for (std::size_t w = 0; w < options_.num_workers; ++w) {
    workers_.push_back(
        std::make_unique<Runtime>(worker_spec, options_.runtime));
  }
}

void DataParallelCluster::profile(const GraphBuilderFn& build,
                                  std::int64_t global_batch) {
  const std::int64_t shard_batch = std::max<std::int64_t>(
      1, global_batch / static_cast<std::int64_t>(options_.num_workers));
  // Every shard is built before any is profiled: a worker's steps must run
  // on the graph it profiled, not on one a later push_back moved.
  shards_.clear();
  for (std::size_t w = 0; w < options_.num_workers; ++w)
    shards_.push_back(build(shard_batch));
  for (std::size_t w = 0; w < options_.num_workers; ++w)
    workers_[w]->profile(shards_[w]);
  param_bytes_ = model_parameter_bytes(shards_.front());
}

double DataParallelCluster::allreduce_ms(double bytes) const {
  const double w = static_cast<double>(options_.num_workers);
  if (w <= 1.0) return 0.0;
  const double transfer =
      2.0 * (w - 1.0) / w * bytes / (kInterconnectGbs * 1e9) * 1e3;
  const double latency = 2.0 * (w - 1.0) * kHopLatencyMs;
  return transfer + latency;
}

ClusterStepResult DataParallelCluster::finish_step(
    std::vector<double> worker_ms) const {
  ClusterStepResult r;
  r.worker_ms = std::move(worker_ms);
  r.compute_ms = *std::max_element(r.worker_ms.begin(), r.worker_ms.end());
  r.allreduce_ms = allreduce_ms(param_bytes_);
  r.time_ms = r.compute_ms + r.allreduce_ms;
  r.param_mbytes = param_bytes_ / 1e6;
  return r;
}

ClusterStepResult DataParallelCluster::run_step() {
  if (shards_.empty())
    throw std::logic_error("DataParallelCluster: profile() first");
  std::vector<double> times;
  for (std::size_t w = 0; w < options_.num_workers; ++w) {
    times.push_back(workers_[w]->run_step(shards_[w]).time_ms);
  }
  return finish_step(std::move(times));
}

ClusterStepResult DataParallelCluster::run_step_recommendation() {
  if (shards_.empty())
    throw std::logic_error("DataParallelCluster: profile() first");
  std::vector<double> times;
  for (std::size_t w = 0; w < options_.num_workers; ++w) {
    times.push_back(
        workers_[w]->run_step_recommendation(shards_[w]).time_ms);
  }
  return finish_step(std::move(times));
}

std::vector<ModelStage> partition_model(const Graph& g, std::size_t stages) {
  if (stages == 0)
    throw std::invalid_argument("partition_model: need >= 1 stage");
  const std::vector<NodeId> order = g.topo_order();
  const std::size_t per_stage = (order.size() + stages - 1) / stages;

  std::vector<int> stage_of(g.size(), 0);
  for (std::size_t i = 0; i < order.size(); ++i)
    stage_of[order[i]] = static_cast<int>(i / per_stage);

  std::vector<ModelStage> out(stages);
  std::vector<NodeId> new_id(g.size(), kInvalidNode);
  for (std::size_t s = 0; s < stages; ++s) {
    for (NodeId id : order) {
      if (stage_of[id] != static_cast<int>(s)) continue;
      const Node& src = g.node(id);
      Node copy = src;
      copy.inputs.clear();
      for (NodeId in : src.inputs) {
        if (stage_of[in] == static_cast<int>(s)) {
          copy.inputs.push_back(new_id[in]);
        } else {
          // Cross-stage edge: the producer stage ships the activation.
          out[static_cast<std::size_t>(stage_of[in])].boundary_bytes +=
              static_cast<double>(g.node(in).output_shape.bytes());
        }
      }
      new_id[id] = out[s].graph.add_node(std::move(copy));
    }
  }
  return out;
}

ModelParallelCluster::ModelParallelCluster(const MachineSpec& worker_spec,
                                           ClusterOptions options)
    : options_(options) {
  if (options_.num_workers == 0)
    throw std::invalid_argument("ModelParallelCluster: need >= 1 worker");
  for (std::size_t w = 0; w < options_.num_workers; ++w) {
    workers_.push_back(
        std::make_unique<Runtime>(worker_spec, options_.runtime));
  }
}

void ModelParallelCluster::profile(const Graph& g) {
  stages_ = partition_model(g, options_.num_workers);
  for (std::size_t w = 0; w < options_.num_workers; ++w) {
    workers_[w]->profile(stages_[w].graph);
  }
}

ModelParallelStepResult ModelParallelCluster::run_with(bool adaptive) {
  if (stages_.empty())
    throw std::logic_error("ModelParallelCluster: profile() first");
  ModelParallelStepResult r;
  for (std::size_t w = 0; w < options_.num_workers; ++w) {
    const StepResult step =
        adaptive ? workers_[w]->run_step(stages_[w].graph)
                 : workers_[w]->run_step_recommendation(stages_[w].graph);
    r.stage_ms.push_back(step.time_ms);
    r.stage_corun.push_back(step.trace.mean_corun());
    r.time_ms += step.time_ms;
    // Point-to-point transfer of boundary activations to the next stage.
    const double transfer =
        stages_[w].boundary_bytes / (kInterconnectGbs * 1e9) * 1e3 +
        (stages_[w].boundary_bytes > 0 ? kHopLatencyMs : 0.0);
    r.transfer_ms += transfer;
    r.time_ms += transfer;
  }
  return r;
}

ModelParallelStepResult ModelParallelCluster::run_step() {
  return run_with(/*adaptive=*/true);
}

ModelParallelStepResult ModelParallelCluster::run_step_recommendation() {
  return run_with(/*adaptive=*/false);
}

}  // namespace opsched
