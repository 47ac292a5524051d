#include "inputs.hpp"

#include <iterator>
#include <stdexcept>
#include <utility>

#include "models/models.hpp"
#include "models/zoo.hpp"
#include "serve/traffic.hpp"
#include "testing/graph_fuzz.hpp"
#include "util/rng.hpp"

namespace perfbench {

std::uint64_t derive(std::uint64_t seed, std::uint64_t salt) {
  return opsched::mix64(seed, salt);
}

TrainInputs train_deep_inputs(std::uint64_t seed) {
  TrainInputs in;
  in.graph = opsched::models::build_resnet152_host(2);
  in.tensor_seed = derive(seed, 1);
  return in;
}

TrainInputs train_fine_inputs(std::uint64_t seed, std::uint64_t graph_seed) {
  opsched::testing::FuzzGraphParams params;
  params.min_nodes = 1000;
  params.max_nodes = 1000;
  params.max_dim = 6;
  TrainInputs in;
  in.graph = opsched::testing::fuzz_graph(graph_seed, params);
  in.tensor_seed = derive(seed, 2);
  return in;
}

std::vector<double> poisson_arrivals(double rate_rps, std::size_t count,
                                     std::uint64_t seed) {
  // Draw over a window comfortably longer than `count` arrivals need, then
  // keep the first `count`; widen (same seed) in the rare short draw.
  double window_ms = static_cast<double>(count) / rate_rps * 1000.0 * 1.5 + 1000.0;
  for (;;) {
    std::vector<double> t = opsched::serve::poisson_trace(rate_rps, window_ms, seed);
    if (t.size() >= count) {
      t.resize(count);
      return t;
    }
    window_ms *= 2.0;
  }
}

const std::vector<std::string>& fleet_models() {
  static const std::vector<std::string> names = {
      "resnet50_host", "resnet101", "resnet152", "incep_resnet", "mnist_host"};
  return names;
}

opsched::Graph fleet_graph(const std::string& model) {
  if (model == "mnist_host") return opsched::build_mnist_host(2);
  const opsched::models::ZooEntry* entry = opsched::models::zoo_find(model);
  if (entry == nullptr) throw std::invalid_argument("unknown fleet model " + model);
  return entry->build(2);
}

std::vector<FleetJobPlan> fleet_script(std::uint64_t seed, std::size_t waves,
                                       std::size_t per_wave) {
  // Stratified: every wave holds the same multiset of jobs — the models in
  // equal shares, the same budget, weight and priority mix, and the same
  // jobs marked for cancelling — and the seed decides their order, when the
  // cancels land, and the tensor seeds. Runs on different seeds then differ
  // in arrival order and timing, not in how much there is to do.
  opsched::Xoshiro256 rng(derive(seed, 3));
  const std::vector<std::string>& models = fleet_models();
  const int budgets[] = {1, 2, 3, 4, 2, 3};
  const double weights[] = {0.5, 1.0, 2.0};
  std::vector<FleetJobPlan> plan;
  for (std::size_t w = 0; w < waves; ++w) {
    std::vector<FleetJobPlan> wave;
    for (std::size_t j = 0; j < per_wave; ++j) {
      FleetJobPlan job;
      job.model = models[j % models.size()];
      job.steps = budgets[(j / models.size()) % std::size(budgets)];
      job.weight = weights[(j / 3) % 3];
      job.priority = static_cast<int>(j % 3);
      // One job in eight (rounded up) is cancelled, 0-5 pumps after its wave.
      if (j % 8 == 0) job.cancel_after = static_cast<int>(rng.uniform_index(6));
      job.wave = w;
      job.tensor_seed = rng();
      wave.push_back(std::move(job));
    }
    // Fisher-Yates on the seeded stream.
    for (std::size_t i = wave.size(); i > 1; --i)
      std::swap(wave[i - 1], wave[rng.uniform_index(i)]);
    plan.insert(plan.end(), wave.begin(), wave.end());
  }
  return plan;
}

bool same_graph(const opsched::Graph& a, const opsched::Graph& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const opsched::Node& x = a.nodes()[i];
    const opsched::Node& y = b.nodes()[i];
    if (x.kind != y.kind || x.label != y.label || x.inputs != y.inputs ||
        x.input_shape != y.input_shape || x.aux_shape != y.aux_shape ||
        x.output_shape != y.output_shape)
      return false;
  }
  return true;
}

}  // namespace perfbench
