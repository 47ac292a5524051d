#include "serve/placement.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/rng.hpp"

namespace opsched::serve {

double placement_charged_width(const WidthDemand& d, std::size_t cores) {
  const double c = static_cast<double>(std::max<std::size_t>(1, cores));
  if (!d.profiled) return c;
  return std::clamp(d.mean_width, 1.0, c);
}

double placement_objective(const std::vector<ShardLoad>& loads) {
  double obj = 0.0;
  for (const ShardLoad& l : loads) {
    const double rel =
        l.width / static_cast<double>(std::max<std::size_t>(1, l.cores));
    obj += rel * rel;
  }
  return obj;
}

std::vector<ShardLoad> loads_with_assignment(
    const std::vector<ShardLoad>& base, const std::vector<double>& widths,
    const std::vector<std::size_t>& assignment) {
  std::vector<ShardLoad> loads(base);
  for (std::size_t i = 0; i < assignment.size(); ++i)
    loads.at(assignment[i]).width += widths.at(i);
  return loads;
}

std::vector<std::size_t> greedy_place(const std::vector<double>& widths,
                                      const std::vector<ShardLoad>& base) {
  if (base.empty())
    throw std::invalid_argument("greedy_place: no shards to place on");
  std::vector<ShardLoad> loads(base);
  std::vector<std::size_t> assignment;
  assignment.reserve(widths.size());
  for (const double w : widths) {
    std::size_t best = 0;
    double best_rel = std::numeric_limits<double>::infinity();
    for (std::size_t s = 0; s < loads.size(); ++s) {
      const double rel =
          (loads[s].width + w) /
          static_cast<double>(std::max<std::size_t>(1, loads[s].cores));
      // Strict < keeps the tie-break at the lowest shard index.
      if (rel < best_rel) {
        best_rel = rel;
        best = s;
      }
    }
    loads[best].width += w;
    assignment.push_back(best);
  }
  return assignment;
}

std::vector<std::size_t> anneal_place(const std::vector<double>& widths,
                                      const std::vector<ShardLoad>& base,
                                      std::vector<std::size_t> assignment,
                                      std::uint64_t seed) {
  constexpr int kIters = 256;
  constexpr double kCooling = 0.97;
  if (base.empty())
    throw std::invalid_argument("anneal_place: no shards to place on");
  if (assignment.size() != widths.size())
    throw std::invalid_argument("anneal_place: assignment/widths mismatch");
  if (base.size() < 2 || widths.empty()) return assignment;

  std::vector<ShardLoad> loads =
      loads_with_assignment(base, widths, assignment);
  double current = placement_objective(loads);
  std::vector<std::size_t> best_assignment = assignment;
  double best = current;

  Xoshiro256 rng(seed);
  double temp = 0.5;
  for (int it = 0; it < kIters; ++it, temp *= kCooling) {
    const std::size_t j = rng.uniform_index(widths.size());
    const std::size_t from = assignment[j];
    std::size_t to = rng.uniform_index(base.size() - 1);
    if (to >= from) ++to;  // uniform over the OTHER shards

    const auto rel = [](const ShardLoad& l, double delta) {
      const double r =
          (l.width + delta) /
          static_cast<double>(std::max<std::size_t>(1, l.cores));
      return r * r;
    };
    const double delta_obj = rel(loads[from], -widths[j]) -
                             rel(loads[from], 0.0) +
                             rel(loads[to], widths[j]) - rel(loads[to], 0.0);
    const bool accept =
        delta_obj <= 0.0 ||
        rng.uniform() < std::exp(-delta_obj / std::max(temp, 1e-12));
    if (!accept) continue;
    loads[from].width -= widths[j];
    loads[to].width += widths[j];
    assignment[j] = to;
    current += delta_obj;
    if (current < best) {
      best = current;
      best_assignment = assignment;
    }
  }
  // Best-seen, not last-accepted: the pass never worsens its input.
  return best_assignment;
}

}  // namespace opsched::serve
