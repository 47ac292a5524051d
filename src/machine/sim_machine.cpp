#include "machine/sim_machine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace opsched {

void EventTrace::record(double time_ms, bool is_launch, NodeId node,
                        OpKind kind, int corun_after) {
  events_.push_back(TraceEvent{time_ms, is_launch, node, kind, corun_after});
}

double EventTrace::mean_corun() const {
  if (events_.empty()) return 0.0;
  double acc = 0.0;
  for (const TraceEvent& e : events_) acc += e.corun_after;
  return acc / static_cast<double>(events_.size());
}

int EventTrace::max_corun() const {
  int m = 0;
  for (const TraceEvent& e : events_) m = std::max(m, e.corun_after);
  return m;
}

SimMachine::SimMachine(const MachineSpec& spec, const CostModel& model)
    : spec_(spec), model_(model) {}

CoreSet SimMachine::idle_cores() const {
  CoreSet busy(spec_.num_cores);
  for (const RunningTask& t : tasks_) {
    if (t.launch_kind != LaunchKind::kOverlay)
      busy = busy.union_with(t.cores);
  }
  return CoreSet::all(spec_.num_cores).minus(busy);
}

CoreSet SimMachine::overlayable_cores() const {
  CoreSet primary(spec_.num_cores);
  CoreSet overlaid(spec_.num_cores);
  for (const RunningTask& t : tasks_) {
    if (t.launch_kind == LaunchKind::kOverlay)
      overlaid = overlaid.union_with(t.cores);
    else
      primary = primary.union_with(t.cores);
  }
  return primary.minus(overlaid);
}

SimMachine::TaskId SimMachine::launch(const Node& node, int threads,
                                      AffinityMode mode, const CoreSet& cores,
                                      LaunchKind kind) {
  if (threads <= 0) throw std::invalid_argument("SimMachine::launch: threads");
  if (cores.capacity() != spec_.num_cores)
    throw std::invalid_argument("SimMachine::launch: core set capacity");
  if (cores.empty())
    throw std::invalid_argument("SimMachine::launch: empty core set");
  if (kind == LaunchKind::kExclusive) {
    if (!cores.is_subset_of(idle_cores()))
      throw std::logic_error("SimMachine::launch: cores not idle");
  } else if (kind == LaunchKind::kOverlay) {
    if (!cores.is_subset_of(overlayable_cores()))
      throw std::logic_error("SimMachine::launch: cores not overlayable");
  }

  RunningTask t;
  t.id = next_id_++;
  t.node = node.id;
  t.kind = node.kind;
  t.threads = threads;
  t.mode = mode;
  t.cores = cores;
  t.launch_kind = kind;
  t.contexts_per_core = static_cast<int>(
      (static_cast<std::size_t>(threads) + cores.count() - 1) / cores.count());
  t.solo_ms = model_.exec_time_ms(node, threads, mode);
  // Serialized dispatch: a launch that arrives while another op's dispatch
  // is still in flight waits for the channel. The executor pipeline absorbs
  // short bursts, so the wait is bounded (depth-2 dispatch pipeline).
  const double dispatch_ms =
      cost_coeffs(node.kind).fixed_us * 1e-3 * 0.9;
  const double queue_delay =
      std::min(std::max(0.0, dispatch_end_ms_ - now_ms_), 2.0 * dispatch_ms);
  dispatch_end_ms_ = std::max(dispatch_end_ms_, now_ms_) + dispatch_ms;
  t.remaining_ms = t.solo_ms + queue_delay;
  // Team-resize penalty: running this kind at a different width than last
  // time re-forms the team (Strategy 2's motivation).
  int& last_width = last_width_[static_cast<std::size_t>(node.kind)];
  if (last_width != 0 && last_width != threads)
    t.remaining_ms += team_resize_penalty_ms();
  last_width = threads;
  t.start_ms = now_ms_;
  t.mem_intensity = model_.memory_intensity(node, threads);
  tasks_.push_back(std::move(t));
  recompute_rates();
  return tasks_.back().id;
}

void SimMachine::recompute_rates() {
  const std::size_t ncores = spec_.num_cores;
  const double total_cores = static_cast<double>(ncores);

  // Bandwidth pressure is global: each co-runner contributes its memory
  // intensity scaled by the share of the chip it occupies.
  std::vector<double> contribution(tasks_.size());
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    contribution[i] =
        tasks_[i].mem_intensity *
        (static_cast<double>(tasks_[i].cores.count()) / total_cores);
  }
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    double pressure = 0.0;
    for (std::size_t o = 0; o < tasks_.size(); ++o) {
      if (o != i) pressure += contribution[o];
    }
    tasks_[i].rate = 1.0 / model_.interference_factor(pressure);
  }

  if (tasks_.size() < 2) return;

  // Per-core capacity sharing between distinct teams. Demand weight of a
  // team is its compute fraction (floored) times the hardware contexts it
  // puts on the core. Only cores held by two or more teams share; every
  // other core runs its team at full speed.
  CoreSet seen(ncores);
  CoreSet shared(ncores);
  for (const RunningTask& t : tasks_) {
    shared = shared.union_with(seen.intersect(t.cores));
    seen = seen.union_with(t.cores);
  }
  if (shared.count() == 0) return;
  std::vector<double> share_sum(tasks_.size(), 0.0);
  std::vector<int> shared_cores(tasks_.size(), 0);
  std::vector<std::size_t> on_core;
  for (const std::size_t c : shared.to_vector()) {
    on_core.clear();
    int contexts = 0;
    for (std::size_t i = 0; i < tasks_.size(); ++i) {
      if (tasks_[i].cores.contains(c)) {
        on_core.push_back(i);
        contexts += tasks_[i].contexts_per_core;
      }
    }
    const double capacity =
        spec_.multi_team_capacity(static_cast<std::size_t>(contexts));
    double weight_sum = 0.0;
    for (std::size_t i : on_core) {
      const double w =
          std::max(corun_min_weight(), 1.0 - tasks_[i].mem_intensity) *
          tasks_[i].contexts_per_core;
      weight_sum += w;
    }
    for (std::size_t i : on_core) {
      const double w =
          std::max(corun_min_weight(), 1.0 - tasks_[i].mem_intensity) *
          tasks_[i].contexts_per_core;
      // Fraction of this core the team gets, relative to what it would get
      // alone (its own contexts at multi_team_capacity of just itself).
      const double solo_capacity = spec_.multi_team_capacity(
          static_cast<std::size_t>(tasks_[i].contexts_per_core));
      const double now = capacity * w / weight_sum;
      share_sum[i] += now / solo_capacity;
      ++shared_cores[i];
    }
  }
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    if (shared_cores[i] == 0) continue;
    // Mean share across the task's shared cores; cores it holds exclusively
    // contribute 1.0.
    const double total = static_cast<double>(tasks_[i].cores.count());
    const double exclusive = total - shared_cores[i];
    const double mean_share =
        (share_sum[i] + exclusive) / total;
    tasks_[i].rate *= std::min(1.0, mean_share);
  }
}

std::optional<SimMachine::Completion> SimMachine::advance() {
  if (tasks_.empty()) return std::nullopt;

  double best_dt = std::numeric_limits<double>::infinity();
  std::size_t best_idx = 0;
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    const double dt = tasks_[i].remaining_ms / tasks_[i].rate;
    if (dt < best_dt) {
      best_dt = dt;
      best_idx = i;
    }
  }

  now_ms_ += best_dt;
  for (RunningTask& t : tasks_) {
    t.remaining_ms = std::max(0.0, t.remaining_ms - best_dt * t.rate);
  }

  const RunningTask done = tasks_[best_idx];
  tasks_.erase(tasks_.begin() + static_cast<std::ptrdiff_t>(best_idx));
  recompute_rates();

  Completion c;
  c.id = done.id;
  c.node = done.node;
  c.finish_ms = now_ms_;
  c.solo_ms = done.solo_ms;
  c.actual_ms = now_ms_ - done.start_ms;
  c.cores = done.cores;
  c.launch_kind = done.launch_kind;
  return c;
}

double SimMachine::max_remaining_ms() const {
  double mx = 0.0;
  for (const RunningTask& t : tasks_)
    mx = std::max(mx, t.remaining_ms / t.rate);
  return mx;
}

void SimMachine::reset() {
  tasks_.clear();
  now_ms_ = 0.0;
  next_id_ = 1;
  dispatch_end_ms_ = 0.0;
}

}  // namespace opsched
