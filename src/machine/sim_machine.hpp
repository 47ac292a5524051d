// SimMachine: discrete-event execution engine for the simulated manycore.
//
// The scheduler launches operations onto explicit core sets; the machine
// advances a virtual clock to operation completions. Progress rates are
// recomputed on every launch/finish (processor-sharing style):
//   - co-runners inflate each other's time through bandwidth interference,
//   - when distinct teams share physical cores (hyper-threading overlays,
//     oversubscribed FIFO slots), each core's capacity
//     (MachineSpec::multi_team_capacity) is split in proportion to each
//     team's compute demand (1 - memory intensity, floored) — a compute-
//     heavy op keeps most of its speed while a small streaming op rides the
//     spare hyper-thread contexts, the effect Strategy 4 exploits.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "graph/graph.hpp"
#include "machine/cost_coeffs.hpp"
#include "machine/cost_model.hpp"
#include "threading/core_set.hpp"

namespace opsched {

/// One entry of the Figure-4-style event log: every launch/finish records
/// the number of co-running operations immediately after the event. The
/// step loops (core/dispatch.hpp) keep the log; the machine keeps none.
struct TraceEvent {
  double time_ms = 0.0;
  bool is_launch = false;
  NodeId node = kInvalidNode;
  OpKind kind = OpKind::kConv2D;
  int corun_after = 0;
};

class EventTrace {
 public:
  void record(double time_ms, bool is_launch, NodeId node, OpKind kind,
              int corun_after);
  const std::vector<TraceEvent>& events() const noexcept { return events_; }
  std::size_t size() const noexcept { return events_.size(); }
  void clear() { events_.clear(); }

  /// Mean of corun_after over all events (the paper's "average number of
  /// co-running operations").
  double mean_corun() const;
  /// Max co-run level observed.
  int max_corun() const;

 private:
  std::vector<TraceEvent> events_;
};

/// How an op claims its cores.
enum class LaunchKind : std::uint8_t {
  /// Cores must be idle; the op becomes their primary occupant.
  kExclusive = 0,
  /// Cores must be busy primaries without an overlay; the op rides the
  /// spare hyper-thread contexts (Strategy 4).
  kOverlay = 1,
  /// No occupancy checks: contexts stack freely and share capacity. Used by
  /// the FIFO baseline, whose threads the OS scatters without partitioning.
  kStacked = 2,
};

class SimMachine {
 public:
  using TaskId = std::uint64_t;

  struct RunningTask {
    TaskId id = 0;
    NodeId node = kInvalidNode;
    OpKind kind = OpKind::kConv2D;
    int threads = 0;
    AffinityMode mode = AffinityMode::kSpread;
    CoreSet cores;              // physical cores in use
    LaunchKind launch_kind = LaunchKind::kExclusive;
    int contexts_per_core = 1;  // ceil(threads / |cores|)
    double solo_ms = 0.0;       // interference-free duration
    double remaining_ms = 0.0;  // at rate 1.0
    double rate = 1.0;
    double start_ms = 0.0;
    double mem_intensity = 0.0;
  };

  struct Completion {
    TaskId id = 0;
    NodeId node = kInvalidNode;
    double finish_ms = 0.0;
    double solo_ms = 0.0;
    double actual_ms = 0.0;  // includes interference/HT slowdown
    CoreSet cores;
    LaunchKind launch_kind = LaunchKind::kExclusive;
  };

  SimMachine(const MachineSpec& spec, const CostModel& model);

  double now_ms() const noexcept { return now_ms_; }
  std::size_t num_running() const noexcept { return tasks_.size(); }
  bool quiescent() const noexcept { return tasks_.empty(); }

  /// Cores with no primary (exclusive) occupant.
  CoreSet idle_cores() const;

  /// Cores with a primary occupant but no overlay yet.
  CoreSet overlayable_cores() const;

  /// Launches `node` with `threads` threads on `cores`.
  TaskId launch(const Node& node, int threads, AffinityMode mode,
                const CoreSet& cores, LaunchKind kind = LaunchKind::kExclusive);

  /// Advances the clock to the next completion. Returns nullopt if nothing
  /// is running.
  std::optional<Completion> advance();

  /// Estimated wall-clock ms until each running task finishes at current
  /// rates; max over tasks, 0 if none (the "remaining time of ongoing
  /// operations" Strategy 3 compares against).
  double max_remaining_ms() const;

  const std::vector<RunningTask>& running() const noexcept { return tasks_; }

  /// Resets clock and clears running tasks.
  void reset();

  const CostModel& cost_model() const noexcept { return model_; }
  const MachineSpec& spec() const noexcept { return spec_; }

 private:
  void recompute_rates();

  MachineSpec spec_;
  const CostModel& model_;
  double now_ms_ = 0.0;
  TaskId next_id_ = 1;
  /// The executor dispatch path (ready-queue pop, primitive lookup, team
  /// handoff) is serialized in the real runtime: concurrent launches queue
  /// behind it. This is what bounds the benefit of co-running
  /// overhead-dominated tiny ops (LSTM's flat manual-optimization
  /// landscape in the paper).
  double dispatch_end_ms_ = 0.0;
  /// Last team width used per op kind: a launch at a different width pays
  /// the team-resize penalty (thread re-bind + cache thrash) — the cost
  /// Strategy 2 avoids by pinning one width per kind. Persists across
  /// reset() like the real thread pools persist across training steps.
  std::array<int, kNumOpKinds> last_width_{};
  std::vector<RunningTask> tasks_;
};

}  // namespace opsched
