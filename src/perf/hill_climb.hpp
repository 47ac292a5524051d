// Hill-climbing performance model (paper Section III-C).
//
// During the first few training steps the profiler measures each operation
// at thread counts 1, 1+x, 1+2x, ... (interval x), in both affinity modes
// (cache-sharing: threads packed two per tile; no-sharing: spread one per
// tile), stopping when the time increases or the core count is exhausted.
// Untested thread counts are predicted by linear interpolation between
// measured neighbours. The resulting ProfileCurve provides:
//   - best(): the optimal (threads, mode, time) found,
//   - predict(): interpolated time at any thread count,
//   - candidates(k): the k most performant measured configurations, the
//     inputs to scheduling Strategy 3.
#pragma once

#include <functional>
#include <vector>

#include "machine/cost_model.hpp"

namespace opsched {

/// One measured profiling sample.
struct ProfilePoint {
  int threads = 1;
  AffinityMode mode = AffinityMode::kSpread;
  double time_ms = 0.0;
};

/// A scheduling candidate: run with `threads` threads in `mode`, predicted
/// to take `time_ms`.
struct Candidate {
  int threads = 1;
  AffinityMode mode = AffinityMode::kSpread;
  double time_ms = 0.0;
};

class ProfileCurve {
 public:
  void add_sample(AffinityMode mode, int threads, double time_ms);

  /// Linear interpolation between measured samples of `mode`; clamps
  /// outside the sampled range. Throws if the mode has no samples.
  double predict(int threads, AffinityMode mode) const;

  /// Best measured configuration.
  Candidate best() const;

  /// Up to `k` most performant measured configurations with distinct thread
  /// counts, sorted by ascending time.
  std::vector<Candidate> candidates(std::size_t k) const;

  const std::vector<ProfilePoint>& samples(AffinityMode mode) const;
  std::size_t total_samples() const;
  bool empty() const;

 private:
  std::vector<ProfilePoint> spread_;
  std::vector<ProfilePoint> shared_;
};

/// Measurement callback: time one run of the op at (threads, mode). On the
/// simulated machine this is CostModel::exec_time_ms; in host mode it wraps
/// a real timed kernel run.
using MeasureFn = std::function<double(int threads, AffinityMode mode)>;

struct HillClimbParams {
  /// The interval x. The paper evaluates x in {2,4,8,16}; x=4 is its
  /// accuracy/overhead sweet spot (Table V).
  int interval = 4;
  /// Maximum threads = physical cores (hyper-threading is never used for a
  /// single op's intra-op parallelism; see Section III-B).
  int max_threads = 68;
  /// Profile both affinity modes (the paper always does; tests toggle it).
  bool both_modes = true;
};

/// Consecutive time increases required before the climb stops. Measured
/// curves are noisy; stopping on the first uptick (the paper's literal
/// rule) truncates the curve at spurious jitter bumps.
inline constexpr int kHillClimbPatience = 2;

class HillClimbProfiler {
 public:
  explicit HillClimbProfiler(HillClimbParams params) : params_(params) {}

  /// Runs the climb and returns the measured curve. The number of measure()
  /// calls is the profiling cost; it is bounded by
  /// 2 * (max_threads / interval + 2) as in the paper (N <= C/x * 2).
  ProfileCurve profile(const MeasureFn& measure) const;

  /// Number of measure() calls the last profile() made.
  std::size_t last_sample_count() const noexcept { return last_samples_; }

  const HillClimbParams& params() const noexcept { return params_; }

 private:
  void climb_mode(const MeasureFn& measure, AffinityMode mode,
                  ProfileCurve& out) const;

  HillClimbParams params_;
  mutable std::size_t last_samples_ = 0;
};

}  // namespace opsched
