// Strategy mask and runtime options. The four strategies are the paper's
// Section III-D contributions; the mask exists so the Figure-3 ablation
// (S1+S2, then +S3, then +S4) can be run exactly as in the evaluation.
#pragma once

#include <cstddef>

namespace opsched {

enum StrategyBits : unsigned {
  /// Strategy 1: per-(op, input-shape) intra-op parallelism from the model.
  kStrategy1 = 1u << 0,
  /// Strategy 2: per-op-kind consolidation — every instance of a kind uses
  /// the thread count optimal for its most time-consuming instance, so the
  /// team width never flip-flops between instances.
  kStrategy2 = 1u << 1,
  /// Strategy 3: co-run ready ops on disjoint idle cores, choosing among
  /// each op's top candidates the one that fits without outlasting the
  /// ongoing ops.
  kStrategy3 = 1u << 2,
  /// Strategy 4: overlay small ops on the spare hyper-thread contexts of
  /// full-width ops.
  kStrategy4 = 1u << 3,

  kStrategyS12 = kStrategy1 | kStrategy2,
  kStrategyS123 = kStrategyS12 | kStrategy3,
  kStrategyAll = kStrategyS123 | kStrategy4,
};

/// Tuning knobs for Runtime behaviour.
///
/// Contract: RuntimeOptions is a plain value type with no ownership — it is
/// copied into Runtime and its AdmissionPolicy at construction, so mutating
/// an options object after constructing a runtime has no effect on it. Safe
/// to share across threads by value; the struct itself performs no
/// synchronisation.
struct RuntimeOptions {
  unsigned strategies = kStrategyAll;

  /// Hill-climb sampling interval x (paper Table V; x=4 is the sweet spot).
  int hill_climb_interval = 4;

  /// Candidates considered per ready op in Strategy 3 ("three" is the
  /// paper's empirical number; the ablation bench varies it).
  std::size_t num_candidates = 3;

  /// Strategy 3 may not deviate from the Strategy 2 width by more than
  /// max(s2_delta_guard, s2_guard_relative * S2-width) threads, else the
  /// Strategy 2 width is used. The paper uses an absolute 2 at its typical
  /// widths of ~16-20 threads (~12% relative); the relative form keeps the
  /// same anti-thrash intent across width scales.
  int s2_delta_guard = 2;
  double s2_guard_relative = 0.35;

  /// Reuse co-run decisions across identical (op, idle-state) situations
  /// instead of re-running Strategy 3 (paper Section III-D "some decisions
  /// ... can be reused").
  bool decision_cache = true;

  /// Record op pairs whose co-run slowdown exceeded the threshold and avoid
  /// pairing them again (paper Section III-D Discussion).
  bool interference_recorder = true;
  double interference_bad_ratio = 2.5;
};

}  // namespace opsched
