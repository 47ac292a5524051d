// ConcurrencyController: Strategies 1 and 2 — decides each operation's
// intra-op parallelism from the profiled performance model.
//
// An immutable value: it decides once, at construction, over the graphs it
// is given, from the curves in the database at that moment. The
// AdmissionPolicy that walks those graphs owns one and builds a new one when
// its graphs or the database's version change; profiling never touches it.
#pragma once

#include <map>
#include <vector>

#include "core/strategies.hpp"
#include "graph/graph.hpp"
#include "perf/perf_db.hpp"

namespace opsched {

class ConcurrencyController {
 public:
  /// Decides every node of the UNION of `graphs` (co-located jobs share
  /// one controller, so Strategy 2 consolidates each kind across every
  /// tenant's instances):
  ///  - Strategy 1 (if enabled): per-(kind, shape) optimum from its curve.
  ///  - Strategy 2 (if enabled): per-kind consolidation onto the optimum of
  ///    the most time-consuming instance of the kind.
  ///  - Neither: every op gets default_width() (the recommendation).
  /// `default_width` is the recommended width (the machine's physical
  /// cores): ops the runtime cannot tune (Eigen-backed layout ops) and ops
  /// without a decision run at it. `db` must outlive the controller.
  ConcurrencyController(const PerfDatabase& db, RuntimeOptions options,
                        int default_width,
                        const std::vector<const Graph*>& graphs);

  /// The width/mode this op will use when run alone (S1/S2 decision), with
  /// this instance's predicted solo time at it.
  Candidate choice_for(const Node& node) const;

  /// Up to k most performant candidates (Strategy 3's menu). Falls back to
  /// {choice_for} for unprofiled or non-tunable ops.
  std::vector<Candidate> candidates_for(const Node& node, std::size_t k) const;

  /// Strategy 2 consolidated width for a kind (default_width if the kind
  /// was not consolidated).
  int consolidated_width(OpKind kind) const;

  /// Serial (1-thread) time estimate, used by Strategy 4's "smallest op
  /// first" rule. Falls back to the chosen-candidate time when the curve
  /// lacks a 1-thread sample.
  double serial_time_ms(const Node& node) const;

  int default_width() const noexcept { return default_width_; }

 private:
  Candidate default_choice() const;

  const PerfDatabase& db_;
  RuntimeOptions options_;
  int default_width_;
  /// Per-kind consolidated decision (Strategy 2).
  std::map<OpKind, Candidate> per_kind_;
  /// Per-key decision (Strategy 1, also the base for Strategy 2 lookups).
  std::map<OpKey, Candidate> per_key_;
};

}  // namespace opsched
