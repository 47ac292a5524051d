#include "core/concurrency_controller.hpp"

#include <algorithm>

namespace opsched {

ConcurrencyController::ConcurrencyController(
    const PerfDatabase& db, RuntimeOptions options, int default_width,
    const std::vector<const Graph*>& graphs)
    : db_(db), options_(options), default_width_(default_width) {
  const bool s1 = (options_.strategies & kStrategy1) != 0;
  const bool s2 = (options_.strategies & kStrategy2) != 0;

  // Strategy 1: per-key optima, over every tenant's nodes.
  for (const Graph* g : graphs) {
    for (const Node& n : g->nodes()) {
      if (!op_kind_tunable(n.kind)) continue;
      const OpKey key = OpKey::of(n);
      if (per_key_.count(key)) continue;
      const ProfileCurve* curve = db_.find(key);
      if (curve == nullptr || curve->empty()) continue;
      per_key_[key] = curve->best();
    }
  }

  if (!s1 && !s2) {
    per_key_.clear();  // no model-driven decisions at all
    return;
  }

  if (!s2) return;  // Strategy 1 alone: keep per-key decisions.

  // Strategy 2: for each kind, adopt the optimum of the most time-consuming
  // instance (the largest input size in the paper's formulation — largest
  // input is what makes the instance the most expensive one).
  std::map<OpKind, std::pair<double, Candidate>> heaviest;
  for (const Graph* g : graphs) {
    for (const Node& n : g->nodes()) {
      if (!op_kind_tunable(n.kind)) continue;
      const auto it = per_key_.find(OpKey::of(n));
      if (it == per_key_.end()) continue;
      const Candidate& best = it->second;
      auto [cur, inserted] =
          heaviest.try_emplace(n.kind, best.time_ms, best);
      if (!inserted && best.time_ms > cur->second.first)
        cur->second = {best.time_ms, best};
    }
  }
  for (const auto& [kind, entry] : heaviest) per_kind_[kind] = entry.second;
}

Candidate ConcurrencyController::default_choice() const {
  return Candidate{default_width_, AffinityMode::kSpread, 0.0};
}

Candidate ConcurrencyController::choice_for(const Node& node) const {
  if (!op_kind_tunable(node.kind)) {
    Candidate c = default_choice();
    const ProfileCurve* curve = db_.find(OpKey::of(node));
    if (curve && !curve->empty()) {
      // Predicted time at the default width, for scheduling arithmetic.
      c.time_ms = curve->predict(c.threads, c.mode);
    }
    return c;
  }
  const bool s2 = (options_.strategies & kStrategy2) != 0;
  if (s2) {
    const auto kind_it = per_kind_.find(node.kind);
    if (kind_it != per_kind_.end()) {
      // Consolidated width/mode, but report the *this instance's* predicted
      // time at that width so scheduling sees per-instance durations.
      Candidate c = kind_it->second;
      const ProfileCurve* curve = db_.find(OpKey::of(node));
      if (curve && !curve->empty()) c.time_ms = curve->predict(c.threads, c.mode);
      return c;
    }
  }
  const auto it = per_key_.find(OpKey::of(node));
  if (it != per_key_.end()) return it->second;
  Candidate c = default_choice();
  const ProfileCurve* curve = db_.find(OpKey::of(node));
  if (curve && !curve->empty()) c.time_ms = curve->predict(c.threads, c.mode);
  return c;
}

std::vector<Candidate> ConcurrencyController::candidates_for(
    const Node& node, std::size_t k) const {
  if (op_kind_tunable(node.kind)) {
    const ProfileCurve* curve = db_.find(OpKey::of(node));
    if (curve && !curve->empty()) {
      auto cands = curve->candidates(k);
      if (!cands.empty()) return cands;
    }
  }
  return {choice_for(node)};
}

int ConcurrencyController::consolidated_width(OpKind kind) const {
  const auto it = per_kind_.find(kind);
  return it == per_kind_.end() ? default_width_ : it->second.threads;
}

double ConcurrencyController::serial_time_ms(const Node& node) const {
  const ProfileCurve* curve = db_.find(OpKey::of(node));
  if (curve && !curve->empty() &&
      !curve->samples(AffinityMode::kSpread).empty()) {
    return curve->predict(1, AffinityMode::kSpread);
  }
  return choice_for(node).time_ms;
}

}  // namespace opsched
