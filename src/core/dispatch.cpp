#include "core/dispatch.hpp"

#include <algorithm>
#include <stdexcept>

namespace opsched {

namespace {

/// One lane's in-flight op.
struct Flight {
  /// The op as the policy sees it; remaining_ms is filled per snapshot.
  RunningOpView view;
  NodeId node = kInvalidNode;
  /// Overlays slow down by design (hyper-thread sharing); the recorder only
  /// flags *unexpected* interference, so overlays are exempt.
  bool overlay = false;
  /// Every op in flight when this one launched, for the recorder.
  std::vector<TenantOpKey> corunners;
};

}  // namespace

std::vector<StepResult> run_dispatch(AdmissionPolicy& policy,
                                     DispatchSubstrate& substrate,
                                     const std::vector<const Graph*>& graphs,
                                     const TenantSet& set,
                                     std::size_t decision_batch) {
  const std::size_t tenants = graphs.size();
  if (tenants == 0) return {};
  if (set.ids.size() != tenants) {
    throw std::invalid_argument(
        "run_dispatch: TenantSet/graphs size mismatch");
  }
  policy.configure_tenants(set);
  const RuntimeOptions& options = policy.options();
  const bool s4 = (options.strategies & kStrategy4) != 0;
  const std::size_t batch = std::max<std::size_t>(1, decision_batch);

  std::vector<StepResult> results(tenants);
  std::vector<ReadyTracker> trackers;
  trackers.reserve(tenants);
  std::vector<ReadyQueue> ready(tenants);
  std::vector<TenantReadyView> tenant_views(tenants);
  std::size_t remaining = 0;
  for (std::size_t t = 0; t < tenants; ++t) {
    trackers.emplace_back(*graphs[t]);
    ready[t].assign(trackers[t].initially_ready().begin(),
                    trackers[t].initially_ready().end());
    tenant_views[t] = TenantReadyView{graphs[t], &ready[t]};
    remaining += trackers[t].remaining();
  }
  std::vector<double> last_completion(tenants, 0.0);

  std::vector<Flight> flights(2 * substrate.cores());
  std::vector<std::size_t> live;  // lanes in flight, unordered
  std::vector<double> remaining_by_lane(flights.size(), 0.0);
  std::vector<RunningOpView> views;
  // The policy accumulates each tenant's walk counters here across rounds.
  std::vector<AdmissionStats> walk_stats(tenants);
  std::vector<DispatchCompletion> completions;
  double sched_ms = 0.0;

  const auto any_ready = [&] {
    for (const auto& q : ready) {
      if (!q.empty()) return true;
    }
    return false;
  };

  // The in-flight ops on the policy's terms; the substrate supplies how
  // long each has left.
  const auto running = [&]() -> const std::vector<RunningOpView>& {
    views.clear();
    if (live.empty()) return views;
    substrate.remaining_ms(remaining_by_lane);
    for (const std::size_t lane : live) {
      views.push_back(flights[lane].view);
      views.back().remaining_ms = remaining_by_lane[lane];
    }
    return views;
  };

  const auto complete = [&](const DispatchCompletion& c) {
    const Flight& fl = flights[c.lane];
    const std::size_t tenant = fl.view.tenant;
    live.erase(std::find(live.begin(), live.end(), c.lane));
    StepResult& stats = results[tenant];
    // Interference recorder: an excessive co-run slowdown marks all pairs.
    if (!fl.overlay && c.expected_ms > 0.0 &&
        c.actual_ms > c.expected_ms * options.interference_bad_ratio) {
      policy.record_interference(TenantOpKey{tenant, fl.view.key},
                                 fl.corunners);
    }
    stats.service_ms += c.actual_ms;
    // max: a substrate may report completions out of clock order.
    last_completion[tenant] = std::max(last_completion[tenant], c.end_ms);
    stats.trace.record(c.end_ms, /*is_launch=*/false, fl.node,
                       graphs[tenant]->node(fl.node).kind,
                       static_cast<int>(live.size()));
    std::vector<NodeId> newly;
    trackers[tenant].mark_done(fl.node, newly);
    for (NodeId id : newly) ready[tenant].push_back(id);
    --remaining;
  };

  const auto launch = [&](std::size_t tenant, const AdmissionDecision& d,
                          const CoreSet& cores, bool overlay) {
    const NodeId id = ready[tenant][d.ready_pos];
    ready[tenant].erase(d.ready_pos);
    const Node& node = graphs[tenant]->node(id);
    const std::size_t lane = dispatch_lane(cores, overlay);
    Flight& fl = flights[lane];
    fl.view = RunningOpView{OpKey::of(node), 0.0, tenant,
                            static_cast<int>(cores.count()), d.op_token};
    fl.node = id;
    fl.overlay = overlay;
    fl.corunners.clear();
    for (const std::size_t other : live) {
      const RunningOpView& v = flights[other].view;
      fl.corunners.push_back(TenantOpKey{v.tenant, v.key});
    }
    const bool corun = !live.empty();
    live.push_back(lane);

    StepResult& stats = results[tenant];
    stats.trace.record(substrate.now_ms(), /*is_launch=*/true, id, node.kind,
                       static_cast<int>(live.size()));
    ++stats.ops_run;
    if (overlay) ++stats.overlay_launches;
    if (corun || overlay) ++stats.corun_launches;

    DispatchLaunch l;
    l.lane = lane;
    l.tenant = tenant;
    l.node = &node;
    l.candidate = d.candidate;
    l.cores = cores;
    l.overlay = overlay;
    l.others_ready = any_ready();
    if (const auto done = substrate.launch(l)) complete(*done);
  };

  while (remaining > 0) {
    // ---- Strategies 1-3 (serial execution when S3 is off) ----
    for (;;) {
      CoreSet idle = substrate.idle_cores();
      if (idle.empty() || !any_ready()) break;
      // One running-view snapshot and one policy call admit up to `batch`
      // launches; decision i already models picks 0..i-1 as running, so
      // applying them back-to-back matches deciding one per round.
      const double d0 = substrate.now_ms();
      const auto picks = policy.next_launch_batch(
          tenant_views, static_cast<int>(idle.count()), running(),
          &walk_stats, batch);
      sched_ms += substrate.now_ms() - d0;
      if (picks.empty()) break;  // wait for a completion
      for (const auto& pick : picks) {
        const CoreSet span = idle.take_lowest(static_cast<std::size_t>(
            std::max(1, pick.decision.candidate.threads)));
        idle = idle.minus(span);
        launch(pick.tenant, pick.decision, span, /*overlay=*/false);
      }
    }

    // ---- Strategy 4: overlays once the machine is (nearly) full ----
    // The paper's "an operation using 68 cores" generalized to any residue
    // too small for Strategy 3.
    if (s4 && any_ready() &&
        substrate.idle_cores().count() <
            AdmissionPolicy::kOverlayTriggerIdleCores) {
      for (;;) {
        const CoreSet eligible = substrate.overlay_cores();
        if (eligible.empty() || !any_ready()) break;
        const double d0 = substrate.now_ms();
        const auto pick = policy.next_overlay_multi(
            tenant_views, static_cast<int>(eligible.count()), running());
        sched_ms += substrate.now_ms() - d0;
        if (!pick.has_value()) break;
        launch(pick->tenant, pick->decision,
               eligible.take_lowest(static_cast<std::size_t>(
                   std::max(1, pick->decision.candidate.threads))),
               /*overlay=*/true);
      }
    }

    // ---- wait for (at least) one completion ----
    if (remaining == 0) break;  // everything finished inline
    if (live.empty()) {
      throw std::logic_error(
          "run_dispatch: deadlock — nothing running but nodes remain");
    }
    completions.clear();
    substrate.wait(completions);
    for (const DispatchCompletion& c : completions) complete(c);
  }

  for (std::size_t t = 0; t < tenants; ++t) {
    // Per-queue attribution, wait rounds included: each tenant's counters
    // reflect the walk over its own queue, whoever won the round.
    results[t].cache_hits = walk_stats[t].cache_hits;
    results[t].guard_fallbacks = walk_stats[t].guard_fallbacks;
    results[t].time_ms = last_completion[t];
    results[t].mean_corun = results[t].trace.mean_corun();
    results[t].sched_ms = sched_ms;
  }
  return results;
}

StepResult run_fifo(FifoSubstrate& substrate, const Graph& g, int inter_op) {
  if (inter_op < 1)
    throw std::invalid_argument("run_fifo: inter_op must be >= 1");
  StepResult stats;
  ReadyTracker tracker(g);
  ReadyQueue ready(tracker.initially_ready().begin(),
                   tracker.initially_ready().end());
  std::vector<NodeId> slot_node(static_cast<std::size_t>(inter_op),
                                kInvalidNode);
  int busy = 0;
  std::vector<DispatchCompletion> completions;

  while (tracker.remaining() > 0) {
    for (std::size_t s = 0; s < slot_node.size() && !ready.empty(); ++s) {
      if (slot_node[s] != kInvalidNode) continue;
      const Node& node = g.node(ready.front());
      ready.erase(0);
      slot_node[s] = node.id;
      ++stats.ops_run;
      if (busy++ > 0) ++stats.corun_launches;
      stats.trace.record(substrate.now_ms(), /*is_launch=*/true, node.id,
                         node.kind, busy);
      substrate.start(s, node);
    }

    if (busy == 0) {
      throw std::logic_error(
          "run_fifo: deadlock — nothing running but nodes remain");
    }
    completions.clear();
    substrate.wait(completions);
    for (const DispatchCompletion& c : completions) {
      const NodeId done = slot_node[c.lane];
      slot_node[c.lane] = kInvalidNode;
      --busy;
      stats.service_ms += c.actual_ms;
      stats.trace.record(c.end_ms, /*is_launch=*/false, done,
                         g.node(done).kind, busy);
      std::vector<NodeId> newly;
      tracker.mark_done(done, newly);
      for (NodeId id : newly) ready.push_back(id);
    }
  }

  stats.time_ms = substrate.now_ms();
  stats.mean_corun = stats.trace.mean_corun();
  return stats;
}

}  // namespace opsched
