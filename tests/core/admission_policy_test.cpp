// AdmissionPolicy: the shared Strategy 1-4 admission logic. The central
// claim is that the simulator scheduler and the native host executor make
// IDENTICAL admission decisions because they run the same component — so a
// fixed ready-queue script must produce the same decision sequence from two
// independently-driven policy instances (one playing the simulator's role,
// one the host executor's).
#include "core/admission_policy.hpp"

#include <gtest/gtest.h>

#include "core/runtime.hpp"
#include "graph/builder.hpp"
#include "util/rng.hpp"

namespace opsched {
namespace {

/// The default width a KNL Runtime gives its policies: the machine's cores.
const int kKnlCores = static_cast<int>(MachineSpec::knl().num_cores);

/// A layer of independent convs (profiled, tunable) plus one tiny op for
/// the Strategy-4 smallest-op rule. Node ids: 0 = source, 1-4 = convs,
/// 5 = tiny bias add.
Graph script_graph() {
  GraphBuilder gb;
  const NodeId src =
      gb.source(OpKind::kInputConversion, "in", TensorShape{32, 8, 8, 384});
  for (int i = 0; i < 4; ++i) {
    gb.op(OpKind::kConv2DBackpropInput, "conv" + std::to_string(i), {src},
          TensorShape{32, 8, 8, 384}, TensorShape{3, 3, 384, 384},
          TensorShape{32, 8, 8, 384});
  }
  gb.op(OpKind::kBiasAdd, "tiny", {src}, TensorShape{32, 8, 8, 16},
        TensorShape{16}, TensorShape{32, 8, 8, 16});
  return gb.take();
}

class AdmissionPolicyTest : public ::testing::Test {
 protected:
  AdmissionPolicyTest()
      : graph_(script_graph()), runtime_(MachineSpec::knl()) {
    runtime_.profile(graph_);
  }

  AdmissionPolicy make_policy() const {
    return AdmissionPolicy(runtime_.database(), runtime_.options(),
                           kKnlCores);
  }

  RunningOpView running_view(NodeId node, double remaining) const {
    RunningOpView v;
    v.key = OpKey::of(graph_.node(node));
    v.remaining_ms = remaining;
    return v;
  }

  /// One Strategy 1-3 decision over a single queue of graph_ (the
  /// batch-of-one walk of a one-tenant population).
  std::optional<AdmissionDecision> launch(
      AdmissionPolicy& p, const ReadyQueue& ready, int idle,
      const std::vector<RunningOpView>& running,
      AdmissionStats* stats = nullptr) const {
    std::vector<AdmissionStats> per_tenant;
    const auto batch = p.next_launch_batch({{&graph_, &ready}}, idle, running,
                                           &per_tenant, 1);
    if (stats != nullptr && !per_tenant.empty()) {
      stats->cache_hits += per_tenant[0].cache_hits;
      stats->guard_fallbacks += per_tenant[0].guard_fallbacks;
    }
    if (batch.empty()) return std::nullopt;
    return batch.front().decision;
  }

  /// One Strategy-4 decision over a single queue of graph_.
  std::optional<AdmissionDecision> overlay(
      AdmissionPolicy& p, const ReadyQueue& ready, int eligible,
      const std::vector<RunningOpView>& running) const {
    const auto d = p.next_overlay_multi({{&graph_, &ready}}, eligible, running);
    if (!d.has_value()) return std::nullopt;
    return d->decision;
  }

  Graph graph_;
  Runtime runtime_;
};

/// One conv of script_graph()'s kind at a far larger shape (node 1): the
/// kind's most time-consuming instance once both graphs are co-located.
Graph heavy_graph() {
  GraphBuilder gb;
  const NodeId src =
      gb.source(OpKind::kInputConversion, "in", TensorShape{32, 8, 8, 2048});
  gb.op(OpKind::kConv2DBackpropInput, "heavy", {src},
        TensorShape{32, 8, 8, 2048}, TensorShape{3, 3, 2048, 512},
        TensorShape{32, 8, 8, 2048});
  return gb.take();
}

/// One admission decision over `tenants` (the batch-of-one walk).
std::optional<MultiAdmissionDecision> launch_multi(
    AdmissionPolicy& p, const std::vector<TenantReadyView>& tenants, int idle,
    const std::vector<RunningOpView>& running,
    std::vector<AdmissionStats>* stats = nullptr) {
  const auto batch = p.next_launch_batch(tenants, idle, running, stats, 1);
  if (batch.empty()) return std::nullopt;
  return batch.front();
}

/// One scripted scheduling situation.
struct ScriptState {
  ReadyQueue ready;
  int idle_cores = 0;
  std::vector<RunningOpView> running;
};

TEST_F(AdmissionPolicyTest, SimulatorAndHostRolesDecideIdentically) {
  // The same script a CorunScheduler round and a HostCorunExecutor round
  // would present: full machine, partial machine, contended machine,
  // repeated situations (cache), empty-machine fallback.
  const std::vector<ScriptState> script = {
      {{1, 2, 3, 4, 5}, 68, {}},
      {{2, 3, 4, 5}, 20, {running_view(1, 50.0)}},
      {{3, 4, 5}, 8, {running_view(1, 45.0), running_view(2, 40.0)}},
      {{3, 4, 5}, 8, {running_view(1, 30.0), running_view(2, 25.0)}},
      {{5}, 2, {running_view(3, 10.0)}},
      {{4}, 1, {}},
  };

  AdmissionPolicy sim_role = make_policy();
  AdmissionPolicy host_role = make_policy();

  for (const ScriptState& s : script) {
    AdmissionStats sim_stats, host_stats;
    const auto a = launch(sim_role, s.ready, s.idle_cores,
                                        s.running, &sim_stats);
    const auto b = launch(host_role, s.ready, s.idle_cores,
                                         s.running, &host_stats);
    ASSERT_EQ(a.has_value(), b.has_value());
    if (a.has_value()) {
      EXPECT_EQ(a->ready_pos, b->ready_pos);
      EXPECT_EQ(a->candidate.threads, b->candidate.threads);
      EXPECT_EQ(a->candidate.mode, b->candidate.mode);
      EXPECT_DOUBLE_EQ(a->candidate.time_ms, b->candidate.time_ms);
      EXPECT_EQ(a->heavy_fallback, b->heavy_fallback);
    }
    EXPECT_EQ(sim_stats.cache_hits, host_stats.cache_hits);
    EXPECT_EQ(sim_stats.guard_fallbacks, host_stats.guard_fallbacks);

    const auto oa =
        overlay(sim_role, s.ready, s.idle_cores, s.running);
    const auto ob =
        overlay(host_role, s.ready, s.idle_cores, s.running);
    ASSERT_EQ(oa.has_value(), ob.has_value());
    if (oa.has_value()) {
      EXPECT_EQ(oa->ready_pos, ob->ready_pos);
      EXPECT_EQ(oa->candidate.threads, ob->candidate.threads);
    }
  }
  EXPECT_EQ(sim_role.recorded_bad_pairs(), host_role.recorded_bad_pairs());
}

TEST_F(AdmissionPolicyTest, RandomizedScriptsSimAndHostRolesDecideIdentically) {
  // 100 fuzzed rounds from a fixed seed: random ready queues (repeats
  // allowed), random idle widths, random running snapshots, and randomly
  // injected interference records. Two independently-driven policies — one
  // playing the simulator's role, one the host executor's — must stay in
  // lockstep the whole way, including the learned-state mutations (cache
  // fills, bad pairs) each decision leaves behind.
  Xoshiro256 rng(0xD21F7ULL);
  AdmissionPolicy sim_role = make_policy();
  AdmissionPolicy host_role = make_policy();

  for (int round = 0; round < 100; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    ReadyQueue ready;
    const std::size_t len = rng.uniform_index(6);
    for (std::size_t i = 0; i < len; ++i)
      ready.push_back(static_cast<NodeId>(1 + rng.uniform_index(5)));
    const int idle = static_cast<int>(1 + rng.uniform_index(68));
    std::vector<RunningOpView> running;
    const std::size_t nrun = rng.uniform_index(3);
    for (std::size_t i = 0; i < nrun; ++i) {
      running.push_back(
          running_view(static_cast<NodeId>(1 + rng.uniform_index(5)),
                       rng.uniform(0.01, 80.0)));
    }

    AdmissionStats sim_stats, host_stats;
    const auto a =
        launch(sim_role, ready, idle, running, &sim_stats);
    const auto b =
        launch(host_role, ready, idle, running, &host_stats);
    ASSERT_EQ(a.has_value(), b.has_value());
    if (a.has_value()) {
      EXPECT_EQ(a->ready_pos, b->ready_pos);
      EXPECT_EQ(a->candidate.threads, b->candidate.threads);
      EXPECT_DOUBLE_EQ(a->candidate.time_ms, b->candidate.time_ms);
      EXPECT_EQ(a->heavy_fallback, b->heavy_fallback);
    }
    EXPECT_EQ(sim_stats.cache_hits, host_stats.cache_hits);
    EXPECT_EQ(sim_stats.guard_fallbacks, host_stats.guard_fallbacks);

    const auto oa = overlay(sim_role, ready, idle, running);
    const auto ob = overlay(host_role, ready, idle, running);
    ASSERT_EQ(oa.has_value(), ob.has_value());
    if (oa.has_value()) {
      EXPECT_EQ(oa->ready_pos, ob->ready_pos);
      EXPECT_EQ(oa->candidate.threads, ob->candidate.threads);
    }

    // Occasionally both executors observe the same bad co-run and record
    // it; later rounds then exercise the bad-pair filter identically.
    if (!running.empty() && !ready.empty() && rng.uniform() < 0.15) {
      const OpKey completed = OpKey::of(graph_.node(ready.front()));
      sim_role.record_interference(TenantOpKey{0, completed},
                                   {TenantOpKey{0, running.front().key}});
      host_role.record_interference(TenantOpKey{0, completed},
                                    {TenantOpKey{0, running.front().key}});
    }
    ASSERT_EQ(sim_role.recorded_bad_pairs(), host_role.recorded_bad_pairs());
  }
}

TEST_F(AdmissionPolicyTest, RandomizedMultiTenantScriptsDecideIdentically) {
  // The multi-tenant walk is part of the drift contract too: 100 fuzzed
  // rounds over three tenants with skewed weights, sim-role and host-role
  // policies must pick the same (tenant, op, candidate) every time and
  // accumulate identical fairness ledgers.
  Xoshiro256 rng(0xBEEF5ULL);
  AdmissionPolicy sim_role = make_policy();
  AdmissionPolicy host_role = make_policy();
  const std::vector<double> weights = {1.0, 2.0, 0.5};
  sim_role.configure_tenants(TenantSet::slots(3, weights));
  host_role.configure_tenants(TenantSet::slots(3, weights));

  for (int round = 0; round < 100; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    std::vector<ReadyQueue> queues(3);
    for (auto& q : queues) {
      const std::size_t len = rng.uniform_index(5);
      for (std::size_t i = 0; i < len; ++i)
        q.push_back(static_cast<NodeId>(1 + rng.uniform_index(5)));
    }
    const std::vector<TenantReadyView> tenants = {
        {&graph_, &queues[0]}, {&graph_, &queues[1]}, {&graph_, &queues[2]}};
    const int idle = static_cast<int>(1 + rng.uniform_index(68));
    std::vector<RunningOpView> running;
    const std::size_t nrun = rng.uniform_index(3);
    for (std::size_t i = 0; i < nrun; ++i) {
      RunningOpView v = running_view(
          static_cast<NodeId>(1 + rng.uniform_index(5)),
          rng.uniform(0.01, 80.0));
      v.tenant = rng.uniform_index(3);
      running.push_back(v);
    }

    std::vector<AdmissionStats> sim_stats, host_stats;
    const auto a =
        launch_multi(sim_role, tenants, idle, running, &sim_stats);
    const auto b =
        launch_multi(host_role, tenants, idle, running, &host_stats);
    ASSERT_EQ(a.has_value(), b.has_value());
    if (a.has_value()) {
      EXPECT_EQ(a->tenant, b->tenant);
      EXPECT_EQ(a->decision.ready_pos, b->decision.ready_pos);
      EXPECT_EQ(a->decision.candidate.threads, b->decision.candidate.threads);
      EXPECT_EQ(a->decision.heavy_fallback, b->decision.heavy_fallback);
    }
    ASSERT_EQ(sim_stats.size(), host_stats.size());
    for (std::size_t t = 0; t < sim_stats.size(); ++t) {
      EXPECT_EQ(sim_stats[t].cache_hits, host_stats[t].cache_hits);
      EXPECT_EQ(sim_stats[t].guard_fallbacks, host_stats[t].guard_fallbacks);
    }

    const auto oa = sim_role.next_overlay_multi(tenants, idle, running);
    const auto ob = host_role.next_overlay_multi(tenants, idle, running);
    ASSERT_EQ(oa.has_value(), ob.has_value());
    if (oa.has_value()) {
      EXPECT_EQ(oa->tenant, ob->tenant);
      EXPECT_EQ(oa->decision.ready_pos, ob->decision.ready_pos);
    }
  }
  for (std::size_t t = 0; t < 3; ++t) {
    EXPECT_DOUBLE_EQ(sim_role.tenant_service(t), host_role.tenant_service(t));
  }
}

TEST_F(AdmissionPolicyTest, RepeatedSituationHitsTheDecisionCache) {
  AdmissionPolicy policy = make_policy();
  const ReadyQueue ready{2, 3};
  const std::vector<RunningOpView> running{running_view(1, 1e6)};
  AdmissionStats first, second;
  const auto a = launch(policy, ready, 68, running, &first);
  const auto b = launch(policy, ready, 68, running, &second);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(first.cache_hits, 0u);
  EXPECT_EQ(second.cache_hits, 1u);
  EXPECT_EQ(a->ready_pos, b->ready_pos);
  EXPECT_EQ(a->candidate.threads, b->candidate.threads);
}

TEST_F(AdmissionPolicyTest, RecordedBadPairYieldsButNeverIdlesCores) {
  AdmissionPolicy policy = make_policy();
  obs::Registry reg;
  policy.attach_metrics(&reg);
  const OpKey a = OpKey::of(graph_.node(1));
  const OpKey b = OpKey::of(graph_.node(5));
  policy.record_interference(TenantOpKey{0, a}, {TenantOpKey{0, b}});
  EXPECT_EQ(policy.recorded_bad_pairs(), 1u);

  // Node 1 running: the bad-paired tiny op (pos 0) yields to the conv
  // behind it while that conv is admissible.
  const auto other =
      launch(policy, {5, 4}, 32, {running_view(1, 50.0)}, nullptr);
  ASSERT_TRUE(other.has_value());
  EXPECT_EQ(other->ready_pos, 1u);
  EXPECT_EQ(reg.counter("policy_badpair_overrides_total")->value(), 0u);

  // With nothing else ready, the pair co-runs rather than leave 32 cores
  // idle.
  const ReadyQueue ready{5};
  const auto d = launch(policy, ready, 32, {running_view(1, 50.0)}, nullptr);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->ready_pos, 0u);
  EXPECT_LE(d->candidate.threads, 32);
  EXPECT_EQ(reg.counter("policy_badpair_overrides_total")->value(), 1u);
  // Every other check still applies: a running op about to finish fails
  // the throughput guard, so the round waits.
  EXPECT_FALSE(
      launch(policy, ready, 32, {running_view(1, 1e-9)}, nullptr).has_value());

  // Overlays are scavengers and never ride on a recorded pair, whatever
  // the running op's remaining time.
  EXPECT_FALSE(
      overlay(policy, ready, 8, {running_view(1, 50.0)})
          .has_value());
  EXPECT_FALSE(overlay(policy, ready, 8, {running_view(1, 1e6)}).has_value());

  policy.reset_learning();
  EXPECT_EQ(policy.recorded_bad_pairs(), 0u);
  EXPECT_TRUE(overlay(policy, ready, 8, {running_view(1, 1e6)}).has_value());
}

TEST_F(AdmissionPolicyTest, ThroughputGuardRejectsOutlastingCandidates) {
  AdmissionPolicy policy = make_policy();
  // Ongoing work about to finish: no conv candidate can avoid outlasting
  // it, so the round waits.
  const auto d = launch(policy, {1, 2}, 68,
                                    {running_view(3, 1e-9)}, nullptr);
  EXPECT_FALSE(d.has_value());
}

TEST_F(AdmissionPolicyTest, EmptyMachineFallbackRunsTheHeaviestOp) {
  AdmissionPolicy policy = make_policy();
  // One idle core, machine empty: nothing fits, so the heaviest ready op
  // runs clamped to the idle width.
  const auto d = launch(policy, {5, 1}, 1, {}, nullptr);
  ASSERT_TRUE(d.has_value());
  EXPECT_LE(d->candidate.threads, 1);
  if (d->heavy_fallback) {
    // The conv (pos 1) is far heavier than the bias add (pos 0).
    EXPECT_EQ(d->ready_pos, 1u);
  }
}

TEST_F(AdmissionPolicyTest, OverlayPicksTheSmallestReadyOp) {
  AdmissionPolicy policy = make_policy();
  // Plenty of remaining time on the primary: the tiny bias add (node 4)
  // must be chosen over the convs.
  const auto d = overlay(policy, {1, 2, 5}, 4,
                                     {running_view(3, 1e6)});
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->ready_pos, 2u);
  EXPECT_LE(d->candidate.threads, 4);
}

// --- TenantSet: stable identities across tenant-set reconfigurations -----

TEST_F(AdmissionPolicyTest, TenantSetPreservesServiceAcrossReconfiguration) {
  AdmissionPolicy p = make_policy();

  TenantSet set;
  set.ids = {101, 202};
  p.configure_tenants(set);
  ReadyQueue ready{1, 2};
  const TenantReadyView view{&graph_, &ready};
  // Tenant slot 0 (id 101) wins the first empty-machine round and gets
  // charged.
  const auto d = launch_multi(p, {view, view}, 68, {}, nullptr);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->tenant, 0u);
  const double charged = p.service_of(101);
  EXPECT_GT(charged, 0.0);
  EXPECT_DOUBLE_EQ(p.service_of(202), 0.0);

  // Reconfigure: id 101 continues in a DIFFERENT slot, a new job joins.
  TenantSet next;
  next.ids = {303, 101};
  p.configure_tenants(next);
  EXPECT_DOUBLE_EQ(p.tenant_service(1), charged);   // slot 1 carries id 101
  EXPECT_DOUBLE_EQ(p.tenant_service(0), 0.0);       // fresh id 303
  // The deficit order therefore visits the newcomer first.
  const auto d2 = launch_multi(p, {view, view}, 68, {}, nullptr);
  ASSERT_TRUE(d2.has_value());
  EXPECT_EQ(d2->tenant, 0u);

  // preserve_service = false resets the carried deficit.
  TenantSet reset;
  reset.ids = {101};
  reset.preserve_service = false;
  p.configure_tenants(reset);
  EXPECT_DOUBLE_EQ(p.service_of(101), 0.0);
}

TEST_F(AdmissionPolicyTest, BadPairsFollowStableIdsAcrossSlots) {
  AdmissionPolicy p = make_policy();
  TenantSet set;
  set.ids = {7, 9};
  p.configure_tenants(set);
  // Slot 0 (id 7) interfered with slot 1 (id 9) on the conv pair.
  p.record_interference(TenantOpKey{0, OpKey::of(graph_.node(1))},
                        {TenantOpKey{1, OpKey::of(graph_.node(2))}});
  EXPECT_EQ(p.recorded_bad_pairs(), 1u);
  EXPECT_EQ(p.recorded_bad_pairs(7), 1u);  // keyed by stable id
  EXPECT_EQ(p.recorded_bad_pairs(0), 0u);  // not by slot

  // After swapping the two jobs' slots, the pair still binds: id 7's op 1
  // must not co-run with id 9's running op 2, whatever slot either holds.
  TenantSet swapped;
  swapped.ids = {9, 7};
  p.configure_tenants(swapped);
  RunningOpView running = running_view(2, 1e6);
  running.tenant = 0;  // slot 0 now hosts id 9
  const ReadyQueue none;
  const ReadyQueue conv{1};
  const std::vector<TenantReadyView> slot1_ready = {{&graph_, &none},
                                                    {&graph_, &conv}};
  EXPECT_FALSE(p.next_overlay_multi(slot1_ready, 8, {running}).has_value());
  // An unrelated third job in id 9's old slot is NOT penalised.
  TenantSet fresh;
  fresh.ids = {9, 55};
  p.configure_tenants(fresh);
  const auto d = p.next_overlay_multi(slot1_ready, 8, {running});
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->tenant, 1u);
}

TEST_F(AdmissionPolicyTest, RetireTenantDropsItsLearnedStateOnly) {
  AdmissionPolicy p = make_policy();
  TenantSet set;
  set.ids = {11, 22};
  p.configure_tenants(set);
  p.record_interference(TenantOpKey{0, OpKey::of(graph_.node(1))},
                        {TenantOpKey{1, OpKey::of(graph_.node(2))}});
  p.record_interference(TenantOpKey{1, OpKey::of(graph_.node(3))},
                        {TenantOpKey{1, OpKey::of(graph_.node(4))}});
  ReadyQueue ready{1};
  const TenantReadyView view{&graph_, &ready};
  (void)launch_multi(p, {view, view}, 68, {}, nullptr);
  ASSERT_EQ(p.recorded_bad_pairs(), 2u);
  ASSERT_GT(p.service_of(11), 0.0);

  p.retire_tenant(11);
  EXPECT_DOUBLE_EQ(p.service_of(11), 0.0);
  // Only the pair touching id 11 is gone; id 22's private pair survives.
  EXPECT_EQ(p.recorded_bad_pairs(), 1u);
  EXPECT_EQ(p.recorded_bad_pairs(11), 0u);
  EXPECT_EQ(p.recorded_bad_pairs(22), 1u);

  // The purge reaches the surviving endpoint's partner list too: a new job
  // that reuses id 11 never inherits the retired job's pair, so id 22's op
  // 2 may ride beside id 11's op 1 again.
  RunningOpView running = running_view(1, 1e6);
  running.tenant = 0;  // slot 0 hosts the new id 11
  const ReadyQueue none;
  const ReadyQueue conv{2};
  EXPECT_TRUE(p.next_overlay_multi({{&graph_, &none}, {&graph_, &conv}}, 8,
                                   {running})
                  .has_value());
}

TEST_F(AdmissionPolicyTest, TenantSetValidation) {
  AdmissionPolicy p = make_policy();
  TenantSet dup;
  dup.ids = {5, 5};
  EXPECT_THROW(p.configure_tenants(dup), std::invalid_argument);
  TenantSet mismatch;
  mismatch.ids = {1, 2};
  mismatch.weights = {1.0};
  EXPECT_THROW(p.configure_tenants(mismatch), std::invalid_argument);
}

TEST_F(AdmissionPolicyTest, SlotConfigureMatchesLegacyBehaviour) {
  // TenantSet::slots(count, weights) must behave exactly as the slot-indexed
  // populations did before stable ids: identity ids, per-call service reset.
  AdmissionPolicy p = make_policy();
  p.configure_tenants(TenantSet::slots(2, {1.0, 2.0}));
  ReadyQueue ready{1};
  const TenantReadyView view{&graph_, &ready};
  (void)launch_multi(p, {view, view}, 68, {}, nullptr);
  EXPECT_GT(p.tenant_service(0), 0.0);
  p.configure_tenants(TenantSet::slots(2, {1.0, 2.0}));
  EXPECT_DOUBLE_EQ(p.tenant_service(0), 0.0);  // reset, not preserved
  EXPECT_DOUBLE_EQ(p.tenant_service(1), 0.0);
}

TEST_F(AdmissionPolicyTest, OverlaySkipsBadPairedSmallestAndTakesNextSmallest) {
  AdmissionPolicy policy = make_policy();
  // The tiny bias add (node 5) is the smallest ready op, but it bad-pairs
  // with the running conv. The overlay round must skip it and admit the
  // next-smallest candidate (the conv at pos 0) instead of abandoning the
  // spare contexts entirely.
  policy.record_interference(TenantOpKey{0, OpKey::of(graph_.node(5))},
                             {TenantOpKey{0, OpKey::of(graph_.node(1))}});
  const auto d =
      overlay(policy, {2, 5, 3}, 4, {running_view(1, 1e6)});
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->ready_pos, 0u);
  EXPECT_LE(d->candidate.threads, 4);
}

TEST_F(AdmissionPolicyTest, LegacyCallAfterLargerConfigureDoesNotInheritIt) {
  AdmissionPolicy p = make_policy();
  TenantSet set;
  set.ids = {101, 202};
  set.weights = {1.0, 4.0};
  p.configure_tenants(set);
  ReadyQueue ready{1};
  const TenantReadyView view{&graph_, &ready};
  (void)launch_multi(p, {view, view}, 68, {}, nullptr);
  const double id101 = p.service_of(101);
  ASSERT_GT(id101, 0.0);

  // A legacy single-tenant pick (no configure call) must run against a
  // fresh identity population — before the ensure_tenants fix it inherited
  // the two-job configuration wholesale: job 101's deficit and weight, and
  // the slot 0 -> id 101 mapping, so this call's charge landed on job 101's
  // persistent ledger.
  const auto d = launch(p, {1}, 68, {}, nullptr);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(p.tenant_count(), 1u);
  EXPECT_GT(p.tenant_service(0), 0.0);
  EXPECT_DOUBLE_EQ(p.service_of(101), id101);  // job 101 untouched
}

TEST_F(AdmissionPolicyTest, NonPreservingReconfigureDropsOutgoingLedger) {
  AdmissionPolicy p = make_policy();
  ReadyQueue ready{1};
  const TenantReadyView view{&graph_, &ready};
  // Job churn with disjoint stable ids and preserve_service = false: before
  // the fix, a non-preserving reconfigure only erased the NEW population's
  // ids, so every id that ever accrued service leaked one retained-ledger
  // entry forever.
  for (std::size_t n = 1; n <= 8; ++n) {
    TenantSet set;
    set.ids = {100 + n};
    set.preserve_service = false;
    p.configure_tenants(set);
    (void)launch_multi(p, {view}, 68, {}, nullptr);
  }
  TenantSet last;
  last.ids = {999};
  last.preserve_service = false;
  p.configure_tenants(last);
  EXPECT_EQ(p.retained_tenants(), 0u);
}

// --- next_launch_batch: amortized decisions, same semantics ---------------

TEST_F(AdmissionPolicyTest, OpTokensInRunningViewsDoNotChangeDecisions) {
  // The dispatch loop hands each running op's arena token back in its view;
  // resolving the view by token must decide exactly as resolving it by key.
  AdmissionPolicy tokened = make_policy();
  AdmissionPolicy keyed = make_policy();
  ReadyQueue qa{1, 2, 3, 4, 5};
  ReadyQueue qb{1, 2, 3, 4, 5};
  const TenantReadyView va{&graph_, &qa};
  const TenantReadyView vb{&graph_, &qb};
  const std::vector<RunningOpView> by_key{running_view(1, 60.0)};
  const auto first = launch_multi(tokened, {va}, 68, {}, nullptr);
  ASSERT_TRUE(first.has_value());
  ASSERT_EQ(first->decision.ready_pos, 0u);  // node 1
  ASSERT_NE(first->decision.op_token, kNoOpToken);
  std::vector<RunningOpView> by_token = by_key;
  by_token[0].op_token = first->decision.op_token;  // node 1's arena id
  tokened.reset_learning();
  tokened.configure_tenants(TenantSet::slots(1));

  for (int round = 0; round < 5 && !qa.empty(); ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    std::vector<AdmissionStats> sa, sb;
    const auto batch = tokened.next_launch_batch({va}, 68, by_token, &sa, 1);
    const auto one = launch_multi(keyed, {vb}, 68, by_key, &sb);
    ASSERT_EQ(batch.size() == 1, one.has_value());
    if (batch.empty()) break;
    EXPECT_EQ(batch[0].decision.ready_pos, one->decision.ready_pos);
    EXPECT_EQ(batch[0].decision.candidate.threads,
              one->decision.candidate.threads);
    EXPECT_DOUBLE_EQ(batch[0].decision.candidate.time_ms,
                     one->decision.candidate.time_ms);
    ASSERT_EQ(sa.size(), sb.size());
    for (std::size_t t = 0; t < sa.size(); ++t) {
      EXPECT_EQ(sa[t].cache_hits, sb[t].cache_hits);
      EXPECT_EQ(sa[t].guard_fallbacks, sb[t].guard_fallbacks);
    }
    qa.erase(batch[0].decision.ready_pos);
    qb.erase(one->decision.ready_pos);
  }
  EXPECT_DOUBLE_EQ(tokened.tenant_service(0), keyed.tenant_service(0));
}

TEST_F(AdmissionPolicyTest, BatchAdmitsSeveralLaunchesAgainstOneSnapshot) {
  AdmissionPolicy p = make_policy();
  ReadyQueue ready{1, 2, 3, 4};
  const TenantReadyView view{&graph_, &ready};
  int idle = 68;
  const auto batch = p.next_launch_batch({view}, idle, {}, nullptr, 4);
  ASSERT_GE(batch.size(), 2u);  // identical convs co-run under the guard
  ASSERT_LE(batch.size(), 4u);
  // Positions are reported against the queue as the caller applies the
  // batch in order; every one must be in range at its application point,
  // and the widths must fit the idle pool they were promised.
  for (const auto& d : batch) {
    ASSERT_LT(d.decision.ready_pos, ready.size());
    ready.erase(d.decision.ready_pos);
    ASSERT_LE(d.decision.candidate.threads, idle);
    idle -= std::max(1, d.decision.candidate.threads);
  }
  EXPECT_GT(p.tenant_service(0), 0.0);
}

TEST_F(AdmissionPolicyTest, StrategyMaskDisablesCorunAndOverlay) {
  RuntimeOptions opt = runtime_.options();
  opt.strategies = kStrategyS12;
  AdmissionPolicy policy(runtime_.database(), opt, kKnlCores);
  // Serial mode: nothing launches while anything runs...
  EXPECT_FALSE(
      launch(policy, {1, 2}, 68, {running_view(3, 50.0)}).has_value());
  // ...and overlays are off entirely.
  EXPECT_FALSE(
      overlay(policy, {5}, 8, {running_view(3, 1e6)}).has_value());
  // With the machine empty the front op runs at its chosen width.
  const auto d = launch(policy, {1, 2}, 68, {}, nullptr);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->ready_pos, 0u);
}

// --- layout ops beside other jobs ------------------------------------------
// Node 0 is an InputConversion: a layout op the runtime cannot tune, whose
// only launch is the machine's default width (68 cores on KNL).

TEST_F(AdmissionPolicyTest, LayoutOpLaunchesCappedBesideAnotherSlot) {
  AdmissionPolicy p = make_policy();
  obs::Registry reg;
  p.attach_metrics(&reg);
  p.configure_tenants(TenantSet::slots(2));
  RunningOpView conv = running_view(1, 1e6);
  conv.tenant = 0;
  conv.threads = 28;
  const ReadyQueue none, layout{0};
  const auto d =
      launch_multi(p, {{&graph_, &none}, {&graph_, &layout}}, 40, {conv});
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->tenant, 1u);
  EXPECT_EQ(d->decision.candidate.threads, 40);
  EXPECT_TRUE(d->decision.layout_capped);
  EXPECT_FALSE(d->decision.heavy_fallback);
  EXPECT_EQ(reg.counter("policy_layout_corun_total")->value(), 1u);
}

TEST_F(AdmissionPolicyTest, LayoutOpWaitsForTheDrainBesideItsOwnSlot) {
  // One slot: the layout op waits until its own running op drains.
  AdmissionPolicy p = make_policy();
  RunningOpView conv = running_view(1, 1e6);
  conv.threads = 28;
  EXPECT_FALSE(launch(p, {0}, 40, {conv}).has_value());

  // Two slots, but the only cores held are the layout op's own slot's.
  p.configure_tenants(TenantSet::slots(2));
  conv.tenant = 1;
  const ReadyQueue none, layout{0};
  EXPECT_FALSE(
      launch_multi(p, {{&graph_, &none}, {&graph_, &layout}}, 40, {conv})
          .has_value());
  // On an empty machine it runs at its default width, as before.
  const auto d = launch(p, {0}, 68, {});
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->candidate.threads, 68);
  EXPECT_FALSE(d->layout_capped);
}

TEST_F(AdmissionPolicyTest, LatencyFloorNarrowsACappedLayoutOp) {
  // Slot 0 is latency-critical (floor 12), holds 2 cores and has a ready
  // layout op of its own that must wait (no other slot holds cores). Slot
  // 1's layout op runs beside slot 0, on the idle cores minus the
  // reservation: 40 - min(12 - 2, 39) = 30.
  const ReadyQueue layout0{0}, layout1{0};
  const std::vector<TenantReadyView> tenants = {{&graph_, &layout0},
                                                {&graph_, &layout1}};
  RunningOpView held = running_view(1, 1e6);
  held.tenant = 0;
  held.threads = 2;
  for (const int floor : {12, 0}) {
    AdmissionPolicy p = make_policy();
    TenantSet set = TenantSet::slots(2);
    set.floors = {floor, 0};
    p.configure_tenants(set);
    const auto d = launch_multi(p, tenants, 40, {held});
    ASSERT_TRUE(d.has_value()) << "floor " << floor;
    EXPECT_EQ(d->tenant, 1u);
    EXPECT_EQ(d->decision.candidate.threads, floor == 12 ? 30 : 40);
  }
}

TEST_F(AdmissionPolicyTest, CappedLayoutPickIsNeverReplayedFromTheCache) {
  AdmissionPolicy p = make_policy();
  p.configure_tenants(TenantSet::slots(2));
  const ReadyQueue none, layout{0};
  const std::vector<TenantReadyView> tenants = {{&graph_, &none},
                                                {&graph_, &layout}};
  RunningOpView conv = running_view(1, 1e6);
  conv.tenant = 0;
  conv.threads = 28;
  const std::size_t cached = p.decision_cache_entries();
  ASSERT_TRUE(launch_multi(p, tenants, 40, {conv}).has_value());
  // Capped picks stay out of the cache altogether.
  EXPECT_EQ(p.decision_cache_entries(), cached);

  // Same tenant, op and idle width, but the only running op is now the
  // layout op's own slot's: the capped pick must not come back.
  conv.tenant = 1;
  EXPECT_FALSE(launch_multi(p, tenants, 40, {conv}).has_value());
  EXPECT_EQ(p.decision_cache_entries(), cached);
}

// --- decisions: rebuilt when the walked graphs or the database change ------

TEST_F(AdmissionPolicyTest, ReplacedCurveChangesTheNextPickWidth) {
  AdmissionPolicy policy = make_policy();
  const auto before = launch(policy, {1}, 68, {});
  ASSERT_TRUE(before.has_value());
  // Same graphs, new curve for the walked conv: its only cheap width is
  // one the first pick did not use.
  const int width = before->candidate.threads == 8 ? 12 : 8;
  ProfileCurve curve;
  curve.add_sample(AffinityMode::kSpread, width, 1.0);
  curve.add_sample(AffinityMode::kSpread, width + 16, 5.0);
  runtime_.database().put(OpKey::of(graph_.node(1)), curve);
  const auto after = launch(policy, {1}, 68, {});
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->candidate.threads, width);
}

class DecisionRebuildTest : public AdmissionPolicyTest {
 protected:
  DecisionRebuildTest() : heavy_(heavy_graph()) {
    // Everything profiled up front: the database stays at one version.
    runtime_.profile(heavy_);
  }

  /// Serial mode (Strategies 1-2): a pick is the op's S1/S2 choice.
  AdmissionPolicy serial_policy() const {
    RuntimeOptions opt = runtime_.options();
    opt.strategies = kStrategyS12;
    return AdmissionPolicy(runtime_.database(), opt, kKnlCores);
  }

  /// Slot 0's pick for its conv (node 1) with the other slots idle.
  static Candidate conv_pick(AdmissionPolicy& p,
                             const std::vector<const Graph*>& graphs) {
    const ReadyQueue conv{1}, none;
    std::vector<TenantReadyView> tenants{{graphs[0], &conv}};
    for (std::size_t t = 1; t < graphs.size(); ++t)
      tenants.push_back({graphs[t], &none});
    const auto d = launch_multi(p, tenants, 68, {});
    EXPECT_TRUE(d.has_value());
    return d.has_value() ? d->decision.candidate : Candidate{};
  }

  Graph heavy_;
};

TEST_F(DecisionRebuildTest, WalkingBackToAGraphListRestoresItsPicks) {
  AdmissionPolicy fresh = serial_policy();
  const Candidate want = conv_pick(fresh, {&graph_});

  AdmissionPolicy walked = serial_policy();
  (void)conv_pick(walked, {&graph_});
  // Co-located with the heavy conv, Strategy 2 consolidates the kind onto
  // the heavy instance's width.
  const Candidate union_pick = conv_pick(walked, {&graph_, &heavy_});
  ASSERT_NE(union_pick.threads, want.threads);
  const Candidate got = conv_pick(walked, {&graph_});
  EXPECT_EQ(got.threads, want.threads);
  EXPECT_EQ(got.mode, want.mode);
  EXPECT_DOUBLE_EQ(got.time_ms, want.time_ms);
}

TEST_F(DecisionRebuildTest, NewGraphAtTheSameAddressGetsItsOwnDecisions) {
  AdmissionPolicy fresh = serial_policy();
  const Candidate want = conv_pick(fresh, {&heavy_});

  AdmissionPolicy policy = serial_policy();
  Graph g = graph_;
  const Candidate light = conv_pick(policy, {&g});
  ASSERT_NE(light.threads, want.threads);
  g = heavy_;  // new contents, same address
  const Candidate got = conv_pick(policy, {&g});
  EXPECT_EQ(got.threads, want.threads);
  EXPECT_DOUBLE_EQ(got.time_ms, want.time_ms);
}

}  // namespace
}  // namespace opsched
