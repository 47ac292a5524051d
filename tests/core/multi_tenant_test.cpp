// Multi-tenant co-run: N independent training graphs scheduled CO-LOCATED
// on one machine (host executor and simulator alike) through the shared
// AdmissionPolicy's weighted-deficit walk.
//  - isolation: each tenant's step checksum equals its solo serial
//    reference bit-for-bit, co-scheduling notwithstanding;
//  - interleaving: tenants' ops genuinely co-run on a multi-core map;
//  - fairness: the weighted deficit grants a weight-w tenant ~w times the
//    contended-core share, deterministically on the simulator;
//  - accounting: per-tenant StepResults carry ops_run/trace/service_ms.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/runtime.hpp"
#include "models/models.hpp"

namespace opsched {
namespace {

/// The default width a KNL Runtime gives its policies: the machine's cores.
const int kKnlCores = static_cast<int>(MachineSpec::knl().num_cores);

/// One admission decision over `tenants` (the batch-of-one walk).
std::optional<MultiAdmissionDecision> launch_one(
    AdmissionPolicy& p, const std::vector<TenantReadyView>& tenants, int idle,
    const std::vector<RunningOpView>& running) {
  const auto batch = p.next_launch_batch(tenants, idle, running, nullptr, 1);
  if (batch.empty()) return std::nullopt;
  return batch.front();
}

double reference_checksum(const Graph& g, std::size_t tenant) {
  HostGraphProgram ref(g, 0x5eedULL, tenant);
  for (const Node& node : g.nodes()) ref.run_node_reference(node.id);
  return ref.step_checksum();
}

TEST(MultiTenantHostTest, TwoModelsKeepSoloChecksumsWhileCoLocated) {
  const Graph ga = build_mnist_host(2);
  const Graph gb = build_toy_cnn(2);
  HostGraphProgram pa(ga, 0x5eedULL, /*tenant=*/0);
  HostGraphProgram pb(gb, 0x5eedULL, /*tenant=*/1);

  Runtime rt(MachineSpec::knl());
  const ProfilingReport prof = rt.profile_host_multi({&pa, &pb}, 1);
  EXPECT_GT(prof.unique_ops, 0u);

  const std::vector<StepResult> r =
      rt.run_step_multi_host({&pa, &pb}, TenantSet::slots(2));
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0].ops_run, ga.size());
  EXPECT_EQ(r[1].ops_run, gb.size());
  EXPECT_EQ(r[0].trace.size(), 2 * ga.size());
  EXPECT_EQ(r[1].trace.size(), 2 * gb.size());
  EXPECT_GT(r[0].service_ms, 0.0);
  EXPECT_GT(r[1].service_ms, 0.0);
  EXPECT_DOUBLE_EQ(r[0].checksum, reference_checksum(ga, 0));
  EXPECT_DOUBLE_EQ(r[1].checksum, reference_checksum(gb, 1));

  // Co-located steps are repeatable: scheduling orders may differ run to
  // run (real timing), outputs may not.
  const std::vector<StepResult> again =
      rt.run_step_multi_host({&pa, &pb}, TenantSet::slots(2));
  EXPECT_DOUBLE_EQ(again[0].checksum, r[0].checksum);
  EXPECT_DOUBLE_EQ(again[1].checksum, r[1].checksum);
}

TEST(MultiTenantHostTest, TenantsInterleaveOnAMultiCoreMap) {
  // Virtual 4-core map (single-core CI hosts cannot co-run for real): the
  // scheduling structure is what a 4-core host would produce; concurrency
  // is OS timeslicing.
  const Graph ga = build_mnist_host(2);
  const Graph gb = build_mnist_host(2);
  HostGraphProgram pa(ga, 0x5eedULL, 0);
  HostGraphProgram pb(gb, 0x5eedULL, 1);
  Runtime rt(MachineSpec::knl());
  rt.profile_host_multi({&pa, &pb}, 1);

  TeamPool pool(4);
  HostCorunOptions host;
  host.cores = 4;
  HostCorunExecutor exec(rt.database(), kKnlCores, pool, rt.options(), host);
  const std::vector<StepResult> r =
      exec.run_step_multi({&pa, &pb}, TenantSet::slots(2));
  ASSERT_EQ(r.size(), 2u);
  // Two whole training jobs on four cores: ops must co-run.
  EXPECT_GT(r[0].corun_launches + r[1].corun_launches, 0u);
  EXPECT_GT(std::max(r[0].trace.max_corun(), r[1].trace.max_corun()), 1);
  // Same-model tenants still own distinct tensors (tenant namespace).
  EXPECT_NE(r[0].checksum, r[1].checksum);
  EXPECT_DOUBLE_EQ(r[0].checksum, reference_checksum(ga, 0));
  EXPECT_DOUBLE_EQ(r[1].checksum, reference_checksum(gb, 1));
}

TEST(MultiTenantSimTest, CoLocatedStepIsDeterministicPerTenant) {
  const Graph ga = build_dcgan(8);
  const Graph gb = build_lstm(4, 8, 64, 400);
  Runtime rt(MachineSpec::knl());
  rt.profile_multi({&ga, &gb});

  const std::vector<StepResult> r1 =
      rt.run_step_multi({&ga, &gb}, TenantSet::slots(2));
  ASSERT_EQ(r1.size(), 2u);
  EXPECT_EQ(r1[0].ops_run, ga.size());
  EXPECT_EQ(r1[1].ops_run, gb.size());
  EXPECT_GT(r1[0].time_ms, 0.0);
  EXPECT_GT(r1[1].time_ms, 0.0);
  EXPECT_GT(r1[0].service_ms, 0.0);

  // Virtual time: bit-identical across runs (the scheduler and machine are
  // deterministic; learned state may shift decisions BETWEEN steps, so
  // compare a fresh runtime instead of a second step).
  Runtime rt2(MachineSpec::knl());
  rt2.profile_multi({&ga, &gb});
  const std::vector<StepResult> r2 =
      rt2.run_step_multi({&ga, &gb}, TenantSet::slots(2));
  EXPECT_DOUBLE_EQ(r1[0].time_ms, r2[0].time_ms);
  EXPECT_DOUBLE_EQ(r1[1].time_ms, r2[1].time_ms);
  EXPECT_EQ(r1[0].ops_run + r1[1].ops_run, r2[0].ops_run + r2[1].ops_run);
}

TEST(MultiTenantSimTest, SingleTenantMultiMatchesRunStep) {
  // run_step is the N=1 case of run_step_multi: same graph, fresh runtimes,
  // identical virtual step time.
  const Graph g = build_dcgan(8);
  Runtime a(MachineSpec::knl());
  a.profile(g);
  const StepResult single = a.run_step(g);

  Runtime b(MachineSpec::knl());
  b.profile(g);
  const std::vector<StepResult> multi =
      b.run_step_multi({&g}, TenantSet::slots(1));
  ASSERT_EQ(multi.size(), 1u);
  EXPECT_DOUBLE_EQ(single.time_ms, multi[0].time_ms);
  EXPECT_EQ(single.ops_run, multi[0].ops_run);
  EXPECT_EQ(single.corun_launches, multi[0].corun_launches);
}

TEST(MultiTenantPolicyTest, WeightedDeficitGrantsProportionalShares) {
  // Two tenants with weights 1 and 4 racing identical ready queues on an
  // empty machine: every round admits the least-served tenant's op, so the
  // pick counts must approach the 1:4 weight ratio.
  const Graph g = build_dcgan(8);
  Runtime rt(MachineSpec::knl());
  rt.profile(g);
  AdmissionPolicy policy(rt.database(), rt.options(), kKnlCores);
  policy.configure_tenants(TenantSet::slots(2, {1.0, 4.0}));

  // Long identical queues of one repeated (deterministic) op.
  const std::vector<NodeId> topo = g.topo_order();
  ReadyQueue qa(40, topo.back()), qb(40, topo.back());
  const std::vector<TenantReadyView> tenants = {{&g, &qa}, {&g, &qb}};

  std::size_t picks[2] = {0, 0};
  for (int round = 0; round < 30; ++round) {
    const auto d = launch_one(policy, tenants, 68, {});
    ASSERT_TRUE(d.has_value());
    ++picks[d->tenant];
  }
  // Exact proportionality on identical costs: 6 vs 24 of 30.
  EXPECT_GE(picks[1], 3 * picks[0]);
  EXPECT_GT(picks[0], 0u);  // ...but the light tenant is never starved.
  EXPECT_GT(policy.tenant_service(0), 0.0);
  // Normalized service converges: the two ledgers stay within ~one op's
  // normalized cost of each other even though tenant 1 ran ~4x the work.
  const double per_pick =
      policy.tenant_service(0) / static_cast<double>(picks[0]);
  EXPECT_LT(std::abs(policy.tenant_service(0) - policy.tenant_service(1)),
            2.0 * per_pick);
}

TEST(MultiTenantPolicyTest, PerTenantInterferenceRecordsAreIndependent) {
  const Graph g = build_dcgan(8);
  Runtime rt(MachineSpec::knl());
  rt.profile(g);
  AdmissionPolicy policy(rt.database(), rt.options(), kKnlCores);
  policy.configure_tenants(TenantSet::slots(2));

  const OpKey a = OpKey::of(g.node(1));
  const OpKey b = OpKey::of(g.node(2));
  // Tenant 0 learns (a, b) is a bad pair; tenant 1 did not.
  policy.record_interference(TenantOpKey{0, a}, {TenantOpKey{0, b}});
  EXPECT_EQ(policy.recorded_bad_pairs(), 1u);
  EXPECT_EQ(policy.recorded_bad_pairs(0), 1u);
  EXPECT_EQ(policy.recorded_bad_pairs(1), 0u);

  // Observed through the picks: the queues hold op a (node 1) while op b
  // runs for `owner` with ample remaining time, so only the record can
  // turn a candidate away.
  const ReadyQueue with_a{1};
  const ReadyQueue none;
  const auto overlay = [&](const ReadyQueue& q0, const ReadyQueue& q1,
                           std::size_t owner) {
    const RunningOpView running{b, 1e9, owner};
    return policy.next_overlay_multi({{&g, &q0}, {&g, &q1}}, 4, {running});
  };
  // The pair only blocks when BOTH endpoints are tenant 0's.
  EXPECT_FALSE(overlay(with_a, none, 0).has_value());
  EXPECT_TRUE(overlay(with_a, none, 1).has_value());
  EXPECT_TRUE(overlay(none, with_a, 0).has_value());
  // Both tenants hold op a beside tenant 0's b: the pair skips the op for
  // tenant 0 only, in the overlay and the launch walk alike.
  const auto both = overlay(with_a, with_a, 0);
  ASSERT_TRUE(both.has_value());
  EXPECT_EQ(both->tenant, 1u);
  const auto launched =
      launch_one(policy, {{&g, &with_a}, {&g, &with_a}}, 60,
                 {RunningOpView{b, 1e9, /*tenant=*/0}});
  ASSERT_TRUE(launched.has_value());
  EXPECT_EQ(launched->tenant, 1u);

  // Cross-tenant pairs are representable too.
  policy.record_interference(TenantOpKey{1, a}, {TenantOpKey{0, b}});
  EXPECT_FALSE(overlay(none, with_a, 0).has_value());
  EXPECT_EQ(policy.recorded_bad_pairs(), 2u);
}

}  // namespace
}  // namespace opsched
