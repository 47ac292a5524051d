// Property test over the seeded random-DAG generator: the PR-3 determinism
// contract — scheduling may NEVER change numerics — must hold not just for
// the hand-built models but for adversarial graph shapes. For every fuzzed
// graph, the step checksum of every scheduling policy (adaptive Strategies
// 1-4, FIFO, recommendation) at every core-map width must be bit-identical
// to a fully serial reference execution; and co-locating fuzzed graphs as
// tenants must leave each tenant's checksum equal to its solo reference.
#include "testing/graph_fuzz.hpp"

#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "core/runtime.hpp"
#include "models/zoo.hpp"
#include "ops/host_program.hpp"

namespace opsched {
namespace {

/// The default width a KNL Runtime gives its policies: the machine's cores.
const int kKnlCores = static_cast<int>(MachineSpec::knl().num_cores);

/// One adaptive step of `program` alone: the N=1 case of run_step_multi.
StepResult solo_step(HostCorunExecutor& exec, HostGraphProgram& program) {
  return std::move(
      exec.run_step_multi({&program}, TenantSet::slots(1)).front());
}

/// Serial-reference checksum of `g` under the given tenant namespace.
double reference_checksum(const Graph& g, std::size_t tenant = 0) {
  HostGraphProgram ref(g, /*seed=*/0x5eedULL, tenant);
  for (const Node& node : g.nodes()) ref.run_node_reference(node.id);
  return ref.step_checksum();
}

TEST(GraphFuzzTest, GeneratorIsDeterministicAndStructurallyValid) {
  std::set<std::uint64_t> fingerprints;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    const Graph a = testing::fuzz_graph(seed);
    const Graph b = testing::fuzz_graph(seed);
    ASSERT_EQ(a.size(), b.size());
    ASSERT_GE(a.size(), 5u);
    std::uint64_t fp = a.size();
    for (const Node& n : a.nodes()) {
      const Node& m = b.node(n.id);
      ASSERT_EQ(n.kind, m.kind);
      ASSERT_EQ(n.output_shape, m.output_shape);
      ASSERT_GT(n.output_shape.elements(), 0) << n.label;
      for (NodeId in : n.inputs) ASSERT_LT(in, n.id);  // ids are topological
      fp = fp * 1099511628211ULL + n.output_shape.hash() +
           static_cast<std::uint64_t>(n.kind);
    }
    fingerprints.insert(fp);
    EXPECT_NO_THROW(a.topo_order());
  }
  // Distinct seeds must explore distinct structures, not one graph 64x.
  EXPECT_GT(fingerprints.size(), 32u);
}

TEST(GraphFuzzTest, ChecksumsIdenticalAcrossPoliciesAndWidthsOn50Graphs) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Graph g = testing::fuzz_graph(seed);
    const double ref = reference_checksum(g);

    HostGraphProgram program(g);
    Runtime rt(MachineSpec::knl());
    rt.profile_host(program, /*repeats=*/1);

    // Adaptive executor over virtual core maps of several widths: widths
    // and interleavings differ per map (and per run — real timing), the
    // checksum must not.
    TeamPool pool(4);
    for (const std::size_t cores : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
      HostCorunOptions host;
      host.cores = cores;
      HostCorunExecutor exec(rt.database(), kKnlCores, pool,
                             rt.options(), host);
      const StepResult r = solo_step(exec, program);
      EXPECT_EQ(r.ops_run, g.size());
      EXPECT_DOUBLE_EQ(r.checksum, ref) << "adaptive, " << cores << " cores";
    }

    // Baseline policies on the widest map.
    HostCorunOptions host;
    host.cores = 4;
    HostCorunExecutor exec(rt.database(), kKnlCores, pool, rt.options(), host);
    EXPECT_DOUBLE_EQ(exec.run_step_fifo(program, 2, 2).checksum, ref)
        << "fifo";
    // The recommendation baseline: inter-op 1, intra-op all cores.
    const int all = static_cast<int>(exec.cores());
    EXPECT_DOUBLE_EQ(exec.run_step_fifo(program, 1, all).checksum, ref)
        << "recommendation";
  }
}

TEST(GraphFuzzTest, ChecksumsIdenticalAcrossDecisionBatchWidths) {
  // Dispatch batching (k admission decisions per dispatcher wake) changes
  // launch interleaving, never outputs: k = 1 reproduces the historical
  // decision-per-wake loop, k = 4 the batched hot path, and both must match
  // the serial reference bit for bit on every fuzzed structure.
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Graph g = testing::fuzz_graph(seed);
    const double ref = reference_checksum(g);

    HostGraphProgram program(g);
    Runtime rt(MachineSpec::knl());
    rt.profile_host(program, /*repeats=*/1);

    TeamPool pool(4);
    for (const std::size_t k : {std::size_t{1}, std::size_t{4}}) {
      HostCorunOptions host;
      host.cores = 4;
      host.decision_batch = k;
      HostCorunExecutor exec(rt.database(), kKnlCores, pool,
                             rt.options(), host);
      const StepResult r = solo_step(exec, program);
      EXPECT_EQ(r.ops_run, g.size());
      EXPECT_DOUBLE_EQ(r.checksum, ref) << "decision_batch " << k;
    }
  }
}

TEST(GraphFuzzTest, CoLocatedFuzzTenantsKeepTheirSoloChecksums) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Graph ga = testing::fuzz_graph(seed);
    const Graph gb = testing::fuzz_graph(seed + 1000);

    HostGraphProgram pa(ga, 0x5eedULL, /*tenant=*/0);
    HostGraphProgram pb(gb, 0x5eedULL, /*tenant=*/1);
    Runtime rt(MachineSpec::knl());
    rt.profile_host_multi({&pa, &pb}, /*repeats=*/1);

    TeamPool pool(4);
    HostCorunOptions host;
    host.cores = 4;
    HostCorunExecutor exec(rt.database(), kKnlCores, pool, rt.options(), host);
    const std::vector<StepResult> r =
        exec.run_step_multi({&pa, &pb}, TenantSet::slots(2));
    ASSERT_EQ(r.size(), 2u);
    EXPECT_EQ(r[0].ops_run, ga.size());
    EXPECT_EQ(r[1].ops_run, gb.size());
    EXPECT_DOUBLE_EQ(r[0].checksum, reference_checksum(ga, 0));
    EXPECT_DOUBLE_EQ(r[1].checksum, reference_checksum(gb, 1));
  }
}

TEST(GraphFuzzTest, ZooModelsMatchSerialReferenceAcrossPoliciesAndWidths) {
  // The deep-model zoo covers the structured axes the random generator
  // does not: 150+-layer chains, residual skip joins, inception fan-out —
  // at 700-2200 nodes, an order of magnitude above the fuzzed graphs. The
  // same contract applies: no policy, width or interleaving may perturb
  // the step checksum.
  for (const models::ZooEntry& e : models::zoo()) {
    SCOPED_TRACE(e.name);
    const Graph g = e.build(e.default_batch);
    const double ref = reference_checksum(g);

    HostGraphProgram program(g);
    Runtime rt(MachineSpec::knl());
    rt.profile_host(program, /*repeats=*/1);

    TeamPool pool(4);
    for (const std::size_t cores : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
      HostCorunOptions host;
      host.cores = cores;
      HostCorunExecutor exec(rt.database(), kKnlCores, pool,
                             rt.options(), host);
      const StepResult r = solo_step(exec, program);
      EXPECT_EQ(r.ops_run, g.size());
      EXPECT_DOUBLE_EQ(r.checksum, ref) << "adaptive, " << cores << " cores";
    }

    HostCorunOptions host;
    host.cores = 4;
    HostCorunExecutor exec(rt.database(), kKnlCores, pool, rt.options(), host);
    EXPECT_DOUBLE_EQ(exec.run_step_fifo(program, 2, 2).checksum, ref)
        << "fifo";
    // The recommendation baseline: inter-op 1, intra-op all cores.
    const int all = static_cast<int>(exec.cores());
    EXPECT_DOUBLE_EQ(exec.run_step_fifo(program, 1, all).checksum, ref)
        << "recommendation";
  }
}

TEST(GraphFuzzTest, CoLocatedZooTenantsKeepTheirSoloChecksums) {
  // ResNet-152 (deep chain) co-located with Inception-ResNet (wide
  // fan-out): each tenant's training step must equal its solo
  // tenant-namespaced serial reference bit for bit.
  const Graph ga = models::build_resnet152_host();
  const Graph gb = models::build_incep_resnet_host();
  // Scope the reference programs so only two live at a time.
  const double ref_a = reference_checksum(ga, 0);
  const double ref_b = reference_checksum(gb, 1);

  HostGraphProgram pa(ga, 0x5eedULL, /*tenant=*/0);
  HostGraphProgram pb(gb, 0x5eedULL, /*tenant=*/1);
  Runtime rt(MachineSpec::knl());
  rt.profile_host_multi({&pa, &pb}, /*repeats=*/1);

  TeamPool pool(4);
  HostCorunOptions host;
  host.cores = 4;
  HostCorunExecutor exec(rt.database(), kKnlCores, pool, rt.options(), host);
  const std::vector<StepResult> r =
      exec.run_step_multi({&pa, &pb}, TenantSet::slots(2));
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0].ops_run, ga.size());
  EXPECT_EQ(r[1].ops_run, gb.size());
  EXPECT_DOUBLE_EQ(r[0].checksum, ref_a);
  EXPECT_DOUBLE_EQ(r[1].checksum, ref_b);
}

TEST(GraphFuzzTest, TenantNamespaceSeparatesIdenticalGraphs) {
  const Graph g = testing::fuzz_graph(7);
  // Same graph, same seed, different tenants: distinct tensor values, so a
  // cross-tenant mixup would surface as a checksum collision/mismatch.
  EXPECT_NE(reference_checksum(g, 0), reference_checksum(g, 1));
  // Same tenant id reproduces the same values.
  EXPECT_DOUBLE_EQ(reference_checksum(g, 1), reference_checksum(g, 1));
}

}  // namespace
}  // namespace opsched
