// HostCorunExecutor + HostGraphProgram: the native execution path.
//  - numerical equivalence: a scheduled (parallel, co-run) step's outputs
//    match a fully serial reference execution bit-for-bit;
//  - determinism: the step checksum is identical across repeated runs and
//    across scheduling policies;
//  - structure: every op runs exactly once, co-runs actually happen, and
//    the trace is well formed.
#include "core/host_corun.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <utility>

#include "core/runtime.hpp"
#include "models/models.hpp"
#include "ops/reference.hpp"

namespace opsched {
namespace {

/// The default width a KNL Runtime gives its policies: the machine's cores.
const int kKnlCores = static_cast<int>(MachineSpec::knl().num_cores);

/// One adaptive step of `program` alone: the N=1 case of run_step_multi.
StepResult solo_step(HostCorunExecutor& exec, HostGraphProgram& program) {
  return std::move(
      exec.run_step_multi({&program}, TenantSet::slots(1)).front());
}

class HostCorunTest : public ::testing::Test {
 protected:
  /// Host-profiled runtime over the given program's graph.
  std::unique_ptr<Runtime> make_runtime(HostGraphProgram& program,
                                        unsigned strategies = kStrategyAll) {
    RuntimeOptions opt;
    opt.strategies = strategies;
    auto rt = std::make_unique<Runtime>(MachineSpec::knl(), opt);
    rt->profile_host(program, /*repeats=*/1);
    return rt;
  }
};

TEST_F(HostCorunTest, RunsEveryOpOnceWithWellFormedTrace) {
  const Graph g = build_mnist_host(4);
  HostGraphProgram program(g);
  auto rt = make_runtime(program);
  const StepResult r = rt->run_step_host(program);
  EXPECT_EQ(r.ops_run, g.size());
  EXPECT_EQ(r.trace.size(), 2 * g.size());
  EXPECT_GT(r.time_ms, 0.0);
  EXPECT_TRUE(std::isfinite(r.checksum));
  EXPECT_NE(r.checksum, 0.0);
}

TEST_F(HostCorunTest, WideLayersCoRunOnAMultiCoreMap) {
  // Single-core CI hosts cannot co-run for real, so schedule over a
  // virtual 4-core map: widths stay the controller's, concurrency is OS
  // timeslicing, and the scheduling structure (what this test pins) is
  // exactly what a 4-core host would produce.
  const Graph g = build_mnist_host(4);
  HostGraphProgram program(g);
  auto rt = make_runtime(program);
  TeamPool pool(4);
  HostCorunOptions host;
  host.cores = 4;
  HostCorunExecutor exec(rt->database(), kKnlCores, pool, rt->options(), host);
  const StepResult r = solo_step(exec, program);
  EXPECT_EQ(r.ops_run, g.size());
  // The wide backward layers of the CNN must actually co-run.
  EXPECT_GT(r.corun_launches, 0u);
  EXPECT_GT(r.trace.max_corun(), 1);
  EXPECT_GT(exec.calibration(), 0.0);
}

TEST_F(HostCorunTest, ScheduledStepMatchesSerialReferenceBitForBit) {
  const Graph g = build_mnist_host(4);
  HostGraphProgram scheduled(g);
  HostGraphProgram serial(g);  // same seed -> identical inputs

  auto rt = make_runtime(scheduled);
  (void)rt->run_step_host(scheduled);
  for (const Node& node : g.nodes()) serial.run_node_reference(node.id);

  for (const Node& node : g.nodes()) {
    const Tensor& a = scheduled.output(node.id);
    const Tensor& b = serial.output(node.id);
    ASSERT_EQ(a.size(), b.size()) << node.label;
    EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(float)))
        << "node " << node.id << " (" << node.label << ", binding "
        << host_binding_name(scheduled.binding(node.id))
        << ") diverged from the serial reference";
  }
  EXPECT_DOUBLE_EQ(scheduled.step_checksum(), serial.step_checksum());
}

TEST_F(HostCorunTest, ChecksumDeterministicAcrossRunsAndPolicies) {
  const Graph g = build_mnist_host(4);
  HostGraphProgram program(g);
  auto rt = make_runtime(program);
  const StepResult adaptive1 = rt->run_step_host(program);
  const StepResult adaptive2 = rt->run_step_host(program);
  const StepResult fifo = rt->run_step_host_fifo(program, 2, 2);
  const StepResult reco = rt->run_step_host_recommendation(program);
  // Scheduling order and widths vary run to run (real timing); the outputs
  // must not.
  EXPECT_DOUBLE_EQ(adaptive1.checksum, adaptive2.checksum);
  EXPECT_DOUBLE_EQ(adaptive1.checksum, fifo.checksum);
  EXPECT_DOUBLE_EQ(adaptive1.checksum, reco.checksum);
}

TEST_F(HostCorunTest, SerialStrategiesExecuteOneOpAtATime) {
  const Graph g = build_mnist_host(2);
  HostGraphProgram program(g);
  auto rt = make_runtime(program, kStrategyS12);
  const StepResult r = rt->run_step_host(program);
  EXPECT_EQ(r.ops_run, g.size());
  EXPECT_EQ(r.corun_launches, 0u);
  EXPECT_EQ(r.overlay_launches, 0u);
  EXPECT_LE(r.trace.max_corun(), 1);
}

TEST_F(HostCorunTest, FifoBaselineRunsEveryOpAndRespectsInterOp) {
  const Graph g = build_mnist_host(2);
  HostGraphProgram program(g);
  auto rt = make_runtime(program);
  const StepResult r = rt->run_step_host_fifo(program, 2, 2);
  EXPECT_EQ(r.ops_run, g.size());
  EXPECT_LE(r.trace.max_corun(), 2);
}

TEST_F(HostCorunTest, DispatchBatchWidthsProduceBitIdenticalChecksums) {
  // Satellite of the hot-path rebuild: taking up to k admission decisions
  // per dispatcher wake (next_launch_batch) only reorders launches, and no
  // scheduling order may affect outputs. Pin k = 1 (the historical
  // decision-per-wake loop) and k = 4 against the serial reference.
  const Graph g = build_mnist_host(4);
  HostGraphProgram program(g);
  auto rt = make_runtime(program);

  HostGraphProgram serial(g);  // same seed -> identical inputs
  for (const Node& node : g.nodes()) serial.run_node_reference(node.id);
  const double ref = serial.step_checksum();

  TeamPool pool(4);
  for (const std::size_t k : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("decision_batch " + std::to_string(k));
    HostCorunOptions host;
    host.cores = 4;
    host.decision_batch = k;
    HostCorunExecutor exec(rt->database(), kKnlCores, pool,
                           rt->options(), host);
    const StepResult r = solo_step(exec, program);
    EXPECT_EQ(r.ops_run, g.size());
    EXPECT_DOUBLE_EQ(r.checksum, ref);
    // The dispatcher's own decision time is measured and sane.
    EXPECT_GE(r.sched_ms, 0.0);
    EXPECT_LT(r.sched_ms, r.time_ms);
  }
}

TEST_F(HostCorunTest, ExactBindingsCoverSchedulableKinds) {
  const Graph g = build_mnist_host(4);
  HostGraphProgram program(g);
  // The MNIST host model is sized so the schedulable (conv/matmul/pool/
  // bias/relu/adam/xent) nodes all bind to exact kernels; only layout-ish
  // kinds (ToTf, Split, MaxPoolGrad, AvgPoolGrad) may fall back.
  for (const Node& node : g.nodes()) {
    switch (node.kind) {
      case OpKind::kConv2D:
      case OpKind::kConv2DBackpropFilter:
      case OpKind::kConv2DBackpropInput:
      case OpKind::kMatMul:
      case OpKind::kMatMulGrad:
      case OpKind::kMaxPool:
      case OpKind::kBiasAdd:
      case OpKind::kBiasAddGrad:
      case OpKind::kRelu:
      case OpKind::kReluGrad:
      case OpKind::kApplyAdam:
      case OpKind::kSparseSoftmaxCrossEntropy:
      case OpKind::kAddN:
        EXPECT_NE(program.binding(node.id), HostBinding::kSurrogate)
            << node.label;
        break;
      default:
        break;
    }
  }
  EXPECT_GT(program.exact_bindings(), g.size() / 2);
}

TEST_F(HostCorunTest, ParallelKernelOutputsAreWidthIndependent) {
  // The determinism story rests on this invariant; pin it directly on a
  // conv node at several team widths.
  const Graph g = build_mnist_host(2);
  HostGraphProgram p1(g), p2(g);
  ThreadTeam t1(1), t4(4);
  for (const Node& node : g.nodes()) {
    p1.run_node(node.id, t1);
    p2.run_node(node.id, t4);
    const Tensor& a = p1.output(node.id);
    const Tensor& b = p2.output(node.id);
    ASSERT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(float)))
        << node.label << " differs between width 1 and 4";
  }
}

}  // namespace
}  // namespace opsched
