// ConcurrencyController: Strategies 1 & 2 semantics.
#include "core/concurrency_controller.hpp"

#include <gtest/gtest.h>

#include "core/runtime.hpp"
#include "graph/builder.hpp"
#include "models/models.hpp"
#include "models/op_factory.hpp"

namespace opsched {
namespace {

/// Small graph with two instances of one kind at different shapes plus a
/// non-tunable layout op.
Graph two_instance_graph() {
  GraphBuilder gb;
  const NodeId src =
      gb.source(OpKind::kInputConversion, "in", TensorShape{32, 8, 8, 384});
  gb.op(OpKind::kConv2DBackpropFilter, "small", {src},
        TensorShape{32, 8, 8, 384}, TensorShape{3, 3, 384, 384},
        TensorShape{3, 3, 384, 384});
  gb.op(OpKind::kConv2DBackpropFilter, "large", {src},
        TensorShape{32, 8, 8, 2048}, TensorShape{3, 3, 2048, 512},
        TensorShape{3, 3, 2048, 512});
  return gb.take();
}

class ControllerTest : public ::testing::Test {
 protected:
  Runtime make_runtime(unsigned strategies) {
    RuntimeOptions opt;
    opt.strategies = strategies;
    return Runtime(MachineSpec::knl(), opt);
  }
};

TEST_F(ControllerTest, Strategy1PerInstanceWidths) {
  Runtime rt = make_runtime(kStrategy1);  // S1 without S2
  const Graph g = two_instance_graph();
  rt.profile(g);
  const Candidate small = rt.controller().choice_for(g.node(1));
  const Candidate large = rt.controller().choice_for(g.node(2));
  // Observation 2: the larger instance wants more threads.
  EXPECT_LT(small.threads, large.threads);
}

TEST_F(ControllerTest, Strategy2ConsolidatesOnHeaviestInstance) {
  Runtime rt = make_runtime(kStrategyS12);
  const Graph g = two_instance_graph();
  rt.profile(g);
  const Candidate small = rt.controller().choice_for(g.node(1));
  const Candidate large = rt.controller().choice_for(g.node(2));
  // Both instances use the same width: the heaviest instance's optimum.
  EXPECT_EQ(small.threads, large.threads);
  EXPECT_EQ(small.threads,
            rt.controller().consolidated_width(OpKind::kConv2DBackpropFilter));
  // The heaviest (large) instance's own optimum is what got adopted.
  Runtime rt1 = make_runtime(kStrategy1);
  rt1.profile(g);
  EXPECT_EQ(small.threads, rt1.controller().choice_for(g.node(2)).threads);
}

TEST_F(ControllerTest, PerInstanceTimesReportedUnderConsolidation) {
  Runtime rt = make_runtime(kStrategyS12);
  const Graph g = two_instance_graph();
  rt.profile(g);
  // Same width but different predicted times (instance-specific).
  const Candidate small = rt.controller().choice_for(g.node(1));
  const Candidate large = rt.controller().choice_for(g.node(2));
  EXPECT_LT(small.time_ms, large.time_ms);
}

TEST_F(ControllerTest, NonTunableOpsKeepDefaultWidth) {
  Runtime rt = make_runtime(kStrategyAll);
  const Graph g = two_instance_graph();
  rt.profile(g);
  const Candidate conv_choice = rt.controller().choice_for(g.node(0));
  EXPECT_EQ(conv_choice.threads, rt.controller().default_width());
  // And only one candidate is offered (no tuning freedom).
  EXPECT_EQ(rt.controller().candidates_for(g.node(0), 3).size(), 1u);
}

TEST_F(ControllerTest, NoModelStrategiesMeansDefaultWidth) {
  Runtime rt = make_runtime(0);  // neither S1 nor S2
  const Graph g = two_instance_graph();
  rt.profile(g);
  EXPECT_EQ(rt.controller().choice_for(g.node(1)).threads,
            rt.controller().default_width());
}

TEST_F(ControllerTest, CandidatesComeFromProfileAndAreBounded) {
  Runtime rt = make_runtime(kStrategyAll);
  const Graph g = two_instance_graph();
  rt.profile(g);
  const auto cands = rt.controller().candidates_for(g.node(1), 3);
  EXPECT_GE(cands.size(), 1u);
  EXPECT_LE(cands.size(), 3u);
  for (const Candidate& c : cands) {
    EXPECT_GE(c.threads, 1);
    EXPECT_LE(c.threads, 68);
    EXPECT_GT(c.time_ms, 0.0);
  }
}

TEST_F(ControllerTest, SerialTimeLargerThanChosenTime) {
  Runtime rt = make_runtime(kStrategyAll);
  const Graph g = two_instance_graph();
  rt.profile(g);
  const Node& node = g.node(2);
  EXPECT_GT(rt.controller().serial_time_ms(node),
            rt.controller().predicted_time_ms(node));
}

TEST_F(ControllerTest, ProfilingReportCountsUniqueOps) {
  Runtime rt = make_runtime(kStrategyAll);
  const Graph g = two_instance_graph();
  const ProfilingReport report = rt.profile(g);
  EXPECT_EQ(report.unique_ops, 2u);  // layout op is not profiled
  EXPECT_GT(report.total_samples, 0u);
  // Paper bound: profiling steps <= C/x * 2 (plus patience allowance).
  EXPECT_LE(report.profiling_steps,
            static_cast<std::size_t>(2 * (68 / 4 + 4)));
  // Re-profiling the same graph adds nothing.
  const ProfilingReport again = rt.profile(g);
  EXPECT_EQ(again.unique_ops, 0u);
}

TEST_F(ControllerTest, ConsolidatedWidthDefaultsWhenUnprofiled) {
  Runtime rt = make_runtime(kStrategyAll);
  EXPECT_EQ(rt.controller().consolidated_width(OpKind::kConv2D),
            rt.controller().default_width());
}

}  // namespace
}  // namespace opsched
