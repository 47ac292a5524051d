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
  ControllerTest() : graph_(two_instance_graph()) { runtime_.profile(graph_); }

  /// The decisions over graph_ under `strategies`, from its profile.
  ConcurrencyController decide(unsigned strategies) const {
    RuntimeOptions opt;
    opt.strategies = strategies;
    return ConcurrencyController(runtime_.database(), opt, 68, {&graph_});
  }

  const Graph graph_;
  Runtime runtime_{MachineSpec::knl()};
};

TEST_F(ControllerTest, Strategy1PerInstanceWidths) {
  const ConcurrencyController c = decide(kStrategy1);  // S1 without S2
  const Candidate small = c.choice_for(graph_.node(1));
  const Candidate large = c.choice_for(graph_.node(2));
  // Observation 2: the larger instance wants more threads.
  EXPECT_LT(small.threads, large.threads);
}

TEST_F(ControllerTest, Strategy2ConsolidatesOnHeaviestInstance) {
  const ConcurrencyController c = decide(kStrategyS12);
  const Candidate small = c.choice_for(graph_.node(1));
  const Candidate large = c.choice_for(graph_.node(2));
  // Both instances use the same width: the heaviest instance's optimum.
  EXPECT_EQ(small.threads, large.threads);
  EXPECT_EQ(small.threads,
            c.consolidated_width(OpKind::kConv2DBackpropFilter));
  // The heaviest (large) instance's own optimum is what got adopted.
  EXPECT_EQ(small.threads,
            decide(kStrategy1).choice_for(graph_.node(2)).threads);
}

TEST_F(ControllerTest, PerInstanceTimesReportedUnderConsolidation) {
  const ConcurrencyController c = decide(kStrategyS12);
  // Same width but different predicted times (instance-specific).
  const Candidate small = c.choice_for(graph_.node(1));
  const Candidate large = c.choice_for(graph_.node(2));
  EXPECT_LT(small.time_ms, large.time_ms);
}

TEST_F(ControllerTest, NonTunableOpsKeepDefaultWidth) {
  const ConcurrencyController c = decide(kStrategyAll);
  const Candidate conv_choice = c.choice_for(graph_.node(0));
  EXPECT_EQ(conv_choice.threads, c.default_width());
  // And only one candidate is offered (no tuning freedom).
  EXPECT_EQ(c.candidates_for(graph_.node(0), 3).size(), 1u);
}

TEST_F(ControllerTest, NoModelStrategiesMeansDefaultWidth) {
  const ConcurrencyController c = decide(0);  // neither S1 nor S2
  EXPECT_EQ(c.choice_for(graph_.node(1)).threads, c.default_width());
}

TEST_F(ControllerTest, CandidatesComeFromProfileAndAreBounded) {
  const auto cands = decide(kStrategyAll).candidates_for(graph_.node(1), 3);
  EXPECT_GE(cands.size(), 1u);
  EXPECT_LE(cands.size(), 3u);
  for (const Candidate& c : cands) {
    EXPECT_GE(c.threads, 1);
    EXPECT_LE(c.threads, 68);
    EXPECT_GT(c.time_ms, 0.0);
  }
}

TEST_F(ControllerTest, SerialTimeLargerThanChosenTime) {
  const ConcurrencyController c = decide(kStrategyAll);
  const Node& node = graph_.node(2);
  EXPECT_GT(c.serial_time_ms(node), c.choice_for(node).time_ms);
}

TEST_F(ControllerTest, ProfilingReportCountsUniqueOps) {
  Runtime rt(MachineSpec::knl());
  const ProfilingReport report = rt.profile(graph_);
  EXPECT_EQ(report.unique_ops, 2u);  // layout op is not profiled
  EXPECT_GT(report.total_samples, 0u);
  // Paper bound: profiling steps <= C/x * 2 (plus patience allowance).
  EXPECT_LE(report.profiling_steps,
            static_cast<std::size_t>(2 * (68 / 4 + 4)));
  // Re-profiling the same graph adds nothing.
  const ProfilingReport again = rt.profile(graph_);
  EXPECT_EQ(again.unique_ops, 0u);
}

TEST_F(ControllerTest, ConsolidatedWidthDefaultsWhenUnprofiled) {
  const PerfDatabase empty;
  const ConcurrencyController c(empty, RuntimeOptions{}, 68, {&graph_});
  EXPECT_EQ(c.consolidated_width(OpKind::kConv2D), c.default_width());
}

}  // namespace
}  // namespace opsched
