#include "machine/sim_machine.hpp"

#include <gtest/gtest.h>

#include "models/op_factory.hpp"

namespace opsched {
namespace {

class SimMachineTest : public ::testing::Test {
 protected:
  SimMachineTest() : model_(spec_), machine_(spec_, model_) {}

  Node op(NodeId id, OpKind kind = OpKind::kConv2D) {
    Node n = make_conv_op(kind, 32, 8, 8, 384, 3, 3, 384);
    n.id = id;
    return n;
  }

  MachineSpec spec_ = MachineSpec::knl();
  CostModel model_;
  SimMachine machine_;
};

TEST_F(SimMachineTest, StartsQuiescent) {
  EXPECT_TRUE(machine_.quiescent());
  EXPECT_EQ(machine_.now_ms(), 0.0);
  EXPECT_EQ(machine_.idle_cores().count(), 68u);
  EXPECT_FALSE(machine_.advance().has_value());
}

TEST_F(SimMachineTest, LaunchAdvanceCompletes) {
  const Node n = op(0);
  machine_.launch(n, 34, AffinityMode::kSpread, CoreSet::range(68, 0, 34));
  EXPECT_EQ(machine_.num_running(), 1u);
  EXPECT_EQ(machine_.idle_cores().count(), 34u);
  const auto c = machine_.advance();
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->node, 0u);
  EXPECT_GT(c->finish_ms, 0.0);
  EXPECT_NEAR(c->actual_ms, c->solo_ms, c->solo_ms * 0.01);  // ran alone
  EXPECT_TRUE(machine_.quiescent());
}

TEST_F(SimMachineTest, ExclusiveLaunchRequiresIdleCores) {
  machine_.launch(op(0), 34, AffinityMode::kSpread,
                  CoreSet::range(68, 0, 34));
  EXPECT_THROW(machine_.launch(op(1), 34, AffinityMode::kSpread,
                               CoreSet::range(68, 20, 34)),
               std::logic_error);
  // Disjoint cores are fine.
  EXPECT_NO_THROW(machine_.launch(op(1), 34, AffinityMode::kSpread,
                                  CoreSet::range(68, 34, 34)));
}

TEST_F(SimMachineTest, LaunchValidation) {
  EXPECT_THROW(machine_.launch(op(0), 0, AffinityMode::kSpread,
                               CoreSet::range(68, 0, 4)),
               std::invalid_argument);
  EXPECT_THROW(machine_.launch(op(0), 4, AffinityMode::kSpread, CoreSet(68)),
               std::invalid_argument);
  EXPECT_THROW(machine_.launch(op(0), 4, AffinityMode::kSpread,
                               CoreSet::range(16, 0, 4)),
               std::invalid_argument);
}

TEST_F(SimMachineTest, CorunInterferenceStretchesBothOps) {
  // Two bandwidth-heavy ops on disjoint halves run slower than alone.
  Node a = make_activation_op(OpKind::kApplyAdam, 64, 32, 32, 64);
  a.id = 0;
  Node b = make_activation_op(OpKind::kApplyAdam, 64, 32, 32, 64);
  b.id = 1;
  machine_.launch(a, 34, AffinityMode::kSpread, CoreSet::range(68, 0, 34));
  machine_.launch(b, 34, AffinityMode::kSpread, CoreSet::range(68, 34, 34));
  const auto c1 = machine_.advance();
  const auto c2 = machine_.advance();
  ASSERT_TRUE(c1 && c2);
  EXPECT_GT(c1->actual_ms, c1->solo_ms * 1.02);
  EXPECT_GT(c2->actual_ms, c2->solo_ms * 1.02);
}

TEST_F(SimMachineTest, ComputeBoundPairBarelyInterferes) {
  Node a = op(0);
  Node b = op(1, OpKind::kConv2DBackpropInput);
  machine_.launch(a, 34, AffinityMode::kSpread, CoreSet::range(68, 0, 34));
  machine_.launch(b, 34, AffinityMode::kSpread, CoreSet::range(68, 34, 34));
  const auto c1 = machine_.advance();
  ASSERT_TRUE(c1);
  EXPECT_LT(c1->actual_ms, c1->solo_ms * 1.15);
}

TEST_F(SimMachineTest, OverlayRulesEnforced) {
  machine_.launch(op(0), 68, AffinityMode::kSpread, CoreSet::all(68));
  EXPECT_EQ(machine_.idle_cores().count(), 0u);
  EXPECT_EQ(machine_.overlayable_cores().count(), 68u);
  // Overlay rides the busy cores.
  Node small = make_activation_op(OpKind::kBiasAdd, 8, 8, 8, 64);
  small.id = 1;
  machine_.launch(small, 16, AffinityMode::kSpread,
                  CoreSet::range(68, 0, 16), LaunchKind::kOverlay);
  EXPECT_EQ(machine_.overlayable_cores().count(), 52u);
  // A second overlay on the same cores is rejected.
  Node small2 = small;
  small2.id = 2;
  EXPECT_THROW(machine_.launch(small2, 8, AffinityMode::kSpread,
                               CoreSet::range(68, 0, 8), LaunchKind::kOverlay),
               std::logic_error);
  // Overlay on idle cores is also rejected (nothing to overlay).
  machine_.reset();
  EXPECT_THROW(machine_.launch(small, 8, AffinityMode::kSpread,
                               CoreSet::range(68, 0, 8), LaunchKind::kOverlay),
               std::logic_error);
}

TEST_F(SimMachineTest, OverlaySlowsPrimaryModestly) {
  Node big = op(0);
  machine_.launch(big, 68, AffinityMode::kSpread, CoreSet::all(68));
  Node small = make_activation_op(OpKind::kBiasAdd, 16, 16, 16, 64);
  small.id = 1;
  machine_.launch(small, 16, AffinityMode::kSpread,
                  CoreSet::range(68, 0, 16), LaunchKind::kOverlay);
  // The overlaid streaming op gets the leftover hyper-thread capacity; the
  // compute-bound primary keeps most of its speed.
  const auto first = machine_.advance();
  const auto second = machine_.advance();
  ASSERT_TRUE(first && second);
  const auto& primary = first->node == 0 ? *first : *second;
  EXPECT_LT(primary.actual_ms, primary.solo_ms * 1.45);
}

TEST_F(SimMachineTest, StackedLaunchSharesCapacity) {
  // Two identical ops stacked on all cores (the Table III HT strategy)
  // finish in roughly the time of one op at ~half speed, not two serial.
  Node a = table3_backprop_filter();
  a.id = 0;
  Node b = table3_backprop_input();
  b.id = 1;
  const double solo_a = model_.exec_time_ms(a, 68, AffinityMode::kSpread);
  const double solo_b = model_.exec_time_ms(b, 68, AffinityMode::kSpread);
  machine_.launch(a, 68, AffinityMode::kSpread, CoreSet::all(68),
                  LaunchKind::kStacked);
  machine_.launch(b, 68, AffinityMode::kSpread, CoreSet::all(68),
                  LaunchKind::kStacked);
  double last = 0.0;
  while (const auto c = machine_.advance()) last = c->finish_ms;
  const double serial = solo_a + solo_b;
  EXPECT_LT(last, serial * 1.1);   // not worse than serial by much
  EXPECT_GT(last, serial * 0.75);  // no free lunch either
}

TEST_F(SimMachineTest, EventTraceRecordsLaunchAndFinish) {
  // The machine keeps no log of its own: record each event with the
  // machine's co-run level right after it, as the step loops do.
  EventTrace trace;
  const auto running = [&] { return static_cast<int>(machine_.num_running()); };
  for (const NodeId id : {0u, 1u}) {
    const Node n = op(id);
    machine_.launch(n, 34, AffinityMode::kSpread,
                    CoreSet::range(68, 34 * id, 34));
    trace.record(machine_.now_ms(), /*is_launch=*/true, n.id, n.kind,
                 running());
  }
  while (const auto c = machine_.advance()) {
    trace.record(c->finish_ms, /*is_launch=*/false, c->node, OpKind::kConv2D,
                 running());
  }
  ASSERT_EQ(trace.size(), 4u);
  EXPECT_TRUE(trace.events()[0].is_launch);
  EXPECT_EQ(trace.events()[0].corun_after, 1);
  EXPECT_EQ(trace.events()[1].corun_after, 2);
  EXPECT_FALSE(trace.events()[3].is_launch);
  EXPECT_EQ(trace.events()[3].corun_after, 0);
  EXPECT_EQ(trace.max_corun(), 2);
  EXPECT_NEAR(trace.mean_corun(), (1 + 2 + 1 + 0) / 4.0, 1e-12);
}

TEST_F(SimMachineTest, ClockAdvancesMonotonically) {
  machine_.launch(op(0), 34, AffinityMode::kSpread, CoreSet::range(68, 0, 34));
  machine_.launch(op(1), 17, AffinityMode::kSpread,
                  CoreSet::range(68, 34, 17));
  double prev = 0.0;
  while (const auto c = machine_.advance()) {
    EXPECT_GE(c->finish_ms, prev);
    prev = c->finish_ms;
    EXPECT_DOUBLE_EQ(machine_.now_ms(), c->finish_ms);
  }
}

TEST_F(SimMachineTest, ResetClearsState) {
  machine_.launch(op(0), 34, AffinityMode::kSpread, CoreSet::range(68, 0, 34));
  machine_.reset();
  EXPECT_TRUE(machine_.quiescent());
  EXPECT_EQ(machine_.now_ms(), 0.0);
  EXPECT_EQ(machine_.idle_cores().count(), 68u);
}

TEST_F(SimMachineTest, TeamResizePenaltyChargedOnWidthChange) {
  // Same kind at the same width: no penalty. Different width: penalty.
  const Node a = op(0);
  machine_.launch(a, 34, AffinityMode::kSpread, CoreSet::range(68, 0, 34));
  const auto c1 = machine_.advance();
  Node b = op(1);
  machine_.launch(b, 34, AffinityMode::kSpread, CoreSet::range(68, 0, 34));
  const auto c2 = machine_.advance();
  Node c = op(2);
  machine_.launch(c, 20, AffinityMode::kSpread, CoreSet::range(68, 0, 20));
  const auto c3 = machine_.advance();
  ASSERT_TRUE(c1 && c2 && c3);
  EXPECT_NEAR(c2->actual_ms, c2->solo_ms, 1e-9);  // same width: no penalty
  EXPECT_GT(c3->actual_ms, c3->solo_ms + team_resize_penalty_ms() * 0.99);
}

TEST_F(SimMachineTest, MaxRemainingTracksLongestOp) {
  Node big = table3_backprop_filter();
  big.id = 0;
  Node small = make_activation_op(OpKind::kBiasAdd, 2, 4, 4, 8);
  small.id = 1;
  machine_.launch(big, 34, AffinityMode::kSpread, CoreSet::range(68, 0, 34));
  const double after_big = machine_.max_remaining_ms();
  machine_.launch(small, 8, AffinityMode::kSpread,
                  CoreSet::range(68, 34, 8));
  EXPECT_GE(machine_.max_remaining_ms(), after_big * 0.99);
  EXPECT_GT(after_big, 0.0);
}

}  // namespace
}  // namespace opsched
