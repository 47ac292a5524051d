// The FIFO baseline loop (run_fifo) on the simulated machine: FIFO
// ordering, completion accounting, and edge cases.
#include "core/runtime.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "graph/builder.hpp"
#include "machine/cost_model.hpp"
#include "machine/sim_machine.hpp"

namespace opsched {
namespace {

/// One source feeding `width` independent same-shape ops: every op after the
/// source becomes ready in insertion order, so FIFO order is observable.
Graph fanout_graph(int width) {
  GraphBuilder gb;
  const NodeId src =
      gb.source(OpKind::kInputConversion, "in", TensorShape{8, 8, 8, 32});
  for (int i = 0; i < width; ++i) {
    gb.op(OpKind::kMul, "m" + std::to_string(i), {src},
          TensorShape{8, 8, 8, 32}, TensorShape{}, TensorShape{8, 8, 8, 32});
  }
  return gb.take();
}

class SimFifoTest : public ::testing::Test {
 protected:
  SimFifoTest()
      : spec_(MachineSpec::knl()), model_(spec_), machine_(spec_, model_) {}

  MachineSpec spec_;
  CostModel model_;
  SimMachine machine_;
};

TEST_F(SimFifoTest, LaunchesInArrivalOrderWhenSerial) {
  // inter_op = 1: ops launch strictly one at a time, so the launch sequence
  // in the trace must equal the ready-queue arrival sequence, which for a
  // fan-out of identical ops is graph insertion order.
  const Graph g = fanout_graph(6);
  const StepResult r = run_sim_fifo(g, machine_, 1, 16);

  std::vector<NodeId> launch_order;
  for (const TraceEvent& e : r.trace.events())
    if (e.is_launch) launch_order.push_back(e.node);
  ASSERT_EQ(launch_order.size(), g.size());
  for (std::size_t i = 1; i < launch_order.size(); ++i) {
    EXPECT_LT(launch_order[i - 1], launch_order[i])
        << "run_fifo launched out of arrival order at position " << i;
  }
}

TEST_F(SimFifoTest, RunsEveryOpExactlyOnce) {
  const Graph g = fanout_graph(5);
  const StepResult r = run_sim_fifo(g, machine_, 2, 8);
  EXPECT_EQ(r.ops_run, g.size());
  EXPECT_EQ(r.trace.size(), 2 * g.size());  // one launch + one finish per op

  // Every node appears exactly once as a launch and once as a finish.
  std::vector<int> launches(g.size(), 0), finishes(g.size(), 0);
  for (const TraceEvent& e : r.trace.events()) {
    ASSERT_LT(static_cast<std::size_t>(e.node), g.size());
    (e.is_launch ? launches : finishes)[e.node] += 1;
  }
  for (std::size_t i = 0; i < g.size(); ++i) {
    EXPECT_EQ(launches[i], 1) << "node " << i;
    EXPECT_EQ(finishes[i], 1) << "node " << i;
  }
  EXPECT_GT(r.time_ms, 0.0);
}

TEST_F(SimFifoTest, EmptyGraphIsANoop) {
  const Graph g = GraphBuilder().take();
  ASSERT_EQ(g.size(), 0u);
  const StepResult r = run_sim_fifo(g, machine_, 2, 8);
  EXPECT_EQ(r.ops_run, 0u);
  EXPECT_EQ(r.corun_launches, 0u);
  EXPECT_EQ(r.trace.size(), 0u);
  EXPECT_EQ(r.time_ms, 0.0);
}

TEST_F(SimFifoTest, RejectsNonPositiveParallelism) {
  const Graph g = fanout_graph(2);
  EXPECT_THROW(run_sim_fifo(g, machine_, 0, 8), std::invalid_argument);
  EXPECT_THROW(run_sim_fifo(g, machine_, 2, 0), std::invalid_argument);
}

TEST_F(SimFifoTest, SerialIsNeverFasterThanTwoSlots) {
  // Sanity on the paper's baseline ordering: with identical intra-op width,
  // allowing two inter-op slots can only help (or tie) on a fan-out graph.
  const Graph g = fanout_graph(6);
  const StepResult serial = run_sim_fifo(g, machine_, 1, 16);
  const StepResult two = run_sim_fifo(g, machine_, 2, 16);
  EXPECT_GE(serial.time_ms, two.time_ms * 0.999);
  EXPECT_GT(two.corun_launches, 0u);
}

}  // namespace
}  // namespace opsched
