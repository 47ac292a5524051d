// Runtime end-to-end: the paper's workflow (profile -> schedule) and its
// headline property — the adaptive runtime beats the recommendation.
#include "core/runtime.hpp"

#include <gtest/gtest.h>

#include "graph/builder.hpp"
#include "models/models.hpp"

namespace opsched {
namespace {

class RuntimeOnModels : public ::testing::TestWithParam<std::string> {};

TEST_P(RuntimeOnModels, AdaptiveBeatsRecommendation) {
  const Graph g = build_model(GetParam());
  Runtime rt(MachineSpec::knl());
  rt.profile(g);
  const double rec = rt.run_step_recommendation(g).time_ms;
  rt.run_step(g);  // warm learning state
  const double adaptive = rt.run_step(g).time_ms;
  // Paper: 17%-49% faster. Require a solid margin on every model.
  EXPECT_LT(adaptive, rec * 0.95) << GetParam();
}

TEST_P(RuntimeOnModels, EveryStrategyLevelCompletesAllOps) {
  const Graph g = build_model(GetParam());
  for (unsigned mask : {0u, unsigned(kStrategyS12), unsigned(kStrategyS123),
                        unsigned(kStrategyAll)}) {
    RuntimeOptions opt;
    opt.strategies = mask;
    Runtime rt(MachineSpec::knl(), opt);
    rt.profile(g);
    const StepResult r = rt.run_step(g);
    EXPECT_EQ(r.ops_run, g.size()) << GetParam() << " mask=" << mask;
    EXPECT_GT(r.time_ms, 0.0);
  }
}

TEST_P(RuntimeOnModels, AddingStrategiesNeverHurtsMuch) {
  // Fig. 3: each strategy level is at worst neutral. Allow a small
  // tolerance for scheduling noise.
  const Graph g = build_model(GetParam());
  const auto step_time = [&](unsigned mask) {
    RuntimeOptions opt;
    opt.strategies = mask;
    Runtime rt(MachineSpec::knl(), opt);
    rt.profile(g);
    rt.run_step(g);
    return rt.run_step(g).time_ms;
  };
  const double s12 = step_time(kStrategyS12);
  const double s123 = step_time(kStrategyS123);
  const double all = step_time(kStrategyAll);
  EXPECT_LT(s123, s12 * 1.05) << GetParam();
  EXPECT_LT(all, s123 * 1.05) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Models, RuntimeOnModels,
                         ::testing::Values("resnet50", "dcgan",
                                           "inception_v3", "lstm"));

TEST(Runtime, FifoGridMatchesTableOneShape) {
  // Table I's coarse shape on ResNet-50: 2x34 beats the recommendation,
  // 1x136 collapses.
  const Graph g = build_resnet50();
  Runtime rt(MachineSpec::knl());
  const double rec = rt.run_step_fifo(g, 1, 68).time_ms;
  const double split = rt.run_step_fifo(g, 2, 34).time_ms;
  const double oversub = rt.run_step_fifo(g, 1, 136).time_ms;
  EXPECT_LT(split, rec);
  EXPECT_GT(oversub, rec * 1.3);
}

TEST(Runtime, ManualOptimizeReturnsBestGridPoint) {
  const Graph g = build_dcgan();
  Runtime rt(MachineSpec::knl());
  const ManualOptimum best = rt.manual_optimize(g);
  EXPECT_GT(best.time_ms, 0.0);
  EXPECT_GE(best.inter_op, 1);
  EXPECT_GE(best.intra_op, 2);
  // The best grid point is no worse than the recommendation.
  EXPECT_LE(best.time_ms, rt.run_step_fifo(g, 1, 68).time_ms * 1.001);
}

TEST(Runtime, ProfilingOverheadIsBounded) {
  // Paper Section IV-A: the number of profiling steps is small. For
  // ResNet-50: unique op keys bounded, samples bounded by keys * (C/x*2).
  const Graph g = build_resnet50();
  Runtime rt(MachineSpec::knl());
  const ProfilingReport report = rt.profile(g);
  EXPECT_GT(report.unique_ops, 10u);
  EXPECT_LT(report.unique_ops, g.size());
  EXPECT_LE(report.profiling_steps, 2u * (68u / 4u + 4u));
  EXPECT_LE(report.total_samples,
            report.unique_ops * report.profiling_steps);
}

TEST(Runtime, HillClimbIntervalOptionRespected) {
  const Graph g = build_dcgan();
  RuntimeOptions coarse;
  coarse.hill_climb_interval = 16;
  Runtime rt_coarse(MachineSpec::knl(), coarse);
  Runtime rt_fine(MachineSpec::knl());
  const ProfilingReport rc = rt_coarse.profile(g);
  const ProfilingReport rf = rt_fine.profile(g);
  EXPECT_LT(rc.total_samples, rf.total_samples);
}

TEST(Runtime, DefaultWidthIsTheMachinesCores) {
  MachineSpec tiny = MachineSpec::knl();
  tiny.num_cores = 16;
  Runtime rt(tiny);
  // A layout op runs at the default width. Offered more idle cores than
  // that, the policy's pick shows the width itself.
  GraphBuilder gb;
  gb.source(OpKind::kInputConversion, "in", TensorShape{32, 8, 8, 384});
  const Graph g = gb.take();
  const ReadyQueue ready{0};
  const auto batch =
      rt.policy().next_launch_batch({{&g, &ready}}, 64, {}, nullptr, 1);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].decision.candidate.threads, 16);
}

TEST(Runtime, StepResultStatsConsistent) {
  const Graph g = build_dcgan();
  Runtime rt(MachineSpec::knl());
  rt.profile(g);
  const StepResult r = rt.run_step(g);
  EXPECT_EQ(r.ops_run, g.size());
  EXPECT_LE(r.overlay_launches, r.corun_launches);
  EXPECT_LE(r.corun_launches, r.ops_run);
  EXPECT_GE(r.mean_corun, 0.0);
  EXPECT_DOUBLE_EQ(r.mean_corun, r.trace.mean_corun());
}

// Figure 2's workflow: a step runs on the decisions the profiled model
// gives for that step's own graph, whatever was profiled last.
TEST(RuntimeTest, StepRunsOnDecisionsOverTheGraphsItSteps) {
  const Graph resnet = build_resnet50();
  const Graph lstm = build_lstm();

  Runtime fresh(MachineSpec::knl());
  fresh.profile(resnet);
  const StepResult want = fresh.run_step(resnet);

  Runtime rt(MachineSpec::knl());
  rt.profile(resnet);
  rt.profile(lstm);  // adds lstm's curves to the database
  const StepResult got = rt.run_step(resnet);

  EXPECT_EQ(got.time_ms, want.time_ms);
  ASSERT_EQ(got.trace.size(), want.trace.size());
  for (std::size_t i = 0; i < got.trace.size(); ++i) {
    const TraceEvent& g = got.trace.events()[i];
    const TraceEvent& w = want.trace.events()[i];
    EXPECT_EQ(g.time_ms, w.time_ms) << "event " << i;
    EXPECT_EQ(g.is_launch, w.is_launch) << "event " << i;
    EXPECT_EQ(g.node, w.node) << "event " << i;
    EXPECT_EQ(g.corun_after, w.corun_after) << "event " << i;
    if (HasFailure()) break;
  }
}

}  // namespace
}  // namespace opsched
