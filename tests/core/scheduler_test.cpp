// The simulator's two step loops (run_dispatch and run_fifo over
// SimMachine): scheduling invariants.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <utility>

#include "core/runtime.hpp"
#include "graph/builder.hpp"
#include "models/models.hpp"
#include "models/zoo.hpp"
#include "testing/graph_fuzz.hpp"

namespace opsched {
namespace {

/// A wide layer of independent mid-size convs feeding a join — plenty of
/// co-run opportunity.
Graph wide_graph(int width = 6) {
  GraphBuilder gb;
  const NodeId src =
      gb.source(OpKind::kInputConversion, "in", TensorShape{32, 8, 8, 384});
  std::vector<NodeId> layer;
  for (int i = 0; i < width; ++i) {
    layer.push_back(gb.op(OpKind::kConv2DBackpropInput,
                          "conv" + std::to_string(i), {src},
                          TensorShape{32, 8, 8, 384},
                          TensorShape{3, 3, 384, 384},
                          TensorShape{32, 8, 8, 384}));
  }
  gb.op(OpKind::kAddN, "join", layer, TensorShape{32, 8, 8, 384},
        TensorShape{}, TensorShape{32, 8, 8, 384});
  return gb.take();
}

class SchedulerTest : public ::testing::Test {
 protected:
  StepResult run(const Graph& g, unsigned strategies) {
    RuntimeOptions opt;
    opt.strategies = strategies;
    Runtime rt(MachineSpec::knl(), opt);
    rt.profile(g);
    return rt.run_step(g);
  }
};

TEST_F(SchedulerTest, RunsEveryOpExactlyOnce) {
  const Graph g = wide_graph();
  const StepResult r = run(g, kStrategyAll);
  EXPECT_EQ(r.ops_run, g.size());
  // Trace holds one launch + one finish per op.
  EXPECT_EQ(r.trace.size(), 2 * g.size());
  std::size_t launches = 0;
  for (const TraceEvent& e : r.trace.events())
    if (e.is_launch) ++launches;
  EXPECT_EQ(launches, g.size());
}

TEST_F(SchedulerTest, Strategy3CoRunsIndependentOps) {
  const Graph g = wide_graph();
  const StepResult serial = run(g, kStrategyS12);
  const StepResult corun = run(g, kStrategyS123);
  EXPECT_GT(corun.corun_launches, 0u);
  EXPECT_EQ(serial.corun_launches, 0u);
  EXPECT_LT(corun.time_ms, serial.time_ms);
  EXPECT_GT(corun.trace.max_corun(), 1);
  EXPECT_EQ(serial.trace.max_corun(), 1);
}

TEST_F(SchedulerTest, DeterministicAcrossRuns) {
  const Graph g = wide_graph();
  const StepResult a = run(g, kStrategyAll);
  const StepResult b = run(g, kStrategyAll);
  EXPECT_DOUBLE_EQ(a.time_ms, b.time_ms);
  EXPECT_EQ(a.corun_launches, b.corun_launches);
}

TEST_F(SchedulerTest, DecisionCacheHitsOnRepeatedSteps) {
  const Graph g = wide_graph();
  RuntimeOptions opt;
  opt.strategies = kStrategyAll;
  Runtime rt(MachineSpec::knl(), opt);
  rt.profile(g);
  const StepResult first = rt.run_step(g);
  const StepResult second = rt.run_step(g);
  EXPECT_GE(second.cache_hits, first.cache_hits);
  EXPECT_GT(second.cache_hits, 0u);
  // Steady-state time is stable across steps (the paper's premise).
  EXPECT_NEAR(second.time_ms, first.time_ms, first.time_ms * 0.05);
}

TEST_F(SchedulerTest, DecisionCacheCanBeDisabled) {
  const Graph g = wide_graph();
  RuntimeOptions opt;
  opt.strategies = kStrategyAll;
  opt.decision_cache = false;
  Runtime rt(MachineSpec::knl(), opt);
  rt.profile(g);
  rt.run_step(g);
  const StepResult r = rt.run_step(g);
  EXPECT_EQ(r.cache_hits, 0u);
}

TEST_F(SchedulerTest, SchedulerNeverDeadlocks) {
  // Chain graph: each op depends on the previous one — degenerate case.
  GraphBuilder gb;
  NodeId prev =
      gb.source(OpKind::kInputConversion, "in", TensorShape{8, 8, 8, 64});
  for (int i = 0; i < 20; ++i) {
    prev = gb.elementwise(OpKind::kRelu, "r" + std::to_string(i), {prev},
                          TensorShape{8, 8, 8, 64});
  }
  const Graph g = gb.take();
  const StepResult r = run(g, kStrategyAll);
  EXPECT_EQ(r.ops_run, g.size());
}

TEST_F(SchedulerTest, InterferenceRecorderLearns) {
  // Memory-bound ops co-running interfere; the recorder should eventually
  // blacklist pairs whose slowdown exceeds the threshold.
  GraphBuilder gb;
  const NodeId src =
      gb.source(OpKind::kInputConversion, "in", TensorShape{64, 32, 32, 64});
  for (int i = 0; i < 6; ++i) {
    gb.op(OpKind::kApplyAdam, "adam" + std::to_string(i), {src},
          TensorShape{64, 32, 32, 64}, TensorShape{},
          TensorShape{64, 32, 32, 64});
  }
  const Graph g = gb.take();

  RuntimeOptions opt;
  opt.strategies = kStrategyS123;
  opt.interference_bad_ratio = 1.02;  // aggressive: everything looks bad
  Runtime rt(MachineSpec::knl(), opt);
  rt.profile(g);
  rt.run_step(g);
  const std::size_t learned = rt.policy().recorded_bad_pairs();
  const StepResult second = rt.run_step(g);
  // After learning, previously-bad pairs are not co-run again.
  if (learned > 0) {
    EXPECT_LE(second.corun_launches, g.size());
  }
  rt.policy().reset_learning();
  EXPECT_EQ(rt.policy().recorded_bad_pairs(), 0u);
}

TEST_F(SchedulerTest, ThroughputGuardBlocksOutlastingOps) {
  // A tiny op running + a huge ready op: the huge op must NOT co-run
  // (it would outlast the ongoing op), it waits for an empty machine.
  GraphBuilder gb;
  const NodeId src =
      gb.source(OpKind::kInputConversion, "in", TensorShape{2, 4, 4, 8});
  gb.op(OpKind::kBiasAdd, "tiny", {src}, TensorShape{2, 4, 4, 8},
        TensorShape{}, TensorShape{2, 4, 4, 8});
  gb.op(OpKind::kConv2DBackpropFilter, "huge", {src},
        TensorShape{32, 8, 8, 2048}, TensorShape{3, 3, 2048, 512},
        TensorShape{3, 3, 2048, 512});
  const Graph g = gb.take();
  const StepResult r = run(g, kStrategyS123);
  // The huge op may only start when it is alone or fits the guard: with
  // one tiny op first in FIFO order, the huge op launches second — but
  // never *while* the tiny op still has less remaining than the huge op's
  // duration. The schedule completing with 3 ops is the invariant here;
  // the interesting assertion is the trace order.
  EXPECT_EQ(r.ops_run, 3u);
  const auto& events = r.trace.events();
  // src first; then tiny and huge must NOT overlap.
  double tiny_finish = -1.0, huge_start = -1.0;
  for (const TraceEvent& e : events) {
    const Node& n = g.node(e.node);
    if (n.label == "tiny" && !e.is_launch) tiny_finish = e.time_ms;
    if (n.label == "huge" && e.is_launch) huge_start = e.time_ms;
  }
  ASSERT_GE(tiny_finish, 0.0);
  ASSERT_GE(huge_start, 0.0);
  EXPECT_GE(huge_start, tiny_finish * 0.999);
}

/// FNV-1a over every trace record and the step times of `results`: a
/// fingerprint of the whole schedule, not just its makespan.
class ScheduleDigest {
 public:
  void add(const std::vector<StepResult>& results) {
    for (const StepResult& r : results) {
      for (const TraceEvent& e : r.trace.events()) {
        mix_double(e.time_ms);
        mix(e.is_launch ? 1u : 0u);
        mix(static_cast<std::uint64_t>(e.node));
        mix(static_cast<std::uint64_t>(e.corun_after));
      }
      mix_double(r.time_ms);
      mix_double(r.service_ms);
      mix(r.ops_run);
      mix(r.corun_launches);
      mix(r.overlay_launches);
      mix(r.cache_hits);
      mix(r.guard_fallbacks);
    }
  }
  /// A FIFO baseline step: its trace, step time and launch counters.
  void add_fifo(const StepResult& r) {
    for (const TraceEvent& e : r.trace.events()) {
      mix_double(e.time_ms);
      mix(e.is_launch ? 1u : 0u);
      mix(static_cast<std::uint64_t>(e.node));
      mix(static_cast<std::uint64_t>(e.corun_after));
    }
    mix_double(r.time_ms);
    mix(r.ops_run);
    mix(r.corun_launches);
  }
  void add(const ManualOptimum& best) {
    mix(static_cast<std::uint64_t>(best.inter_op));
    mix(static_cast<std::uint64_t>(best.intra_op));
    mix_double(best.time_ms);
  }
  std::uint64_t value() const noexcept { return h_; }

 private:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFFu;
      h_ *= 0x100000001B3ull;
    }
  }
  void mix_double(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    mix(bits);
  }
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// Schedule identity: pins the exact simulated schedule (every launch and
// completion, its time and co-run level, plus step and service times) of
// the zoo models under each strategy set and of one weighted 3-tenant step.
// Two steps per runtime, so the learned state (decision cache, interference
// record) a first step leaves behind is exercised too. Any refactor of the
// dispatch path must leave these digests unchanged; a deliberate schedule
// change updates them in the same commit.
TEST(ScheduleIdentity, SimSchedulesArePinned) {
  struct Case {
    const char* model;
    unsigned strategies;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {"resnet50", kStrategyS12, 0xc4af268e81589da1ull},
      {"resnet50", kStrategyS123, 0x302d36c8b470fdcdull},
      {"resnet50", kStrategyAll, 0x302d36c8b470fdcdull},
      {"dcgan", kStrategyS12, 0x3e58ea4f87d0701dull},
      {"dcgan", kStrategyS123, 0xf3798c46699510f5ull},
      {"dcgan", kStrategyAll, 0x377401ad10213600ull},
      {"inception_v3", kStrategyS12, 0x488792c0420de51dull},
      {"inception_v3", kStrategyS123, 0x6b95abd942a7b8cfull},
      {"inception_v3", kStrategyAll, 0x75294bd609a0036eull},
      {"lstm", kStrategyS12, 0xa089f7bc69e733e5ull},
      {"lstm", kStrategyS123, 0x65c43b7636339207ull},
      {"lstm", kStrategyAll, 0xe16b1b98fcc085d1ull},
  };
  for (const Case& c : cases) {
    const Graph g = build_model(c.model);
    RuntimeOptions opt;
    opt.strategies = c.strategies;
    Runtime rt(MachineSpec::knl(), opt);
    rt.profile(g);
    ScheduleDigest d;
    for (int step = 0; step < 2; ++step) d.add({rt.run_step(g)});
    EXPECT_EQ(hex(d.value()), hex(c.digest))
        << c.model << " strategies=" << c.strategies;
  }

  const Graph ga = build_dcgan(8);
  const Graph gb = build_lstm(4, 8, 64, 400);
  const Graph gc = build_resnet50(8);
  Runtime rt(MachineSpec::knl());
  rt.profile_multi({&ga, &gb, &gc});
  ScheduleDigest d;
  for (int step = 0; step < 2; ++step)
    d.add(rt.run_step_multi({&ga, &gb, &gc},
                            TenantSet::slots(3, {1.0, 2.0, 4.0})));
  EXPECT_EQ(hex(d.value()), hex(0x8837fde9c26ecfb6ull))
      << "3-tenant weighted step";
}

// The interference record under co-location: four fleet models co-run step
// after step. Every (tenant, op) endpoint keeps at most kMaxBadPartners
// partners, so the record is bounded by the endpoints it can have, and
// once the co-run repeats it stops growing (the uncapped record grew from
// ~3,700 to ~8,200 pairs over eight such steps and kept growing).
TEST(InterferenceRecord, StaysBoundedAndFlatOverFleetCoRuns) {
  std::vector<Graph> graphs;
  for (const char* m : {"resnet50_host", "resnet101", "resnet152",
                        "incep_resnet"}) {
    graphs.push_back(models::zoo_find(m)->build(2));
  }
  std::vector<const Graph*> tenants;
  for (const Graph& g : graphs) tenants.push_back(&g);
  Runtime rt(MachineSpec::knl());
  rt.profile_multi(tenants);
  std::vector<std::size_t> pairs;
  for (int step = 0; step < 10; ++step) {
    (void)rt.run_step_multi(tenants, TenantSet::slots(tenants.size()));
    pairs.push_back(rt.policy().recorded_bad_pairs());
    const std::size_t endpoints = tenants.size() * rt.policy().arena_size();
    EXPECT_LE(pairs.back(), endpoints * AdmissionPolicy::kMaxBadPartners)
        << "step " << step;
  }
  ASSERT_GT(pairs[3], 0u);
  for (std::size_t step = 4; step < pairs.size(); ++step) {
    EXPECT_LE(pairs[step], pairs[3] + pairs[3] / 10) << "step " << step;
  }
}

// A recorded pair only reorders launches; it never holds cores idle, so
// the recorder must not cost the step it learns from. Steps 2-8 (the first
// step learns) of the paper models under S1-3 and S1-4, the fuzz graph the
// uncapped record slowed by 25%, and a 4-tenant fleet co-run (makespan).
// The skip order still perturbs a schedule either way, by at most 2.2%
// here, so the bound is 3%, not exact.
TEST(InterferenceRecord, RecorderNeverSlowsAStepByMoreThanThreePercent) {
  constexpr double kTolerance = 1.03;
  const auto steps = [](const std::vector<const Graph*>& graphs,
                        unsigned strategies, bool recorder) {
    RuntimeOptions opt;
    opt.strategies = strategies;
    opt.interference_recorder = recorder;
    Runtime rt(MachineSpec::knl(), opt);
    rt.profile_multi(graphs);
    std::vector<double> makespan;
    for (int step = 0; step < 8; ++step) {
      double m = 0.0;
      for (const StepResult& r :
           rt.run_step_multi(graphs, TenantSet::slots(graphs.size()))) {
        m = std::max(m, r.time_ms);
      }
      makespan.push_back(m);
    }
    return makespan;
  };
  const auto check = [&](const std::vector<const Graph*>& graphs,
                         unsigned strategies, const std::string& what) {
    const auto on = steps(graphs, strategies, true);
    const auto off = steps(graphs, strategies, false);
    for (std::size_t s = 1; s < on.size(); ++s) {
      EXPECT_LE(on[s], off[s] * kTolerance) << what << " step " << s + 1;
    }
  };

  for (const char* m : {"resnet50", "dcgan", "inception_v3", "lstm"}) {
    const Graph g = build_model(m);
    check({&g}, kStrategyS123, std::string(m) + " S1-3");
    check({&g}, kStrategyAll, std::string(m) + " S1-4");
  }
  testing::FuzzGraphParams params;
  params.min_nodes = params.max_nodes = 1000;
  params.max_dim = 6;
  const Graph fuzz = testing::fuzz_graph(/*seed=*/2026, params);
  check({&fuzz}, kStrategyAll, "fuzz_graph(2026)");

  std::vector<Graph> fleet;
  for (const char* m : {"resnet50_host", "resnet101", "resnet152",
                        "incep_resnet"}) {
    fleet.push_back(models::zoo_find(m)->build(2));
  }
  check({&fleet[0], &fleet[1], &fleet[2], &fleet[3]}, kStrategyAll,
        "4-tenant fleet");
}

// FIFO schedule identity: pins the simulated FIFO baseline (every launch
// and completion, step time, ops and co-run launches) at the paper's
// recommendation and three Table-I grid points, plus the manual optimum the
// full grid search picks. service_ms is left out on purpose: it is
// bookkeeping, not schedule.
TEST(ScheduleIdentity, SimFifoSchedulesArePinned) {
  struct Case {
    const char* model;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {"resnet50", 0xee0a8e07708bcd03ull},
      {"dcgan", 0x4a15679db33467bdull},
      {"inception_v3", 0x0ba8bc4f7655af2cull},
      {"lstm", 0xfd21000f416888c8ull},
  };
  const std::pair<int, int> grid[] = {{1, 68}, {2, 34}, {2, 68}, {4, 16}};
  for (const Case& c : cases) {
    const Graph g = build_model(c.model);
    Runtime rt(MachineSpec::knl());
    ScheduleDigest d;
    for (const auto& [inter, intra] : grid)
      d.add_fifo(rt.run_step_fifo(g, inter, intra));
    d.add(rt.manual_optimize(g));
    EXPECT_EQ(hex(d.value()), hex(c.digest)) << c.model;
  }
}

TEST(SimFifo, RecommendationRunsSerially) {
  const Graph g = wide_graph(4);
  const MachineSpec spec = MachineSpec::knl();
  const CostModel model(spec);
  SimMachine machine(spec, model);
  const StepResult r = run_sim_fifo(g, machine, 1, 68);
  EXPECT_EQ(r.ops_run, g.size());
  EXPECT_EQ(r.trace.max_corun(), 1);  // inter-op 1: never two at once
}

TEST(SimFifo, InterOpSlotsBoundConcurrency) {
  const Graph g = wide_graph(8);
  const MachineSpec spec = MachineSpec::knl();
  const CostModel model(spec);
  SimMachine machine(spec, model);
  for (int inter : {2, 4}) {
    const StepResult r = run_sim_fifo(g, machine, inter, 34);
    EXPECT_LE(r.trace.max_corun(), inter);
    EXPECT_GT(r.trace.max_corun(), 1);
    EXPECT_EQ(r.ops_run, g.size());
  }
}

TEST(SimFifo, ParallelismValidation) {
  const Graph g = wide_graph(2);
  const MachineSpec spec = MachineSpec::knl();
  const CostModel model(spec);
  SimMachine machine(spec, model);
  EXPECT_THROW(run_sim_fifo(g, machine, 0, 68), std::invalid_argument);
  EXPECT_THROW(run_sim_fifo(g, machine, 1, 0), std::invalid_argument);
}

TEST(SimFifo, OversubscriptionSlowsStep) {
  const Graph g = wide_graph(6);
  const MachineSpec spec = MachineSpec::knl();
  const CostModel model(spec);
  SimMachine machine(spec, model);
  const double t68 = run_sim_fifo(g, machine, 1, 68).time_ms;
  const double t136 = run_sim_fifo(g, machine, 1, 136).time_ms;
  EXPECT_GT(t136, t68);
}

TEST(SimFifo, ManualOptimizeScansGrid) {
  const Graph g = wide_graph(4);
  const MachineSpec spec = MachineSpec::knl();
  const CostModel model(spec);
  SimMachine machine(spec, model);
  const ManualOptimum best =
      manual_optimize(g, machine, {1, 2}, {34, 68});
  EXPECT_GT(best.time_ms, 0.0);
  // The reported optimum is at least as good as every grid point.
  for (int inter : {1, 2}) {
    for (int intra : {34, 68}) {
      const double t = run_sim_fifo(g, machine, inter, intra).time_ms;
      EXPECT_GE(t, best.time_ms * 0.999);
    }
  }
}

}  // namespace
}  // namespace opsched
