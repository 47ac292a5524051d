// The hill-climbing performance model: the paper's chosen predictor.
// Property tests run the climb against cost-model-generated curves and
// verify the paper's claims: the found optimum is (near-)global, profiling
// cost is bounded by C/x*2, and interpolation accuracy degrades with the
// interval in the Table-V pattern.
#include "perf/hill_climb.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "models/op_factory.hpp"
#include "perf/perf_db.hpp"
#include "util/stats.hpp"

namespace opsched {
namespace {

MeasureFn parabola(double optimum) {
  // Deterministic smooth valley with minimum at `optimum` threads.
  return [optimum](int threads, AffinityMode mode) {
    const double d = threads - optimum;
    return 10.0 + 0.01 * d * d +
           (mode == AffinityMode::kShared ? 0.05 : 0.0);
  };
}

TEST(ProfileCurve, PredictInterpolatesBetweenSamples) {
  ProfileCurve curve;
  curve.add_sample(AffinityMode::kSpread, 1, 10.0);
  curve.add_sample(AffinityMode::kSpread, 5, 2.0);
  curve.add_sample(AffinityMode::kSpread, 9, 4.0);
  EXPECT_DOUBLE_EQ(curve.predict(3, AffinityMode::kSpread), 6.0);
  EXPECT_DOUBLE_EQ(curve.predict(7, AffinityMode::kSpread), 3.0);
  EXPECT_DOUBLE_EQ(curve.predict(1, AffinityMode::kSpread), 10.0);
  // Clamped outside the sampled domain.
  EXPECT_DOUBLE_EQ(curve.predict(0, AffinityMode::kSpread), 10.0);
  EXPECT_DOUBLE_EQ(curve.predict(50, AffinityMode::kSpread), 4.0);
  EXPECT_THROW(curve.predict(3, AffinityMode::kShared), std::logic_error);
}

TEST(ProfileCurve, BestFindsMinimumAcrossModes) {
  ProfileCurve curve;
  curve.add_sample(AffinityMode::kSpread, 4, 5.0);
  curve.add_sample(AffinityMode::kShared, 8, 3.0);
  curve.add_sample(AffinityMode::kSpread, 12, 4.0);
  const Candidate best = curve.best();
  EXPECT_EQ(best.threads, 8);
  EXPECT_EQ(best.mode, AffinityMode::kShared);
  EXPECT_DOUBLE_EQ(best.time_ms, 3.0);
  EXPECT_THROW(ProfileCurve().best(), std::logic_error);
}

TEST(ProfileCurve, CandidatesAreSpacedAndSortedByTime) {
  ProfileCurve curve;
  for (int n = 2; n <= 40; n += 2)
    curve.add_sample(AffinityMode::kSpread, n,
                     10.0 + 0.05 * (n - 20) * (n - 20));
  const auto cands = curve.candidates(3);
  ASSERT_EQ(cands.size(), 3u);
  EXPECT_LE(cands[0].time_ms, cands[1].time_ms);
  EXPECT_LE(cands[1].time_ms, cands[2].time_ms);
  // Spacing: thread counts must differ by >= 25% of the larger pick.
  for (std::size_t i = 0; i < cands.size(); ++i)
    for (std::size_t j = i + 1; j < cands.size(); ++j)
      EXPECT_GE(std::abs(cands[i].threads - cands[j].threads),
                std::max(2, static_cast<int>(0.25 * cands[i].threads)));
}

TEST(HillClimb, FindsOptimumOfSmoothValley) {
  HillClimbParams params;
  params.interval = 2;
  params.max_threads = 68;
  const HillClimbProfiler profiler(params);
  const ProfileCurve curve = profiler.profile(parabola(30.0));
  EXPECT_NEAR(curve.best().threads, 30, 2);
}

TEST(HillClimb, MonotoneDecreasingRunsToMaxThreads) {
  HillClimbParams params;
  params.interval = 4;
  params.max_threads = 68;
  const HillClimbProfiler profiler(params);
  const ProfileCurve curve = profiler.profile(
      [](int threads, AffinityMode) { return 100.0 / threads; });
  EXPECT_EQ(curve.best().threads, 68);
}

TEST(HillClimb, ImmediateIncreaseStopsEarly) {
  HillClimbParams params;
  params.interval = 4;
  params.max_threads = 68;
  const HillClimbProfiler profiler(params);
  const ProfileCurve curve = profiler.profile(
      [](int threads, AffinityMode) { return 1.0 * threads; });
  EXPECT_EQ(curve.best().threads, 1);
  // Stopped after a couple of samples per mode, not C/x.
  EXPECT_LE(profiler.last_sample_count(), 6u);
}

TEST(HillClimb, PatienceSurvivesJitterBumps) {
  // A descending curve with one spurious bump at n=9: stopping on the first
  // uptick would end there; patience 2 climbs through to the true optimum
  // at ~41.
  const MeasureFn bumpy = [](int threads, AffinityMode) {
    const double d = threads - 41.0;
    double t = 20.0 + 0.01 * d * d;
    if (threads == 9 || threads == 10) t += 3.0;
    return t;
  };
  static_assert(kHillClimbPatience == 2);
  const HillClimbParams params{/*interval=*/4, /*max_threads=*/68,
                               /*both_modes=*/true};
  const ProfileCurve curve = HillClimbProfiler(params).profile(bumpy);
  EXPECT_NEAR(curve.best().threads, 41, 4);
}

TEST(HillClimb, SampleCountBoundedByPaperFormula) {
  // N <= C/x * 2 (both affinity modes), plus the patience allowance.
  for (int x : {2, 4, 8, 16}) {
    HillClimbParams params;
    params.interval = x;
    params.max_threads = 68;
    const HillClimbProfiler profiler(params);
    profiler.profile(parabola(24.0));
    EXPECT_LE(profiler.last_sample_count(),
              static_cast<std::size_t>(2 * (68 / x + 2 + kHillClimbPatience)))
        << "x=" << x;
  }
}

TEST(HillClimb, SharedModeUsesEvenThreadCounts) {
  HillClimbParams params;
  params.interval = 3;  // odd interval: alignment must still give even n
  params.max_threads = 20;
  const HillClimbProfiler profiler(params);
  const ProfileCurve curve = profiler.profile(parabola(10.0));
  for (const ProfilePoint& p : curve.samples(AffinityMode::kShared)) {
    EXPECT_EQ(p.threads % 2, 0) << "shared-mode sample at odd count";
  }
  EXPECT_FALSE(curve.samples(AffinityMode::kSpread).empty());
}

TEST(HillClimb, SingleModeOption) {
  HillClimbParams params;
  params.both_modes = false;
  const HillClimbProfiler profiler(params);
  const ProfileCurve curve = profiler.profile(parabola(16.0));
  EXPECT_TRUE(curve.samples(AffinityMode::kShared).empty());
  EXPECT_FALSE(curve.samples(AffinityMode::kSpread).empty());
}

TEST(HillClimb, AccuracyDegradesWithInterval) {
  // Table V's shape on a real cost-model curve: finer interval -> better
  // interpolation of untested counts.
  const MachineSpec spec = MachineSpec::knl();
  const CostModel model(spec);
  const Node op = fig1_backprop_filter();
  const MeasureFn measure = [&](int threads, AffinityMode mode) {
    return model.exec_time_ms(op, threads, mode);
  };

  std::vector<double> accuracy;
  for (int x : {2, 8, 16}) {
    HillClimbParams params;
    params.interval = x;
    params.max_threads = 68;
    const HillClimbProfiler profiler(params);
    const ProfileCurve curve = profiler.profile(measure);
    std::vector<double> y_true, y_pred;
    std::set<int> sampled;
    for (const auto& p : curve.samples(AffinityMode::kSpread))
      sampled.insert(p.threads);
    for (int n = 1; n <= 68; ++n) {
      if (sampled.count(n)) continue;
      y_true.push_back(model.exec_time_ms(op, n, AffinityMode::kSpread));
      y_pred.push_back(curve.predict(n, AffinityMode::kSpread));
    }
    accuracy.push_back(mape_accuracy(y_true, y_pred));
  }
  EXPECT_GT(accuracy[0], 0.85);           // x=2: high accuracy
  EXPECT_GT(accuracy[0], accuracy[2]);    // x=16 is worse than x=2
}

TEST(HillClimb, FoundOptimumCloseToGlobalOnCostModel) {
  // Paper: "the performance difference between the two optimums is less
  // than 2%" at x=4. Allow a modest margin for jitter.
  const MachineSpec spec = MachineSpec::knl();
  const CostModel model(spec);
  for (const Node& op :
       {fig1_conv2d(), fig1_backprop_filter(), fig1_backprop_input()}) {
    HillClimbParams params;
    params.interval = 4;
    params.max_threads = 68;
    const HillClimbProfiler profiler(params);
    const ProfileCurve curve = profiler.profile(
        [&](int threads, AffinityMode mode) {
          return model.exec_time_ms(op, threads, mode);
        });
    const auto global = model.ground_truth_optimum(op, 68);
    EXPECT_LE(curve.best().time_ms, global.time_ms * 1.05)
        << op.label;
  }
}

TEST(PerfDatabase, PutFindAt) {
  PerfDatabase db;
  const Node op = fig1_conv2d();
  const OpKey key = OpKey::of(op);
  EXPECT_FALSE(db.contains(key));
  EXPECT_EQ(db.find(key), nullptr);
  EXPECT_THROW(db.at(key), std::out_of_range);

  ProfileCurve curve;
  curve.add_sample(AffinityMode::kSpread, 4, 2.0);
  db.put(key, curve);
  EXPECT_TRUE(db.contains(key));
  ASSERT_NE(db.find(key), nullptr);
  EXPECT_EQ(db.at(key).total_samples(), 1u);
  EXPECT_EQ(db.size(), 1u);
  EXPECT_EQ(db.total_samples(), 1u);
}

TEST(PerfDatabase, KeyDistinguishesKindAndShape) {
  const OpKey a = OpKey::of(fig1_conv2d());
  const OpKey b = OpKey::of(fig1_backprop_filter());
  const OpKey c = OpKey::of(table3_backprop_filter());
  EXPECT_NE(a, b);
  EXPECT_NE(b, c);
  Node same = fig1_conv2d();
  same.id = 123;
  same.label = "different-label-same-shape";
  EXPECT_EQ(a, OpKey::of(same));
}

}  // namespace
}  // namespace opsched
