// AdmissionController + demand estimation: the service-level admit-now-vs-
// queue decision, fed by the same hill-climb profile curves the per-op
// scheduler runs on.
#include <gtest/gtest.h>

#include "models/op_factory.hpp"
#include "serve/admission_control.hpp"

namespace opsched::serve {
namespace {

ProfileCurve curve_best(int threads, double time_ms) {
  ProfileCurve c;
  // A second, worse point so best() has something to beat.
  c.add_sample(AffinityMode::kSpread, 1, time_ms * 4.0);
  c.add_sample(AffinityMode::kSpread, threads, time_ms);
  return c;
}

/// A training resident of the given mean width.
ResidentDemand trainer(double mean_width) {
  WidthDemand d;
  d.mean_width = mean_width;
  return {d, JobKind::kTraining, 1};
}

TEST(EstimateDemand, TimeWeightedMeanAndPeak) {
  Graph g;
  const Node conv = fig1_conv2d();
  const Node bp = fig1_backprop_filter();
  Node n1 = conv;
  n1.id = g.add_node(n1);
  Node n2 = bp;
  n2.inputs = {0};
  n2.id = g.add_node(n2);

  PerfDatabase db;
  // conv: best 8 threads at 10ms; backprop: best 2 threads at 30ms.
  db.put(OpKey::of(conv), curve_best(8, 10.0));
  db.put(OpKey::of(bp), curve_best(2, 30.0));

  const WidthDemand d = estimate_demand(g, db);
  EXPECT_EQ(d.peak_width, 8);
  // mean = (10*8 + 30*2) / (10+30) = 140/40 = 3.5
  EXPECT_DOUBLE_EQ(d.mean_width, 3.5);
  EXPECT_DOUBLE_EQ(d.area_ms, 140.0);
}

TEST(EstimateDemand, UnprofiledGraphIsFlaggedNotSilentlyNeutral) {
  // Regression: a zero-curve graph used to report the same
  // {mean_width=1.0, area_ms=0} a genuinely 1-wide profiled job reports,
  // so every consumer bin-packed it blind. The explicit `profiled` flag is
  // the fix — neutral numbers, but marked untrusted.
  Graph g;
  Node n = fig1_conv2d();
  n.id = g.add_node(n);
  const WidthDemand d = estimate_demand(g, PerfDatabase{});
  EXPECT_FALSE(d.profiled);
  EXPECT_DOUBLE_EQ(d.mean_width, 1.0);
  EXPECT_EQ(d.peak_width, 1);
  EXPECT_DOUBLE_EQ(d.area_ms, 0.0);

  // And the moment a curve exists, the estimate is trusted again.
  PerfDatabase db;
  db.put(OpKey::of(n), curve_best(4, 5.0));
  EXPECT_TRUE(estimate_demand(g, db).profiled);
}

TEST(EstimateDemand, UnprofiledDemandIsChargedAsTheWholeMachine) {
  // What the flag buys: admission charges an unprofiled candidate the full
  // machine, so it can only land alone (conservative), instead of packing
  // next to a saturating resident on the strength of a made-up width of 1.
  const AdmissionController ctl({}, 16);
  EXPECT_DOUBLE_EQ(ctl.charged_width(WidthDemand{}), 1.0);  // trusted default

  WidthDemand unknown;
  unknown.profiled = false;
  unknown.mean_width = 1.0;  // the old silently-neutral report
  EXPECT_DOUBLE_EQ(ctl.charged_width(unknown), 16.0);

  // Pre-fix: 10 + 1 <= 20 admitted the stranger. Post-fix (10 + 16 > 20) it
  // waits for an empty machine (where admission always accepts).
  EXPECT_FALSE(ctl.admit(unknown, JobKind::kTraining, 1, {trainer(10.0)}));
  EXPECT_TRUE(ctl.admit(unknown, JobKind::kTraining, 1, {}));
}

TEST(AdmissionController, EmptyMachineAlwaysAdmits) {
  const AdmissionController ctl({}, 4);
  WidthDemand monster;
  monster.mean_width = 1000.0;  // far wider than the machine
  EXPECT_TRUE(ctl.admit(monster, JobKind::kTraining, 1, {}));
}

TEST(AdmissionController, CapacityTest) {
  AdmissionOptions opt;
  opt.max_corun_jobs = 8;
  const AdmissionController ctl(opt, 16);

  // Budget: 1.25 x 16 cores = 20 mean-width units.
  WidthDemand ten;
  ten.mean_width = 10.0;
  WidthDemand eleven;
  eleven.mean_width = 11.0;
  EXPECT_TRUE(ctl.admit(ten, JobKind::kTraining, 1, {trainer(10.0)}));
  EXPECT_FALSE(ctl.admit(eleven, JobKind::kTraining, 1, {trainer(10.0)}));
}

TEST(AdmissionController, CapacityOversubscribesThePhysicalCores) {
  const AdmissionController ctl({}, 16);
  WidthDemand eight;
  eight.mean_width = 8.0;
  // 12 + 8 = 20 > 16 physical cores, but within 1.25 x 16.
  EXPECT_TRUE(ctl.admit(eight, JobKind::kTraining, 1, {trainer(12.0)}));
}

TEST(AdmissionController, MaxCorunJobsCapBindsRegardlessOfWidth) {
  AdmissionOptions opt;
  opt.max_corun_jobs = 2;
  const AdmissionController ctl(opt, 64);
  WidthDemand tiny;
  tiny.mean_width = 0.1;
  EXPECT_TRUE(ctl.admit(tiny, JobKind::kTraining, 1, {trainer(0.1)}));
  EXPECT_FALSE(ctl.admit(tiny, JobKind::kTraining, 1,
                         {trainer(0.1), trainer(0.1)}));
}

TEST(AdmissionController, InferenceAdmitsByFloorsNotBatchDemand) {
  AdmissionOptions opt;
  opt.max_corun_jobs = 8;
  const AdmissionController ctl(opt, 16);

  // The machine is saturated with batch demand — a batch candidate is
  // rejected, but an inference candidate with a modest floor still fits:
  // its per-op priority displaces batch work at op boundaries.
  WidthDemand wide;
  wide.mean_width = 17.0;
  const std::vector<ResidentDemand> residents = {
      {wide, JobKind::kTraining, 1}};
  WidthDemand more;
  more.mean_width = 4.0;
  EXPECT_FALSE(ctl.admit(more, JobKind::kTraining, 1, residents));
  EXPECT_TRUE(ctl.admit(more, JobKind::kInference, 4, residents));
}

TEST(AdmissionController, InferenceFloorsMustFitThePhysicalCores) {
  const AdmissionController ctl({}, 16);
  WidthDemand slim;
  slim.mean_width = 1.0;
  const std::vector<ResidentDemand> residents = {
      {slim, JobKind::kInference, 10},
      {slim, JobKind::kTraining, 1}};
  // Resident inference floors total 10 of 16 cores: a candidate floor of 6
  // fits exactly; 7 does not (floors are hard reservations — overlapping
  // them would make one tenant's SLO a lie).
  EXPECT_TRUE(ctl.admit(slim, JobKind::kInference, 6, residents));
  EXPECT_FALSE(ctl.admit(slim, JobKind::kInference, 7, residents));
  // Zero/negative floors clamp to 1 — a latency tenant always claims a
  // core.
  EXPECT_TRUE(ctl.admit(slim, JobKind::kInference, 0, residents));
}

TEST(AdmissionController, OverwideFloorClampsToPhysicalCoresAtAdmission) {
  // Regression (idle-machine fast path): admit() accepts ANY candidate on
  // an empty machine — including an inference job whose width_floor
  // exceeds the physical cores. Pre-fix that floor was then held verbatim
  // as a resident reservation no later floors-fit test could ever satisfy,
  // and with a non-empty machine the same job starved forever in the
  // queue (its floor could never fit). clamped_floor() caps the
  // reservation at the machine at admission time.
  const AdmissionController ctl({}, 16);
  EXPECT_EQ(ctl.clamped_floor(200), 16);
  EXPECT_EQ(ctl.clamped_floor(16), 16);
  EXPECT_EQ(ctl.clamped_floor(5), 5);
  EXPECT_EQ(ctl.clamped_floor(0), 1);   // a latency tenant always claims one
  EXPECT_EQ(ctl.clamped_floor(-3), 1);

  WidthDemand slim;
  slim.mean_width = 1.0;
  // A training resident keeps the machine non-empty, so the idle fast path
  // does not mask the floors-fit test. Pre-fix: floor 200 > 16 cores ->
  // rejected on every attempt, job starves. Post-fix: the floor clamps to
  // the whole machine and the tenant is admitted.
  const std::vector<ResidentDemand> busy = {{slim, JobKind::kTraining, 1}};
  EXPECT_TRUE(ctl.admit(slim, JobKind::kInference, 200, busy));

  // Residents' recorded floors are clamped in the same pass: a resident
  // booked with an absurd floor must not poison every later admission.
  const std::vector<ResidentDemand> poisoned = {
      {slim, JobKind::kInference, 200}, {slim, JobKind::kTraining, 1}};
  // 16 (clamped resident) + 1 (candidate) > 16: still full — the clamp
  // makes the reservation satisfiable, not free.
  EXPECT_FALSE(ctl.admit(slim, JobKind::kInference, 1, poisoned));
}

TEST(AdmissionController, DegenerateOptionsAreSanitised) {
  AdmissionOptions opt;
  opt.max_corun_jobs = 0;
  const AdmissionController ctl(opt, 0);
  EXPECT_EQ(ctl.options().max_corun_jobs, 1u);
  EXPECT_EQ(ctl.machine_cores(), 1u);
}

}  // namespace
}  // namespace opsched::serve
