// The deterministic SLO replay harness: an inference tenancy scripted from
// seeded open-loop traces, run on the simulated substrate under the
// VIRTUAL service clock, must reproduce its ledger bit-identically —
// across independent runs, and across drive modes (inline drain on the
// caller's thread vs the background service thread). Latency, attainment,
// and goodput all derive from the virtual clock and the sim's virtual
// step times, so every one of them is assertable with EXPECT_DOUBLE_EQ
// rather than a tolerance.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "models/zoo.hpp"
#include "obs/trace.hpp"
#include "serve/service.hpp"
#include "serve/traffic.hpp"
#include "testing/graph_fuzz.hpp"

namespace opsched::serve {
namespace {

Graph small_graph(std::uint64_t seed) {
  testing::FuzzGraphParams params;
  params.min_nodes = 5;
  params.max_nodes = 8;
  params.max_dim = 6;
  return testing::fuzz_graph(seed, params);
}

/// The scripted tenancy every replay test drives: two training jobs plus
/// three inference tenants with seeded Poisson/diurnal traces, one of them
/// batchable.
std::vector<JobSpec> make_script() {
  std::vector<JobSpec> script;

  JobSpec train1;
  train1.name = "train1";
  train1.graph = small_graph(11);
  train1.steps = 40;
  train1.weight = 2.0;
  script.push_back(train1);

  JobSpec train2;
  train2.name = "train2";
  train2.graph = small_graph(12);
  train2.steps = 25;
  script.push_back(train2);

  JobSpec inf1;
  inf1.name = "inf-poisson";
  inf1.kind = JobKind::kInference;
  inf1.graph = small_graph(21);
  inf1.arrivals = poisson_trace(/*rate_rps=*/150.0, /*duration_ms=*/150.0,
                                /*seed=*/5);
  inf1.deadline_ms = 50.0;
  inf1.width_floor = 8;
  script.push_back(inf1);

  JobSpec inf2;
  inf2.name = "inf-diurnal";
  inf2.kind = JobKind::kInference;
  inf2.graph = small_graph(22);
  DiurnalEnvelope env;
  env.base_rps = 40.0;
  env.peak_rps = 300.0;
  env.period_ms = 60.0;
  env.burst_fraction = 0.3;
  inf2.arrivals = diurnal_trace(env, /*duration_ms=*/180.0, /*seed=*/6);
  inf2.deadline_ms = 30.0;
  inf2.width_floor = 4;
  script.push_back(inf2);

  // A batch-one zoo view: bursts of arrived requests are served together,
  // one rebatched forward step each.
  JobSpec inf3;
  inf3.name = "inf-batched";
  inf3.kind = JobKind::kInference;
  inf3.graph = models::zoo_forward("resnet50_host", 1);
  inf3.arrivals = poisson_trace(/*rate_rps=*/300.0, /*duration_ms=*/150.0,
                                /*seed=*/8);
  inf3.deadline_ms = 60.0;
  inf3.width_floor = 8;
  script.push_back(inf3);

  return script;
}

struct Replay {
  std::vector<JobRecord> jobs;
  std::size_t steps_run = 0;
  double stepped_service_ms = 0.0;
};

/// Runs the script to completion on a fresh sim runtime under the virtual
/// clock. `background` switches the drive mode: the loop runs either
/// inline on this thread or on the service thread — the determinism claim
/// is that the books cannot tell the difference.
Replay run_script(const std::vector<JobSpec>& script, bool background) {
  Runtime rt(MachineSpec::knl());
  ServiceOptions opt;
  opt.substrate = Substrate::kSimulated;
  opt.clock = ClockMode::kVirtual;
  opt.admission.max_corun_jobs = 4;
  SchedulerService svc(rt, opt);
  for (const JobSpec& spec : script) svc.submit(spec);
  if (background) {
    svc.start();
    svc.drain();
    svc.stop();
  } else {
    svc.drain();
  }
  const ServiceSnapshot snap = svc.snapshot();
  return {snap.jobs, snap.steps_run, snap.stepped_service_ms};
}

void expect_bit_identical(const Replay& a, const Replay& b) {
  EXPECT_EQ(a.steps_run, b.steps_run);
  EXPECT_DOUBLE_EQ(a.stepped_service_ms, b.stepped_service_ms);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    SCOPED_TRACE("job record " + std::to_string(i));
    const JobRecord& x = a.jobs[i];
    const JobRecord& y = b.jobs[i];
    EXPECT_EQ(x.id, y.id);
    EXPECT_EQ(x.state, y.state);
    EXPECT_EQ(x.kind, y.kind);
    EXPECT_EQ(x.steps_done, y.steps_done);
    EXPECT_EQ(x.slo_hits, y.slo_hits);
    // Every clock-derived field: the virtual clock makes these exact.
    EXPECT_DOUBLE_EQ(x.submit_ms, y.submit_ms);
    EXPECT_DOUBLE_EQ(x.admit_ms, y.admit_ms);
    EXPECT_DOUBLE_EQ(x.finish_ms, y.finish_ms);
    EXPECT_DOUBLE_EQ(x.service_ms, y.service_ms);
    EXPECT_DOUBLE_EQ(x.run_ms, y.run_ms);
    EXPECT_DOUBLE_EQ(x.p50_latency_ms, y.p50_latency_ms);
    EXPECT_DOUBLE_EQ(x.p99_latency_ms, y.p99_latency_ms);
    EXPECT_DOUBLE_EQ(x.max_latency_ms, y.max_latency_ms);
    EXPECT_DOUBLE_EQ(x.slo_attainment(), y.slo_attainment());
    EXPECT_DOUBLE_EQ(x.goodput_rps(0.0), y.goodput_rps(0.0));
  }
}

TEST(SloReplay, IdenticalTraceReplaysBitIdenticalLedger) {
  const auto script = make_script();
  const Replay a = run_script(script, /*background=*/false);
  const Replay b = run_script(script, /*background=*/false);
  expect_bit_identical(a, b);
  // The script actually exercised the tenancy: co-located steps ran and
  // every job completed.
  EXPECT_GT(a.steps_run, 0u);
  for (const JobRecord& rec : a.jobs) {
    EXPECT_EQ(rec.state, JobState::kCompleted);
    EXPECT_EQ(rec.steps_done, rec.steps_total);
  }
}

TEST(SloReplay, InlineAndBackgroundDriversBookTheSameLedger) {
  // "Across thread counts": the background service thread and the inline
  // drain must produce the same books under the virtual clock — the drive
  // mode is a threading choice, not a scheduling input. (This test is in
  // the TSan job's net: serve_ tests run under thread sanitizer in CI.)
  const auto script = make_script();
  const Replay inline_run = run_script(script, /*background=*/false);
  const Replay threaded_run = run_script(script, /*background=*/true);
  expect_bit_identical(inline_run, threaded_run);
}

TEST(SloReplay, SloMetricsBookEveryRequest) {
  Runtime rt(MachineSpec::knl());
  ServiceOptions opt;
  opt.substrate = Substrate::kSimulated;
  opt.clock = ClockMode::kVirtual;
  SchedulerService svc(rt, opt);

  JobSpec inf;
  inf.name = "inf";
  inf.kind = JobKind::kInference;
  inf.graph = small_graph(31);
  inf.arrivals = {0.0, 0.0, 1.0, 2.0, 500.0};  // burst, then a straggler
  inf.deadline_ms = 1e9;  // generous: every request is a hit
  const JobId id = svc.submit(inf);
  svc.drain();

  const ServiceSnapshot snap = svc.snapshot();
  ASSERT_EQ(snap.jobs.size(), 1u);
  const JobRecord& rec = snap.jobs[0];
  EXPECT_EQ(rec.id, id);
  EXPECT_EQ(rec.kind, JobKind::kInference);
  EXPECT_EQ(rec.state, JobState::kCompleted);
  EXPECT_EQ(rec.steps_total, 5);
  EXPECT_EQ(rec.steps_done, 5);
  EXPECT_EQ(rec.slo_hits, 5u);
  EXPECT_DOUBLE_EQ(rec.slo_attainment(), 1.0);
  EXPECT_GE(rec.p50_latency_ms, 0.0);
  EXPECT_GE(rec.p99_latency_ms, rec.p50_latency_ms);
  EXPECT_GE(rec.max_latency_ms, rec.p99_latency_ms);
  EXPECT_GT(rec.goodput_rps(snap.now_ms), 0.0);
  // The straggler at +500ms forced an idle-clock jump: the service must
  // have advanced past it, not spun or finished early.
  EXPECT_GE(rec.finish_ms, rec.submit_ms + 500.0);
}

/// The batch-one resnet50_host view serving `arrivals`, alone on a
/// virtual-clock sim service with a trace attached.
struct Burst {
  ServiceSnapshot snap;
  std::vector<obs::TraceSpan> steps;     // "step" spans, in order
  std::vector<obs::TraceSpan> requests;  // "request" spans, in order
};

Burst run_burst(std::vector<double> arrivals) {
  Runtime rt(MachineSpec::knl());
  obs::TraceCollector trace;
  ServiceOptions opt;
  opt.substrate = Substrate::kSimulated;
  opt.clock = ClockMode::kVirtual;
  opt.trace = &trace;
  SchedulerService svc(rt, opt);

  JobSpec inf;
  inf.name = "burst";
  inf.kind = JobKind::kInference;
  inf.graph = models::zoo_forward("resnet50_host", 1);
  inf.arrivals = std::move(arrivals);
  inf.deadline_ms = 1e9;
  svc.submit(inf);
  svc.drain();

  Burst out;
  out.snap = svc.snapshot();
  for (const obs::TraceSpan& s : trace.spans()) {
    if (s.cat == "step") out.steps.push_back(s);
    if (s.cat == "request") out.requests.push_back(s);
  }
  return out;
}

TEST(SloReplay, ArrivedBurstIsServedInOneBatchedStep) {
  const Burst burst = run_burst(std::vector<double>(5, 0.0));
  EXPECT_EQ(burst.snap.steps_run, 1u);
  ASSERT_EQ(burst.steps.size(), 1u);
  EXPECT_EQ(burst.steps[0].name, "step 1 batch 8");  // 5 rounds up to 8
  const double makespan = burst.steps[0].dur_ms;
  EXPECT_GT(makespan, 0.0);

  const JobRecord& rec = burst.snap.jobs[0];
  EXPECT_EQ(rec.state, JobState::kCompleted);
  EXPECT_EQ(rec.steps_done, 5);
  EXPECT_EQ(rec.slo_hits, 5u);
  // Every request is booked on its own: one span each, arrival to the end
  // of the step that served it.
  ASSERT_EQ(burst.requests.size(), 5u);
  for (std::size_t k = 0; k < 5; ++k) {
    EXPECT_EQ(burst.requests[k].name, "req " + std::to_string(k));
    EXPECT_DOUBLE_EQ(burst.requests[k].start_ms, 0.0);
    EXPECT_DOUBLE_EQ(burst.requests[k].dur_ms, makespan);
  }
  EXPECT_DOUBLE_EQ(rec.p50_latency_ms, makespan);
  EXPECT_DOUBLE_EQ(rec.p99_latency_ms, makespan);
  EXPECT_DOUBLE_EQ(rec.max_latency_ms, makespan);
  // Service time is booked once per step, not once per request.
  EXPECT_DOUBLE_EQ(rec.run_ms, makespan);
  EXPECT_DOUBLE_EQ(rec.service_ms, burst.snap.stepped_service_ms);
}

TEST(SloReplay, BurstBeyondTheCapIsServedAsSixteenThenTheRest) {
  const Burst burst = run_burst(std::vector<double>(20, 0.0));
  EXPECT_EQ(burst.snap.steps_run, 2u);
  ASSERT_EQ(burst.steps.size(), 2u);
  EXPECT_EQ(burst.steps[0].name, "step 1 batch 16");
  EXPECT_EQ(burst.steps[1].name, "step 2 batch 4");
  const double first = burst.steps[0].dur_ms;
  const double second = burst.steps[1].dur_ms;

  const JobRecord& rec = burst.snap.jobs[0];
  EXPECT_EQ(rec.steps_done, 20);
  ASSERT_EQ(burst.requests.size(), 20u);
  for (std::size_t k = 0; k < 20; ++k) {
    SCOPED_TRACE("request " + std::to_string(k));
    EXPECT_DOUBLE_EQ(burst.requests[k].dur_ms,
                     k < 16 ? first : first + second);
  }
  // Sixteen latencies of `first`, four of `first + second`: the exact
  // percentiles fall on those two values.
  EXPECT_DOUBLE_EQ(rec.p50_latency_ms, first);
  EXPECT_DOUBLE_EQ(rec.p99_latency_ms, first + second);
  EXPECT_DOUBLE_EQ(rec.max_latency_ms, first + second);
  EXPECT_DOUBLE_EQ(rec.run_ms, first + second);
}

TEST(SloReplay, EachBatchedRequestKeepsItsOwnArrival) {
  // Request 0 is alone at t = 0; requests 1-4 arrive while its step runs
  // and are served together by the next one.
  const Burst burst = run_burst({0.0, 1.0, 2.0, 3.0, 4.0});
  ASSERT_EQ(burst.steps.size(), 2u);
  EXPECT_EQ(burst.steps[0].name, "step 1 batch 1");
  EXPECT_EQ(burst.steps[1].name, "step 2 batch 4");
  const double end = burst.steps[1].start_ms + burst.steps[1].dur_ms;
  ASSERT_EQ(burst.requests.size(), 5u);
  EXPECT_DOUBLE_EQ(burst.requests[0].dur_ms, burst.steps[0].dur_ms);
  for (std::size_t k = 1; k < 5; ++k) {
    SCOPED_TRACE("request " + std::to_string(k));
    EXPECT_DOUBLE_EQ(burst.requests[k].start_ms, static_cast<double>(k));
    EXPECT_DOUBLE_EQ(burst.requests[k].dur_ms,
                     end - static_cast<double>(k));
  }
  EXPECT_DOUBLE_EQ(burst.snap.jobs[0].max_latency_ms, end - 1.0);
}

TEST(SloReplay, ImpossibleDeadlineScoresZeroAttainment) {
  Runtime rt(MachineSpec::knl());
  ServiceOptions opt;
  opt.substrate = Substrate::kSimulated;
  opt.clock = ClockMode::kVirtual;
  SchedulerService svc(rt, opt);

  JobSpec inf;
  inf.name = "doomed";
  inf.kind = JobKind::kInference;
  inf.graph = small_graph(32);
  inf.arrivals = {0.0, 1.0, 2.0};
  inf.deadline_ms = 1e-12;  // no step can finish this fast
  svc.submit(inf);
  svc.drain();

  // A copy: the snapshot is a temporary, so a reference into its job list
  // would dangle by the next statement.
  const JobRecord rec = svc.snapshot().jobs[0];
  EXPECT_EQ(rec.state, JobState::kCompleted);
  EXPECT_EQ(rec.slo_hits, 0u);
  EXPECT_DOUBLE_EQ(rec.slo_attainment(), 0.0);
  EXPECT_DOUBLE_EQ(rec.goodput_rps(1e9), 0.0);
}

TEST(SloReplay, ZooForwardViewServesThroughTheService) {
  // The cached zoo forward view is submittable as-is: the service copies
  // the graph, so the shared cache entry stays pristine.
  Runtime rt(MachineSpec::knl());
  ServiceOptions opt;
  opt.substrate = Substrate::kSimulated;
  opt.clock = ClockMode::kVirtual;
  SchedulerService svc(rt, opt);

  JobSpec inf;
  inf.name = "resnet50-serve";
  inf.kind = JobKind::kInference;
  inf.graph = models::zoo_forward("resnet50_host", 1);
  inf.arrivals = {0.0, 0.0, 0.0};
  inf.deadline_ms = 1e9;
  svc.submit(inf);
  svc.drain();

  const JobRecord rec = svc.snapshot().jobs[0];  // copy, as above
  EXPECT_EQ(rec.state, JobState::kCompleted);
  EXPECT_EQ(rec.steps_done, 3);
  EXPECT_EQ(rec.slo_hits, 3u);
}

TEST(SloReplay, SubmitValidatesInferenceSpecs) {
  Runtime rt(MachineSpec::knl());
  SchedulerService svc(rt, {});

  JobSpec inf;
  inf.kind = JobKind::kInference;
  inf.graph = small_graph(41);
  EXPECT_THROW(svc.submit(inf), std::invalid_argument);  // no trace

  inf.arrivals = {5.0, 3.0};  // not ascending
  EXPECT_THROW(svc.submit(inf), std::invalid_argument);

  inf.arrivals = {-1.0, 3.0};  // negative offset
  EXPECT_THROW(svc.submit(inf), std::invalid_argument);

  inf.arrivals = {0.0, 3.0};
  inf.deadline_ms = 0.0;  // no SLO to attain
  EXPECT_THROW(svc.submit(inf), std::invalid_argument);

  JobSpec train;
  train.graph = small_graph(42);
  train.steps = 2;
  train.arrivals = {1.0};  // training jobs have no arrival stream
  EXPECT_THROW(svc.submit(train), std::invalid_argument);
}

TEST(SloReplay, InferenceJobsJumpTheAdmissionQueue) {
  // A saturated machine with queued batch work: an inference tenant
  // submitted LAST must still be considered first when a slot opens.
  Runtime rt(MachineSpec::knl());
  ServiceOptions opt;
  opt.substrate = Substrate::kSimulated;
  opt.clock = ClockMode::kVirtual;
  opt.admission.max_corun_jobs = 1;  // one resident at a time
  SchedulerService svc(rt, opt);

  JobSpec blocker;
  blocker.name = "blocker";
  blocker.graph = small_graph(51);
  blocker.steps = 4;
  const JobId b = svc.submit(blocker);
  svc.run_cycle();  // blocker admitted and stepping

  JobSpec batch;
  batch.name = "batch";
  batch.graph = small_graph(52);
  batch.steps = 1;
  batch.priority = 100;  // even a high batch priority loses to inference
  const JobId bb = svc.submit(batch);

  JobSpec inf;
  inf.name = "inf";
  inf.kind = JobKind::kInference;
  inf.graph = small_graph(53);
  inf.arrivals = {0.0};
  const JobId i = svc.submit(inf);

  svc.drain();
  const ServiceSnapshot snap = svc.snapshot();
  const auto rec = [&](JobId id) {
    return *std::find_if(snap.jobs.begin(), snap.jobs.end(),
                         [&](const JobRecord& r) { return r.id == id; });
  };
  EXPECT_EQ(rec(b).state, JobState::kCompleted);
  EXPECT_EQ(rec(i).state, JobState::kCompleted);
  EXPECT_EQ(rec(bb).state, JobState::kCompleted);
  // The inference job was admitted strictly before the earlier-submitted,
  // higher-priority batch job: the slot that opened when the blocker
  // finished went to the latency tenant.
  EXPECT_LT(rec(i).admit_ms, rec(bb).admit_ms);
}

}  // namespace
}  // namespace opsched::serve
