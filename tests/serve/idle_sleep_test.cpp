// Regression tests for the wall-clock idle-wait bug: with a resident
// open-loop tenant whose next arrival is far in the future (or, before
// validation existed, non-finite), SchedulerService::cycle computed its
// idle sleep straight from next_arrival_ms_locked() and parked in an
// effectively unbounded cv_.wait_for — cancels and submits stalled until
// the far-future arrival. The fix caps every idle nap at kMaxIdleWaitMs
// (and rejects non-finite traces at submit). These tests script the
// wall-clock service inline, where an unbounded nap turns into a test that
// never returns.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <thread>

#include "serve/service.hpp"
#include "testing/graph_fuzz.hpp"

namespace opsched::serve {
namespace {

Graph small_graph(std::uint64_t seed) {
  testing::FuzzGraphParams params;
  params.min_nodes = 4;
  params.max_nodes = 6;
  params.max_dim = 6;
  return testing::fuzz_graph(seed, params);
}

JobSpec far_future_inference() {
  JobSpec spec;
  spec.name = "patient";
  spec.kind = JobKind::kInference;
  spec.graph = small_graph(31);
  // First request a full hour after submit. Pre-fix, once this tenant was
  // resident and idle, the service slept the whole hour in one wait_for.
  spec.arrivals = {3600.0 * 1000.0};
  spec.deadline_ms = 50.0;
  return spec;
}

TEST(IdleSleep, IdleNapIsBoundedByMaxIdleWait) {
  Runtime rt(MachineSpec::knl());
  ServiceOptions opt;
  opt.substrate = Substrate::kSimulated;
  opt.clock = ClockMode::kWall;  // the bug lives on the wall clock only
  SchedulerService svc(rt, opt);
  const JobId id = svc.submit(far_future_inference());

  // Admit the tenant (first cycle: profile + admission), then run the
  // cycle that finds it resident-but-between-requests — the idle path.
  // Pre-fix this second call blocks for ~an hour; post-fix it naps at most
  // kMaxIdleWaitMs and returns.
  const auto t0 = std::chrono::steady_clock::now();
  svc.run_cycle();
  svc.run_cycle();
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  // Generous ceiling: two cycles of profiling plus one 50ms nap, on a CI
  // machine. The pre-fix behaviour is 3,600,000ms, so the margin is vast.
  EXPECT_LT(elapsed_ms, 2000.0);

  // The tenant is alive and resident, just between requests.
  const JobRecord rec = svc.job_record(id);
  EXPECT_EQ(rec.state, JobState::kRunning);

  // And the service is still responsive: the cancel takes effect on the
  // very next boundary instead of after the hour-long nap.
  EXPECT_TRUE(svc.cancel(id));
  svc.drain();
  EXPECT_EQ(svc.job_record(id).state, JobState::kCancelled);
}

TEST(IdleSleep, NonFiniteArrivalsAreRejectedAtSubmit) {
  Runtime rt(MachineSpec::knl());
  ServiceOptions opt;
  opt.substrate = Substrate::kSimulated;
  SchedulerService svc(rt, opt);

  // An infinite or NaN arrival offset is exactly the trace that made the
  // idle wait unbounded; validate_job_spec now rejects it at the door.
  JobSpec inf_arrival = far_future_inference();
  inf_arrival.arrivals = {0.0, std::numeric_limits<double>::infinity()};
  EXPECT_THROW(svc.submit(inf_arrival), std::invalid_argument);

  JobSpec nan_arrival = far_future_inference();
  nan_arrival.arrivals = {std::numeric_limits<double>::quiet_NaN()};
  EXPECT_THROW(svc.submit(nan_arrival), std::invalid_argument);

  JobSpec nan_deadline = far_future_inference();
  nan_deadline.deadline_ms = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(svc.submit(nan_deadline), std::invalid_argument);

  JobSpec inf_deadline = far_future_inference();
  inf_deadline.deadline_ms = std::numeric_limits<double>::infinity();
  EXPECT_THROW(svc.submit(inf_deadline), std::invalid_argument);

  // A finite far-future trace is still perfectly legal.
  EXPECT_NE(svc.submit(far_future_inference()), kInvalidJob);
}

TEST(IdleSleep, BackgroundServiceStaysResponsiveWhileTenantIdles) {
  // The end-to-end shape of the bug: background thread, far-future
  // arrival, then a cancel. Pre-fix the cancel waits out the nap (an
  // hour); post-fix drain() returns promptly.
  Runtime rt(MachineSpec::knl());
  ServiceOptions opt;
  opt.substrate = Substrate::kSimulated;
  opt.clock = ClockMode::kWall;
  SchedulerService svc(rt, opt);
  svc.start();
  const JobId id = svc.submit(far_future_inference());
  // Give the loop a moment to admit the tenant and reach the idle wait,
  // then cancel out from under it.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  svc.cancel(id);
  svc.drain();
  svc.stop();
  EXPECT_EQ(svc.job_record(id).state, JobState::kCancelled);
}

}  // namespace
}  // namespace opsched::serve
