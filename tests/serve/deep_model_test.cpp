// SchedulerService x the deep-model zoo: a 700+-node ResNet training job
// flows through admission -> profiling -> co-located steps on the host
// substrate, the profiling cost is booked on the job record, and a second
// submission of the same graph reuses the warm PerfDatabase (profiles
// nothing). Deep jobs queue correctly when the co-run cap is reached.
#include "serve/service.hpp"

#include <gtest/gtest.h>

#include "core/runtime.hpp"
#include "graph/graph.hpp"
#include "models/zoo.hpp"

namespace opsched::serve {
namespace {

ServiceOptions host_options() {
  ServiceOptions opts;
  opts.substrate = Substrate::kHost;
  return opts;
}

JobSpec deep_job(const std::string& name, int steps, std::uint64_t seed) {
  JobSpec spec;
  spec.name = name;
  spec.graph = models::build_resnet50_host();
  spec.steps = steps;
  spec.seed = seed;
  return spec;
}

TEST(ServeDeepModel, AdmitsRunsAndBooksProfilingForDeepJob) {
  Runtime rt(MachineSpec::knl());
  SchedulerService service(rt, host_options());

  const JobId id = service.submit(deep_job("resnet50", /*steps=*/2, 1));
  service.drain();

  const ServiceSnapshot snap = service.snapshot();
  ASSERT_EQ(snap.jobs.size(), 1u);
  const JobRecord& rec = snap.jobs[0];
  EXPECT_EQ(rec.id, id);
  EXPECT_EQ(rec.state, JobState::kCompleted);
  EXPECT_EQ(rec.steps_done, 2);
  // A cold service must profile the deep graph's (kind, shape) keys and
  // book the cost on this job.
  EXPECT_GT(rec.profiled_ops, 0u);
  EXPECT_GE(rec.profile_ms, 0.0);
  // Real kernels ran: machine time accrued and the deterministic step
  // checksum is recorded (and was verified stable across both steps).
  EXPECT_GT(rec.service_ms, 0.0);
  EXPECT_NE(rec.checksum, 0.0);
  EXPECT_GE(rec.wait_ms(), 0.0);
}

TEST(ServeDeepModel, SecondSubmissionReusesWarmPerfDatabase) {
  Runtime rt(MachineSpec::knl());
  SchedulerService service(rt, host_options());

  service.submit(deep_job("cold", /*steps=*/1, 1));
  service.drain();
  service.submit(deep_job("warm", /*steps=*/1, 2));
  service.drain();

  const ServiceSnapshot snap = service.snapshot();
  ASSERT_EQ(snap.jobs.size(), 2u);
  EXPECT_GT(snap.jobs[0].profiled_ops, 0u);
  // Same graph, every (kind, shape) key already warm: the second job
  // profiles nothing.
  EXPECT_EQ(snap.jobs[1].profiled_ops, 0u);
  EXPECT_EQ(snap.jobs[1].state, JobState::kCompleted);
  // Distinct seeds namespace the tensors: same graph, different numerics.
  EXPECT_NE(snap.jobs[0].checksum, snap.jobs[1].checksum);
}

TEST(ServeDeepModel, DeepJobsQueueWhenCorunCapReached) {
  Runtime rt(MachineSpec::knl());
  ServiceOptions opts = host_options();
  opts.admission.max_corun_jobs = 1;
  SchedulerService service(rt, opts);

  const JobId a = service.submit(deep_job("first", /*steps=*/3, 1));
  const JobId b = service.submit(deep_job("second", /*steps=*/1, 2));

  // One inline cycle: job a is admitted and steps; job b must wait.
  EXPECT_TRUE(service.run_cycle());
  {
    const ServiceSnapshot snap = service.snapshot();
    EXPECT_EQ(snap.running, 1u);
    EXPECT_EQ(snap.queued, 1u);
    EXPECT_EQ(snap.jobs[0].state, JobState::kRunning);
    EXPECT_NE(snap.jobs[1].state, JobState::kRunning);
  }

  service.drain();
  const ServiceSnapshot done = service.snapshot();
  EXPECT_EQ(done.completed, 2u);
  EXPECT_EQ(done.jobs[0].id, a);
  EXPECT_EQ(done.jobs[1].id, b);
  EXPECT_EQ(done.jobs[0].steps_done, 3);
  EXPECT_EQ(done.jobs[1].steps_done, 1);
  // b was admitted only after a finished.
  EXPECT_GE(done.jobs[1].admit_ms, done.jobs[0].admit_ms);
}

double reference_checksum(const Graph& g, std::uint64_t seed) {
  HostGraphProgram ref(g, seed, /*tenant=*/0);
  for (const Node& node : g.nodes()) ref.run_node_reference(node.id);
  return ref.step_checksum();
}

TEST(ServeDeepModel, BatchedHostStepMatchesTheZooViewAtThatBatch) {
  // Two bursts on the batch-one resnet50_host forward view, co-located in
  // one host step: 2 requests run the view rebatched to 2, 3 requests the
  // view rebatched to 4. Each program is bound with the job's seed, so its
  // checksum is the serial reference of zoo_forward(m, b) at that seed.
  Runtime rt(MachineSpec::knl());
  SchedulerService service(rt, host_options());
  const auto burst = [&](const char* name, std::size_t requests,
                         std::uint64_t seed) {
    JobSpec spec;
    spec.name = name;
    spec.kind = JobKind::kInference;
    spec.graph = models::zoo_forward("resnet50_host", 1);
    spec.arrivals.assign(requests, 0.0);
    spec.deadline_ms = 1e9;
    spec.seed = seed;
    return service.submit(std::move(spec));
  };
  burst("two", 2, 7);
  burst("three", 3, 9);
  service.drain();

  const ServiceSnapshot snap = service.snapshot();
  ASSERT_EQ(snap.jobs.size(), 2u);
  EXPECT_EQ(snap.steps_run, 1u);
  EXPECT_EQ(snap.jobs[0].steps_done, 2);
  EXPECT_EQ(snap.jobs[1].steps_done, 3);
  EXPECT_DOUBLE_EQ(
      snap.jobs[0].checksum,
      reference_checksum(models::zoo_forward("resnet50_host", 2), 7));
  EXPECT_DOUBLE_EQ(
      snap.jobs[1].checksum,
      reference_checksum(models::zoo_forward("resnet50_host", 4), 9));
}

}  // namespace
}  // namespace opsched::serve
