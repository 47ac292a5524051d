// Churn property tests for the elastic scheduling service: a fuzzed stream
// of jobs (random graphs, arrival cycles, step budgets, weights,
// priorities, cancellations) is scripted against the service in its
// deterministic inline mode, on BOTH substrates through the same code
// path. The core contracts:
//   - determinism under churn (host): every completed job's per-step
//     checksum is bit-identical to its solo serial reference — co-runners
//     arriving and leaving may never change a job's numerics;
//   - ledger invariants: no lost or duplicated jobs, conservation of the
//     folded service time, legal lifecycles only (the ledger throws on an
//     illegal edge, so merely finishing the script asserts it);
//   - sim substrate: the whole churn trace is bit-deterministic — two runs
//     of one script produce identical books.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "serve/service.hpp"
#include "testing/graph_fuzz.hpp"
#include "util/rng.hpp"

namespace opsched::serve {
namespace {

struct ScriptedJob {
  Graph graph;
  std::uint64_t tensor_seed = 0;
  int steps = 1;
  double weight = 1.0;
  int priority = 0;
  std::size_t arrive_cycle = 0;
  /// Cycle at which cancel() fires; SIZE_MAX = never.
  std::size_t cancel_cycle = static_cast<std::size_t>(-1);
};

/// A fuzzed 20+-job churn script: arrivals spread over the first cycles,
/// mixed weights/priorities/budgets, ~1 in 5 jobs cancelled mid-flight.
std::vector<ScriptedJob> make_script(std::uint64_t seed, std::size_t count) {
  Xoshiro256 rng(seed);
  testing::FuzzGraphParams params;
  params.min_nodes = 4;
  params.max_nodes = 9;
  params.max_dim = 6;
  std::vector<ScriptedJob> script;
  script.reserve(count);
  for (std::size_t j = 0; j < count; ++j) {
    ScriptedJob job;
    job.graph = testing::fuzz_graph(seed * 7919 + j, params);
    job.tensor_seed = 0x5eedULL + j;  // distinct private tensors per job
    job.steps = 1 + static_cast<int>(rng() % 4);
    const double weights[] = {0.5, 1.0, 1.0, 2.0};
    job.weight = weights[rng() % 4];
    job.priority = static_cast<int>(rng() % 2);
    job.arrive_cycle = rng() % 12;
    if (rng() % 5 == 0) job.cancel_cycle = job.arrive_cycle + rng() % 4;
    script.push_back(std::move(job));
  }
  return script;
}

double reference_checksum(const Graph& g, std::uint64_t seed) {
  HostGraphProgram ref(g, seed, /*tenant=*/0);
  for (const Node& node : g.nodes()) ref.run_node_reference(node.id);
  return ref.step_checksum();
}

/// Drives the script in inline mode: per cycle, submit due arrivals, fire
/// due cancels, then run one service cycle; finally drains. Returns
/// script-index -> JobId.
std::map<std::size_t, JobId> run_script(
    SchedulerService& svc, const std::vector<ScriptedJob>& script) {
  constexpr std::size_t kNever = static_cast<std::size_t>(-1);
  std::size_t last_event = 0;
  for (const ScriptedJob& job : script) {
    last_event = std::max(last_event, job.arrive_cycle);
    if (job.cancel_cycle != kNever)
      last_event = std::max(last_event, job.cancel_cycle);
  }

  std::map<std::size_t, JobId> ids;
  std::vector<bool> cancelled(script.size(), false);
  for (std::size_t cycle = 0; cycle <= last_event; ++cycle) {
    for (std::size_t j = 0; j < script.size(); ++j) {
      const ScriptedJob& job = script[j];
      if (ids.count(j) == 0 && job.arrive_cycle <= cycle) {
        JobSpec spec;
        spec.name = "fuzz" + std::to_string(j);
        spec.graph = job.graph;
        spec.steps = job.steps;
        spec.weight = job.weight;
        spec.priority = job.priority;
        spec.seed = job.tensor_seed;
        ids[j] = svc.submit(spec);
      }
      if (ids.count(j) != 0 && !cancelled[j] && job.cancel_cycle != kNever &&
          job.cancel_cycle <= cycle) {
        svc.cancel(ids.at(j));  // returns false once terminal; still "fired"
        cancelled[j] = true;
      }
    }
    svc.run_cycle();
  }
  svc.drain();
  return ids;
}

/// The ledger invariants every churn run must satisfy, whatever the
/// substrate.
void check_ledger_invariants(const SchedulerService& svc,
                             const std::vector<ScriptedJob>& script,
                             const std::map<std::size_t, JobId>& ids) {
  const ServiceSnapshot snap = svc.snapshot();
  // No lost or duplicated jobs.
  ASSERT_EQ(snap.jobs.size(), script.size());
  ASSERT_EQ(ids.size(), script.size());
  EXPECT_EQ(snap.queued, 0u);
  EXPECT_EQ(snap.running, 0u);
  EXPECT_EQ(snap.completed + snap.cancelled, script.size());

  double ledger_service = 0.0;
  for (std::size_t j = 0; j < script.size(); ++j) {
    const ScriptedJob& job = script[j];
    SCOPED_TRACE("job " + std::to_string(j));
    const JobRecord* rec = nullptr;
    for (const JobRecord& r : snap.jobs) {
      if (r.id == ids.at(j)) rec = &r;
    }
    ASSERT_NE(rec, nullptr);
    ASSERT_TRUE(job_state_terminal(rec->state));
    ledger_service += rec->service_ms;
    if (rec->state == JobState::kCompleted) {
      EXPECT_EQ(rec->steps_done, rec->steps_total);
      EXPECT_GE(rec->wait_ms(), 0.0);
      EXPECT_GE(rec->turnaround_ms(), rec->wait_ms());
      EXPECT_GT(rec->service_ms, 0.0);
    } else {
      // Cancelled before its budget ran out (a job that finished its last
      // step transitions to completed at that very boundary).
      EXPECT_LT(rec->steps_done, rec->steps_total);
    }
    if (job.cancel_cycle == static_cast<std::size_t>(-1)) {
      // Never-cancelled jobs must complete — nothing may be starved out.
      EXPECT_EQ(rec->state, JobState::kCompleted);
    }
  }
  // Conservation: machine time folded out of the step results equals the
  // sum credited to the jobs (different accumulation orders, so allow
  // floating-point slack).
  EXPECT_NEAR(ledger_service, snap.stepped_service_ms,
              1e-9 * (1.0 + std::abs(snap.stepped_service_ms)));
}

TEST(ServiceChurn, FuzzedJobStreamOnHostKeepsSoloChecksums) {
  MachineSpec spec = MachineSpec::knl();
  Runtime rt(spec);
  ServiceOptions opt;
  opt.substrate = Substrate::kHost;
  opt.admission.max_corun_jobs = 3;
  SchedulerService svc(rt, opt);

  const auto script = make_script(/*seed=*/42, /*count=*/22);
  const auto ids = run_script(svc, script);
  check_ledger_invariants(svc, script, ids);

  // The acceptance bar: every completed job's checksum is bit-identical to
  // its solo serial reference, whatever co-runners came and went (the
  // service additionally verified every step against the job's first).
  const ServiceSnapshot snap = svc.snapshot();
  std::size_t completed = 0;
  for (std::size_t j = 0; j < script.size(); ++j) {
    const JobRecord& rec = *std::find_if(
        snap.jobs.begin(), snap.jobs.end(),
        [&](const JobRecord& r) { return r.id == ids.at(j); });
    if (rec.state != JobState::kCompleted) continue;
    ++completed;
    EXPECT_DOUBLE_EQ(
        rec.checksum,
        reference_checksum(script[j].graph, script[j].tensor_seed))
        << "job " << j;
  }
  EXPECT_GE(completed, script.size() / 2);  // the script cancels ~1 in 5
  EXPECT_GT(snap.steps_run, 0u);
}

TEST(ServiceChurn, SimSubstrateChurnIsDeterministic) {
  const auto script = make_script(/*seed=*/7, /*count=*/20);

  // Two independent service instances over the same script must produce
  // identical books in every virtual-time field (wall-clock fields like
  // profile_ms naturally differ).
  std::vector<std::vector<JobRecord>> runs;
  std::vector<std::size_t> steps_run;
  for (int run = 0; run < 2; ++run) {
    Runtime rt(MachineSpec::knl());
    ServiceOptions opt;
    opt.substrate = Substrate::kSimulated;
    opt.admission.max_corun_jobs = 3;
    SchedulerService svc(rt, opt);
    const auto ids = run_script(svc, script);
    check_ledger_invariants(svc, script, ids);
    runs.push_back(svc.snapshot().jobs);
    steps_run.push_back(svc.snapshot().steps_run);
  }
  ASSERT_EQ(runs[0].size(), runs[1].size());
  EXPECT_EQ(steps_run[0], steps_run[1]);
  for (std::size_t i = 0; i < runs[0].size(); ++i) {
    SCOPED_TRACE("job record " + std::to_string(i));
    EXPECT_EQ(runs[0][i].id, runs[1][i].id);
    EXPECT_EQ(runs[0][i].state, runs[1][i].state);
    EXPECT_EQ(runs[0][i].steps_done, runs[1][i].steps_done);
    EXPECT_DOUBLE_EQ(runs[0][i].service_ms, runs[1][i].service_ms);
    EXPECT_DOUBLE_EQ(runs[0][i].run_ms, runs[1][i].run_ms);
  }
}

TEST(ServiceChurn, PolicyStateStaysBoundedOverAFiftyJobScript) {
  // The leak this pins: learned admission state (retained fairness ledger,
  // decision-cache entries) must not grow with the number of jobs that have
  // EVER passed through the service — only with the jobs currently alive.
  // Before the reconfigure/retire fixes, each departed job could leave a
  // retained-ledger entry behind forever.
  MachineSpec spec = MachineSpec::knl();
  Runtime rt(spec);
  ServiceOptions opt;
  opt.substrate = Substrate::kHost;
  opt.admission.max_corun_jobs = 3;
  SchedulerService svc(rt, opt);

  const auto script = make_script(/*seed=*/99, /*count=*/50);
  const auto ids = run_script(svc, script);
  check_ledger_invariants(svc, script, ids);

  // Every job is terminal and retired, so no per-tenant state may remain.
  const AdmissionPolicy& policy = rt.host_executor().policy();
  EXPECT_EQ(policy.retained_tenants(), 0u);
  EXPECT_EQ(policy.decision_cache_entries(), 0u);
  // The op arena interns (kind, shape) keys, not tenants: bounded by the
  // distinct op shapes seen, far below one entry per job-step.
  EXPECT_GT(policy.arena_size(), 0u);
  EXPECT_LT(policy.arena_size(), 50u * 9u);
}

TEST(ServiceChurn, WarmProfilesAreReusedAcrossJobGenerations) {
  // Two waves of jobs over the SAME graph: the second wave must profile
  // nothing — its (kind, shape) keys are already warm in the PerfDatabase.
  Runtime rt(MachineSpec::knl());
  ServiceOptions opt;
  opt.substrate = Substrate::kSimulated;
  SchedulerService svc(rt, opt);

  testing::FuzzGraphParams params;
  params.min_nodes = 6;
  params.max_nodes = 8;
  const Graph g = testing::fuzz_graph(123, params);

  JobSpec spec;
  spec.name = "wave1";
  spec.graph = g;
  spec.steps = 2;
  const JobId first = svc.submit(spec);
  svc.drain();
  ASSERT_EQ(svc.snapshot().jobs[0].state, JobState::kCompleted);
  const std::size_t profiled_first = svc.snapshot().jobs[0].profiled_ops;
  EXPECT_GT(profiled_first, 0u);

  spec.name = "wave2";
  const JobId second = svc.submit(spec);
  svc.drain();
  const ServiceSnapshot snap = svc.snapshot();
  const JobRecord& rec2 = *std::find_if(
      snap.jobs.begin(), snap.jobs.end(),
      [&](const JobRecord& r) { return r.id == second; });
  EXPECT_EQ(rec2.state, JobState::kCompleted);
  EXPECT_EQ(rec2.profiled_ops, 0u) << "repeat shapes must reuse warm curves";
  EXPECT_NE(first, second);
}

TEST(ServiceChurn, PriorityOrdersAdmissionWithinTheQueue) {
  // One wide resident job blocks the machine; a high-priority latecomer
  // must be admitted before the low-priority job submitted earlier.
  Runtime rt(MachineSpec::knl());
  ServiceOptions opt;
  opt.substrate = Substrate::kSimulated;
  opt.admission.max_corun_jobs = 2;  // resident + exactly one more
  SchedulerService svc(rt, opt);

  testing::FuzzGraphParams params;
  params.min_nodes = 5;
  params.max_nodes = 7;
  JobSpec blocker;
  blocker.name = "blocker";
  blocker.graph = testing::fuzz_graph(1, params);
  blocker.steps = 6;
  const JobId b = svc.submit(blocker);
  svc.run_cycle();  // admits the blocker (empty machine), runs one step

  JobSpec low;
  low.name = "low";
  low.graph = testing::fuzz_graph(2, params);
  low.steps = 1;
  low.priority = 0;
  const JobId l = svc.submit(low);
  JobSpec high = low;
  high.name = "high";
  high.graph = testing::fuzz_graph(3, params);
  high.priority = 5;
  const JobId h = svc.submit(high);

  svc.run_cycle();  // one of the two waiters is admitted alongside b
  const ServiceSnapshot snap = svc.snapshot();
  const auto state = [&](JobId id) {
    return std::find_if(snap.jobs.begin(), snap.jobs.end(),
                        [&](const JobRecord& r) { return r.id == id; })
        ->state;
  };
  EXPECT_EQ(state(b), JobState::kRunning);
  // The high-priority job was considered first; the low one still waits
  // (max_corun_jobs = 2).
  EXPECT_NE(state(h), JobState::kQueued);
  EXPECT_EQ(state(l), JobState::kQueued);
  svc.drain();
  check_ledger_invariants(
      svc,
      {ScriptedJob{}, ScriptedJob{}, ScriptedJob{}},  // only counts matter
      {{0, b}, {1, l}, {2, h}});
}

TEST(ServiceChurn, CancelBeforeAdmissionNeverRuns) {
  Runtime rt(MachineSpec::knl());
  ServiceOptions opt;
  opt.substrate = Substrate::kSimulated;
  SchedulerService svc(rt, opt);

  JobSpec spec;
  spec.name = "doomed";
  spec.graph = testing::fuzz_graph(9);
  spec.steps = 3;
  const JobId id = svc.submit(spec);
  EXPECT_TRUE(svc.cancel(id));
  EXPECT_FALSE(svc.cancel(999));  // unknown
  svc.drain();
  const JobRecord rec = svc.snapshot().jobs[0];
  EXPECT_EQ(rec.state, JobState::kCancelled);
  EXPECT_EQ(rec.steps_done, 0);
  EXPECT_DOUBLE_EQ(rec.service_ms, 0.0);
  EXPECT_FALSE(svc.cancel(id));  // already terminal
}

TEST(ServiceChurn, SubmitValidation) {
  Runtime rt(MachineSpec::knl());
  SchedulerService svc(rt, {});
  JobSpec empty;
  empty.steps = 1;
  EXPECT_THROW(svc.submit(empty), std::invalid_argument);  // empty graph
  JobSpec zero_steps;
  zero_steps.graph = testing::fuzz_graph(1);
  zero_steps.steps = 0;
  EXPECT_THROW(svc.submit(zero_steps), std::invalid_argument);
}

}  // namespace
}  // namespace opsched::serve
