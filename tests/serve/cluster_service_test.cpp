// ClusterService: the fleet determinism suite plus the cluster-level
// contracts. The claims under test:
//   - fleet determinism: an identical submit trace on the simulated
//     substrate under the virtual clock replays the ENTIRE fleet
//     bit-identically — per-job records, per-shard books, placement and
//     migration counts — across independent runs AND across drive modes
//     (inline drain vs the background pump thread);
//   - migration preserves numerics: a queued job withdrawn from one shard
//     and resubmitted on another still produces its solo serial reference
//     checksum on the host substrate (only never-admitted jobs move, so
//     this must hold by construction — the test proves it end to end);
//   - placement bookkeeping: every placed job lands on a real shard,
//     fleet counts reconcile with per-shard ledgers, cancels work at the
//     front door and on the shards;
//   - the serve-layer admission bugfix rides through the fleet: an
//     inference job submitted with an absurd width floor is recorded with
//     the floor clamped to the shard's physical cores;
//   - the lifecycle contract SchedulerService has: stop keeps the books
//     and rejects submit/start, stop wakes blocked drain()/wait() callers,
//     and run_pump() is refused while the background pump runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "serve/cluster_service.hpp"
#include "serve/traffic.hpp"
#include "testing/graph_fuzz.hpp"

namespace opsched::serve {
namespace {

Graph small_graph(std::uint64_t seed) {
  testing::FuzzGraphParams params;
  params.min_nodes = 4;
  params.max_nodes = 7;
  params.max_dim = 6;
  return testing::fuzz_graph(seed, params);
}

double reference_checksum(const Graph& g, std::uint64_t seed) {
  HostGraphProgram ref(g, seed, /*tenant=*/0);
  for (const Node& node : g.nodes()) ref.run_node_reference(node.id);
  return ref.step_checksum();
}

/// A mixed fleet script: training jobs of assorted budgets/weights plus
/// two open-loop inference tenants on seeded traces.
std::vector<JobSpec> make_script(std::size_t training_jobs) {
  std::vector<JobSpec> script;
  for (std::size_t j = 0; j < training_jobs; ++j) {
    JobSpec spec;
    spec.name = "train" + std::to_string(j);
    spec.graph = small_graph(100 + j);
    spec.steps = 3 + static_cast<int>(j % 5);
    spec.weight = (j % 3 == 0) ? 2.0 : 1.0;
    spec.priority = static_cast<int>(j % 2);
    spec.seed = 0x5eedULL + j;
    script.push_back(std::move(spec));
  }
  JobSpec inf1;
  inf1.name = "inf-poisson";
  inf1.kind = JobKind::kInference;
  inf1.graph = small_graph(501);
  inf1.arrivals = poisson_trace(/*rate_rps=*/120.0, /*duration_ms=*/120.0,
                                /*seed=*/7);
  inf1.deadline_ms = 50.0;
  inf1.width_floor = 6;
  script.push_back(inf1);
  JobSpec inf2;
  inf2.name = "inf-steady";
  inf2.kind = JobKind::kInference;
  inf2.graph = small_graph(502);
  inf2.arrivals = poisson_trace(/*rate_rps=*/80.0, /*duration_ms=*/100.0,
                                /*seed=*/9);
  inf2.deadline_ms = 40.0;
  inf2.width_floor = 4;
  script.push_back(inf2);
  return script;
}

ClusterServiceOptions sim_virtual_options(std::size_t shards) {
  ClusterServiceOptions opt;
  opt.num_shards = shards;
  opt.service.substrate = Substrate::kSimulated;
  opt.service.clock = ClockMode::kVirtual;
  opt.service.admission.max_corun_jobs = 3;
  return opt;
}

FleetSnapshot run_fleet(const std::vector<JobSpec>& script,
                        std::size_t shards, bool background) {
  ClusterService cluster(MachineSpec::knl(), sim_virtual_options(shards));
  for (const JobSpec& spec : script) cluster.submit(spec);
  if (background) {
    cluster.start();
    cluster.drain();
    cluster.stop();
  } else {
    cluster.drain();
  }
  return cluster.snapshot();
}

void expect_records_identical(const JobRecord& x, const JobRecord& y) {
  EXPECT_EQ(x.id, y.id);
  EXPECT_EQ(x.name, y.name);
  EXPECT_EQ(x.state, y.state);
  EXPECT_EQ(x.kind, y.kind);
  EXPECT_EQ(x.steps_done, y.steps_done);
  EXPECT_EQ(x.width_floor, y.width_floor);
  EXPECT_EQ(x.slo_hits, y.slo_hits);
  EXPECT_EQ(x.corun_launches, y.corun_launches);
  EXPECT_EQ(x.overlay_launches, y.overlay_launches);
  // Clock-derived fields: the virtual clock makes these exact, so the
  // determinism claim is EXPECT_DOUBLE_EQ, not a tolerance.
  EXPECT_DOUBLE_EQ(x.submit_ms, y.submit_ms);
  EXPECT_DOUBLE_EQ(x.admit_ms, y.admit_ms);
  EXPECT_DOUBLE_EQ(x.finish_ms, y.finish_ms);
  EXPECT_DOUBLE_EQ(x.profile_ms, y.profile_ms);
  EXPECT_DOUBLE_EQ(x.service_ms, y.service_ms);
  EXPECT_DOUBLE_EQ(x.run_ms, y.run_ms);
  EXPECT_DOUBLE_EQ(x.p50_latency_ms, y.p50_latency_ms);
  EXPECT_DOUBLE_EQ(x.p99_latency_ms, y.p99_latency_ms);
  EXPECT_DOUBLE_EQ(x.max_latency_ms, y.max_latency_ms);
}

void expect_fleets_identical(const FleetSnapshot& a, const FleetSnapshot& b) {
  EXPECT_EQ(a.queued, b.queued);
  EXPECT_EQ(a.running, b.running);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.cancelled, b.cancelled);
  EXPECT_EQ(a.placements, b.placements);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.steps_run, b.steps_run);
  EXPECT_EQ(a.reconfigurations, b.reconfigurations);
  EXPECT_DOUBLE_EQ(a.stepped_service_ms, b.stepped_service_ms);
  EXPECT_DOUBLE_EQ(a.now_ms, b.now_ms);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    SCOPED_TRACE("fleet job " + std::to_string(i));
    EXPECT_EQ(a.jobs[i].id, b.jobs[i].id);
    EXPECT_EQ(a.jobs[i].shard, b.jobs[i].shard);
    EXPECT_EQ(a.jobs[i].local_id, b.jobs[i].local_id);
    EXPECT_EQ(a.jobs[i].migrations, b.jobs[i].migrations);
    expect_records_identical(a.jobs[i].record, b.jobs[i].record);
  }
  ASSERT_EQ(a.shards.size(), b.shards.size());
  for (std::size_t s = 0; s < a.shards.size(); ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    EXPECT_EQ(a.shards[s].steps_run, b.shards[s].steps_run);
    EXPECT_EQ(a.shards[s].reconfigurations, b.shards[s].reconfigurations);
    EXPECT_DOUBLE_EQ(a.shards[s].stepped_service_ms,
                     b.shards[s].stepped_service_ms);
    ASSERT_EQ(a.shards[s].jobs.size(), b.shards[s].jobs.size());
    for (std::size_t i = 0; i < a.shards[s].jobs.size(); ++i) {
      SCOPED_TRACE("shard job " + std::to_string(i));
      expect_records_identical(a.shards[s].jobs[i], b.shards[s].jobs[i]);
    }
  }
}

TEST(ClusterDeterminism, IdenticalTraceReplaysBitIdenticalFleet) {
  const auto script = make_script(/*training_jobs=*/8);
  const FleetSnapshot a = run_fleet(script, /*shards=*/2, false);
  const FleetSnapshot b = run_fleet(script, /*shards=*/2, false);
  expect_fleets_identical(a, b);
  // The run exercised the fleet: everything completed, across >1 shard.
  EXPECT_EQ(a.completed, script.size());
  EXPECT_GT(a.steps_run, 0u);
  std::vector<bool> used(2, false);
  for (const FleetJob& fj : a.jobs) {
    ASSERT_NE(fj.shard, FleetJob::kUnplaced);
    used.at(fj.shard) = true;
  }
  EXPECT_TRUE(used[0] && used[1]);  // placement actually spread the work
}

TEST(ClusterDeterminism, InlineAndBackgroundPumpAgree) {
  // Same trace, two drive modes: drain() pumping inline on this thread vs
  // the single background pump thread. The pump body is the same code, so
  // the books cannot tell the difference — bit-identical fleet snapshots.
  const auto script = make_script(/*training_jobs=*/6);
  const FleetSnapshot inline_run = run_fleet(script, /*shards=*/2, false);
  const FleetSnapshot background_run = run_fleet(script, /*shards=*/2, true);
  expect_fleets_identical(inline_run, background_run);
}

TEST(ClusterDeterminism, FourShardFleetReplaysToo) {
  const auto script = make_script(/*training_jobs=*/10);
  const FleetSnapshot a = run_fleet(script, /*shards=*/4, false);
  const FleetSnapshot b = run_fleet(script, /*shards=*/4, true);
  expect_fleets_identical(a, b);
  EXPECT_EQ(a.completed, script.size());
}

TEST(ClusterService, MigrationPreservesSoloChecksum) {
  // Engineer an imbalance that forces migration, on the HOST substrate so
  // numerics are real: 2 shards, one resident job each (max_corun_jobs=1),
  // six jobs placed three to a shard. Cancel the two jobs queued on one
  // shard — the other now holds 3 live jobs to its 1, so the rebalancer
  // withdraws a never-admitted job from the loaded shard and requeues it
  // on the emptied one. Wherever each job ends up running, its checksum
  // must equal its solo serial reference (and the shard service
  // re-verifies every step against the job's first internally).
  ClusterServiceOptions opt;
  opt.num_shards = 2;
  opt.service.substrate = Substrate::kHost;
  opt.service.admission.max_corun_jobs = 1;
  ClusterService cluster(MachineSpec::knl(), opt);

  // ONE shared graph, distinct tensor seeds: every job profiles to the
  // same width, so the post-cancel imbalance (1 live vs 3 live) always
  // clears the migration gain threshold — no dependence on fuzzed shapes.
  const Graph shared = small_graph(700);
  std::vector<JobSpec> script;
  std::vector<ClusterJobId> ids;
  for (std::size_t j = 0; j < 6; ++j) {
    JobSpec spec;
    spec.name = "job" + std::to_string(j);
    spec.graph = shared;
    spec.steps = 2;
    spec.seed = 0xBEEFULL + j;
    script.push_back(spec);
    ids.push_back(cluster.submit(std::move(spec)));
  }
  // Pump 1: places all six (three per shard — unprofiled jobs charge a
  // full machine each, and placement balances the charge), admits one per
  // shard.
  cluster.run_pump();
  // Kill the two still-queued jobs on one shard, read from the fleet view.
  const FleetSnapshot placed = cluster.snapshot();
  std::vector<ClusterJobId> queued_on[2];
  for (const FleetJob& fj : placed.jobs) {
    ASSERT_LT(fj.shard, 2u);
    if (fj.record.state == JobState::kQueued)
      queued_on[fj.shard].push_back(fj.id);
  }
  ASSERT_EQ(queued_on[0].size(), 2u);
  ASSERT_EQ(queued_on[1].size(), 2u);
  EXPECT_TRUE(cluster.cancel(queued_on[0][0]));
  EXPECT_TRUE(cluster.cancel(queued_on[0][1]));
  // Pump 2 applies the cancels at the shard boundary; pump 3 sees the
  // 1-vs-3 imbalance and migrates a queued job back to shard 0.
  cluster.run_pump();
  cluster.run_pump();
  EXPECT_GE(cluster.snapshot().migrations, 1u);
  cluster.drain();

  const FleetSnapshot snap = cluster.snapshot();
  EXPECT_EQ(snap.completed, 4u);
  EXPECT_EQ(snap.cancelled, 2u);
  std::size_t migrated_completed = 0;
  for (std::size_t j = 0; j < ids.size(); ++j) {
    const FleetJob& fj = snap.jobs.at(ids[j] - 1);
    if (fj.record.state != JobState::kCompleted) continue;
    if (fj.migrations > 0) ++migrated_completed;
    EXPECT_DOUBLE_EQ(fj.record.checksum,
                     reference_checksum(script[j].graph, script[j].seed))
        << "job " << j << " (migrations " << fj.migrations << ")";
  }
  EXPECT_GE(migrated_completed, 1u);
}

TEST(ClusterService, FrontDoorCancelBeforePlacement) {
  ClusterService cluster(MachineSpec::knl(), sim_virtual_options(2));
  JobSpec spec;
  spec.name = "doomed";
  spec.graph = small_graph(41);
  spec.steps = 5;
  const ClusterJobId id = cluster.submit(spec);
  // Cancelled before any pump ran: the job never reaches a shard.
  EXPECT_TRUE(cluster.cancel(id));
  EXPECT_FALSE(cluster.cancel(id));  // idempotent, already terminal
  cluster.drain();                   // trivially complete
  const FleetSnapshot snap = cluster.snapshot();
  EXPECT_EQ(snap.cancelled, 1u);
  EXPECT_EQ(snap.placements, 0u);
  EXPECT_EQ(snap.jobs.at(0).shard, FleetJob::kUnplaced);
  EXPECT_EQ(snap.jobs.at(0).record.state, JobState::kCancelled);
  EXPECT_GE(snap.jobs.at(0).record.finish_ms, 0.0);
}

TEST(ClusterService, WaitReturnsTerminalFleetRecords) {
  ClusterService cluster(MachineSpec::knl(), sim_virtual_options(2));
  std::vector<ClusterJobId> ids;
  for (int j = 0; j < 4; ++j) {
    JobSpec spec;
    spec.name = "w" + std::to_string(j);
    spec.graph = small_graph(60 + j);
    spec.steps = 2;
    ids.push_back(cluster.submit(std::move(spec)));
  }
  cluster.start();
  for (const ClusterJobId id : ids) {
    const FleetJob fj = cluster.wait(id);
    EXPECT_EQ(fj.record.state, JobState::kCompleted);
    EXPECT_NE(fj.shard, FleetJob::kUnplaced);
  }
  cluster.drain();
  cluster.stop();
  EXPECT_THROW(cluster.submit(JobSpec{}), std::invalid_argument);
  EXPECT_THROW((void)cluster.wait(999), std::out_of_range);
}

TEST(ClusterService, LiveInferenceFleetRecordCarriesShardPercentiles) {
  // Mid-replay, a still-running inference job's fleet record must carry
  // the exact p50/p99 its shard's own snapshot books from the latency
  // series — the fleet view is not a stale or unbooked copy.
  ClusterService cluster(MachineSpec::knl(), sim_virtual_options(2));
  for (const JobSpec& spec : make_script(4)) cluster.submit(spec);
  bool checked = false;
  for (int cycle = 0; cycle < 10000 && !checked; ++cycle) {
    if (!cluster.run_pump()) continue;
    const FleetSnapshot snap = cluster.snapshot();
    for (const FleetJob& fj : snap.jobs) {
      if (fj.record.kind != JobKind::kInference ||
          fj.record.state != JobState::kRunning || fj.record.steps_done < 3)
        continue;
      const std::vector<JobRecord>& shard_jobs = snap.shards.at(fj.shard).jobs;
      const auto it =
          std::find_if(shard_jobs.begin(), shard_jobs.end(),
                       [&](const JobRecord& r) { return r.id == fj.local_id; });
      ASSERT_NE(it, shard_jobs.end());
      EXPECT_GE(fj.record.p50_latency_ms, 0.0);
      EXPECT_GE(fj.record.p99_latency_ms, fj.record.p50_latency_ms);
      EXPECT_DOUBLE_EQ(fj.record.p50_latency_ms, it->p50_latency_ms);
      EXPECT_DOUBLE_EQ(fj.record.p99_latency_ms, it->p99_latency_ms);
      checked = true;
      break;
    }
  }
  EXPECT_TRUE(checked) << "no inference job was observed running";
}

TEST(ClusterService, FleetCountsReconcileWithShardLedgers) {
  const auto script = make_script(/*training_jobs=*/7);
  ClusterService cluster(MachineSpec::knl(), sim_virtual_options(3));
  for (const JobSpec& spec : script) cluster.submit(spec);
  cluster.drain();
  const FleetSnapshot snap = cluster.snapshot();
  EXPECT_EQ(snap.queued + snap.running + snap.completed + snap.cancelled,
            script.size());
  // Sums over shard books match the fleet aggregates.
  std::size_t steps = 0, reconfigs = 0;
  double service_ms = 0.0;
  for (const ServiceSnapshot& s : snap.shards) {
    steps += s.steps_run;
    reconfigs += s.reconfigurations;
    service_ms += s.stepped_service_ms;
  }
  EXPECT_EQ(snap.steps_run, steps);
  EXPECT_EQ(snap.reconfigurations, reconfigs);
  EXPECT_DOUBLE_EQ(snap.stepped_service_ms, service_ms);
  // Placements: every job reached a shard at least once; migrations add
  // one placement each.
  EXPECT_EQ(snap.placements, script.size() + snap.migrations);
}

TEST(ClusterService, OverwideInferenceFloorIsClampedInTheFleetRecord) {
  // The admission bugfix observed end to end: a width floor far beyond
  // the shard's physical cores is clamped at the shard's admission door,
  // recorded clamped, and the job completes instead of starving behind an
  // unsatisfiable reservation.
  ClusterService cluster(MachineSpec::knl(), sim_virtual_options(2));
  const std::size_t cores = cluster.shard(0).capacity_cores();

  JobSpec train;  // keeps the target shard non-idle so the clamp matters
  train.name = "resident";
  train.graph = small_graph(81);
  train.steps = 8;
  cluster.submit(train);

  JobSpec greedy;
  greedy.name = "greedy-floor";
  greedy.kind = JobKind::kInference;
  greedy.graph = small_graph(82);
  greedy.arrivals = poisson_trace(/*rate_rps=*/100.0, /*duration_ms=*/60.0,
                                  /*seed=*/3);
  greedy.deadline_ms = 50.0;
  greedy.width_floor = static_cast<int>(cores) * 10;  // absurd on purpose
  const ClusterJobId id = cluster.submit(greedy);

  cluster.drain();
  const FleetJob fj = cluster.snapshot().jobs.at(id - 1);
  EXPECT_EQ(fj.record.state, JobState::kCompleted);
  EXPECT_EQ(fj.record.width_floor, static_cast<int>(cores));
  EXPECT_GT(fj.record.steps_done, 0);
}

TEST(ClusterService, StopKeepsBooksAndRejectsFurtherWork) {
  ClusterService cluster(MachineSpec::knl(), sim_virtual_options(2));
  cluster.start();
  EXPECT_THROW(cluster.start(), std::logic_error);  // double start

  JobSpec spec;
  spec.name = "before-stop";
  spec.graph = small_graph(3);
  spec.steps = 2;
  const ClusterJobId id = cluster.submit(spec);
  cluster.drain();
  cluster.stop();
  cluster.stop();  // idempotent
  EXPECT_FALSE(cluster.started());

  const FleetSnapshot snap = cluster.snapshot();  // books survive stop
  ASSERT_EQ(snap.jobs.size(), 1u);
  EXPECT_EQ(snap.jobs[0].id, id);
  EXPECT_EQ(snap.jobs[0].record.state, JobState::kCompleted);

  JobSpec late;
  late.graph = small_graph(4);
  late.steps = 1;
  EXPECT_THROW(cluster.submit(late), std::logic_error);
  EXPECT_THROW(cluster.start(), std::logic_error);  // no restart after stop
}

TEST(ClusterService, StopWakesBlockedDrainersAndWaiters) {
  ClusterService cluster(MachineSpec::knl(), sim_virtual_options(2));
  cluster.start();

  // A budget no test machine finishes in the milliseconds before stop().
  JobSpec spec;
  spec.name = "marathon";
  spec.graph = small_graph(11);
  spec.steps = 1000000;
  const ClusterJobId id = cluster.submit(spec);

  std::atomic<int> woken{0};
  std::atomic<int> entered{0};
  std::thread drainer([&] {
    try {
      ++entered;
      cluster.drain();
    } catch (const std::logic_error&) {
      // "stopped with jobs outstanding" or "racing stop()" — either way
      // the waiter WOKE instead of sleeping forever.
      ++woken;
    }
  });
  std::thread waiter([&] {
    try {
      ++entered;
      (void)cluster.wait(id);
    } catch (const std::logic_error&) {
      ++woken;
    }
  });
  while (entered.load() < 2) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  cluster.stop();
  drainer.join();
  waiter.join();
  EXPECT_EQ(woken.load(), 2);
  // The marathon job survives in the books, merely parked.
  const FleetSnapshot snap = cluster.snapshot();
  ASSERT_EQ(snap.jobs.size(), 1u);
  EXPECT_FALSE(job_state_terminal(snap.jobs[0].record.state));
  EXPECT_GT(snap.jobs[0].record.steps_done, 0);
}

TEST(ClusterService, InlinePumpIsRejectedWhileThreadRuns) {
  ClusterService cluster(MachineSpec::knl(), sim_virtual_options(2));
  cluster.start();
  EXPECT_THROW(cluster.run_pump(), std::logic_error);
  cluster.stop();
}

TEST(ClusterService, RejectsZeroShards) {
  ClusterServiceOptions opt;
  opt.num_shards = 0;
  EXPECT_THROW(ClusterService(MachineSpec::knl(), opt),
               std::invalid_argument);
}

}  // namespace
}  // namespace opsched::serve
