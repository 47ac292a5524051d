// ClusterService: the step from "a machine" to "a service". One front-door
// submit/cancel/drain/wait/snapshot API over N per-machine SchedulerService
// shards, each driving its own Runtime on the existing sim or host
// substrate. The cluster adds exactly three things on top of the shards:
//
//   - PLACEMENT: a pending job lands on a shard chosen by greedy bin-pack
//     over charged width demand (serve/placement.hpp), then an annealing
//     improvement pass over the whole pending batch. Demand is
//     estimated from the shards' PerfDatabases when a matching profile
//     exists; unprofiled jobs are charged conservatively as a full machine
//     (so they spread one-per-shard instead of packing blind).
//
//   - MIGRATION: when the fleet is imbalanced, still-QUEUED jobs are
//     withdrawn from overloaded shards and resubmitted on underloaded ones
//     (SchedulerService::withdraw). Only never-admitted jobs move — a
//     running job keeps its shard, so the per-step checksum contract and
//     the churn-atomicity contract are untouched by rebalancing.
//
//   - FLEET SNAPSHOT: one view aggregating the per-shard ledgers, keyed by
//     fleet-wide ClusterJobIds; per-shard books ride along for inspection.
//
// Determinism: the whole fleet is driven by ONE pump (a serve::Pump, the
// driver SchedulerService uses too: inline in drain(), or the single
// background pump thread started by start() — the same deterministic pump
// body either way; shard service threads are never started). With every
// shard on the virtual clock, identical submit traces and seeds replay the
// entire fleet bit-identically, including placement and migration
// decisions (the annealer runs on a seeded stream).
//
// Threading: submit/cancel/snapshot/wait/drain are safe from any thread,
// exactly like SchedulerService. Per-shard timestamps are on that shard's
// own clock; fleet now_ms is the maximum over shards.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "core/runtime.hpp"
#include "machine/machine_spec.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/placement.hpp"
#include "serve/pump.hpp"
#include "serve/service.hpp"

namespace opsched::serve {

/// Fleet-wide job identity, assigned at the cluster's front door (distinct
/// from the shard-local JobId a placed job also carries).
using ClusterJobId = std::uint64_t;
inline constexpr ClusterJobId kInvalidClusterJob = 0;

struct ClusterServiceOptions {
  std::size_t num_shards = 2;
  /// Per-shard service configuration (substrate, clock, admission, ...).
  ServiceOptions service;
  /// Scheduling options forwarded to every shard's Runtime.
  RuntimeOptions runtime;
  /// Fleet telemetry (both may be null = detached). The cluster registers
  /// its cluster_* family here and hands the same registry/collector to
  /// every shard: shard metrics arrive qualified with {shard="<s>"} and
  /// shard trace spans under process id s+1 (host substrate spans under
  /// s+1+kHostTracePidOffset). Any `metrics`/`instance`/`trace_pid` set on
  /// `service` is overridden per shard. Pure observers — attaching never
  /// changes a placement, migration, or scheduling decision.
  obs::Registry* metrics = nullptr;
  obs::TraceCollector* trace = nullptr;
};

/// Fleet view of one job: where it lives now, how it got there, and the
/// authoritative ledger record from its CURRENT shard. A migrated job's
/// record restarts on the new shard (its clocks are not comparable with
/// the old shard's); `migrations` counts the moves.
struct FleetJob {
  ClusterJobId id = kInvalidClusterJob;
  /// Current shard, or kUnplaced while the job sits at the front door
  /// (pending placement, or cancelled before ever reaching a shard).
  std::size_t shard = kUnplaced;
  JobId local_id = kInvalidJob;
  std::size_t migrations = 0;
  JobRecord record;

  static constexpr std::size_t kUnplaced = static_cast<std::size_t>(-1);
};

/// Point-in-time copy of the fleet's books.
struct FleetSnapshot {
  std::vector<FleetJob> jobs;  // every job ever, ascending cluster id
  std::size_t queued = 0;      // front door + shard kQueued/kProfiling
  std::size_t running = 0;
  std::size_t completed = 0;
  std::size_t cancelled = 0;
  /// Placement decisions taken (one per job reaching a shard, including
  /// each migration's resubmission).
  std::size_t placements = 0;
  std::size_t migrations = 0;
  /// Sums over the shards' books.
  std::size_t steps_run = 0;
  std::size_t reconfigurations = 0;
  double stepped_service_ms = 0.0;
  /// Max over the shards' clocks (each shard clocks its own ledger).
  double now_ms = 0.0;
  /// The raw per-shard books, index = shard. Note: a shard's `cancelled`
  /// count includes migration withdrawals (the shard books a withdraw as a
  /// cancel); the fleet-level counts above do not.
  std::vector<ServiceSnapshot> shards;
  /// Fleet-wide metrics snapshot (empty when no registry is attached),
  /// taken under the cluster lock alongside the books above.
  obs::MetricsSnapshot metrics;
};

class ClusterService : private Pump::Owner {
 public:
  /// Builds `num_shards` identical machines: one Runtime over `shard_spec`
  /// and one SchedulerService each. Throws std::invalid_argument when
  /// options.num_shards is zero.
  ClusterService(const MachineSpec& shard_spec, ClusterServiceOptions options);
  ~ClusterService();

  ClusterService(const ClusterService&) = delete;
  ClusterService& operator=(const ClusterService&) = delete;

  /// Registers a job at the front door and returns its fleet-wide id; the
  /// next pump places it on a shard. Validation as SchedulerService::submit.
  /// Throws std::logic_error after stop().
  ClusterJobId submit(JobSpec spec);

  /// Requests cancellation wherever the job currently lives. Returns false
  /// for unknown or already-terminal jobs. Idempotent.
  bool cancel(ClusterJobId id);

  /// Spawns the background pump thread (the ONLY thread that drives the
  /// shards — their own service threads are never started, so the fleet
  /// stays on one deterministic pump path).
  void start() { pump_.start(); }

  /// Stops the background pump after the in-flight pump cycle. Idempotent;
  /// after stop() the cluster rejects submits.
  void stop() { pump_.stop(); }

  /// Blocks until every job submitted so far is terminal. With the
  /// background pump running this waits; otherwise it RUNS the pump inline
  /// on this thread (the deterministic mode the replay tests script).
  void drain() { pump_.drain(); }

  /// Inline mode: one pump cycle — place pending jobs, rebalance queued
  /// ones, then one service cycle on every shard. Returns true if any
  /// shard made progress or any placement/migration/cancel happened.
  bool run_pump() { return pump_.run_once(); }

  /// Blocks until `id` is terminal and returns its fleet record. Requires
  /// the background pump (use drain() inline). Throws std::out_of_range on
  /// unknown id, std::logic_error when the pump is not started.
  FleetJob wait(ClusterJobId id);

  FleetSnapshot snapshot() const;

  bool started() const { return pump_.started(); }
  std::size_t num_shards() const noexcept { return shards_.size(); }
  /// Shard internals, for tests and tooling. The cluster owns the shard —
  /// do not drive its loop (run_cycle/drain/start) while the cluster runs.
  SchedulerService& shard(std::size_t s) { return *shards_.at(s); }
  Runtime& shard_runtime(std::size_t s) { return *runtimes_.at(s); }
  const ClusterServiceOptions& options() const noexcept { return options_; }

 private:
  /// Cluster-private per-job state.
  struct Job {
    /// Valid until the job is dispatched to a shard (moved out), and again
    /// between a withdraw and the resubmission.
    JobSpec spec;
    /// Set by cancel(). On a job that never reached a shard it means the
    /// job is closed at the front door; on a placed job it is the pump's
    /// "boundary work pending" signal until the shard books the cancel.
    bool cancel_requested = false;
    std::size_t shard = FleetJob::kUnplaced;
    JobId local_id = kInvalidJob;
    std::size_t migrations = 0;
    /// Latest demand estimate the cluster has seen for this job (refreshed
    /// from the shard after its admission-time profiling).
    WidthDemand demand;
    /// Front-door submit time on the FLEET clock (max shard clock) — only
    /// used for the synthetic record of never-placed jobs.
    double submit_ms = 0.0;

    bool placed() const { return shard != FleetJob::kUnplaced; }
  };

  /// One pump cycle (see run_pump); `lk` held, released while the shards
  /// step.
  bool pump_cycle(std::unique_lock<std::mutex>& lk) override;
  /// An unplaced job to place, or a placed job's cancel for its shard's
  /// boundary pass.
  bool pump_work_pending() const override;
  bool pump_all_terminal() const override;
  void place_pending_locked();
  void migrate_queued_locked();
  /// Refreshes cluster_objective / cluster_shard_load gauges from the
  /// current books; no-op when detached.
  void update_load_gauges_locked();
  /// Charged-width loads of every shard from the cluster's books.
  std::vector<ShardLoad> shard_loads_locked() const;
  /// Refreshes each placed job's demand estimate from its shard.
  void refresh_demand_locked();
  /// Pending-job demand: first shard database with a profiled estimate.
  WidthDemand estimate_pending_locked(const JobSpec& spec) const;
  /// The fleet record for `job` (shard ledger copy, or synthesized for
  /// never-placed jobs).
  FleetJob fleet_job_locked(ClusterJobId id, const Job& job) const;
  /// Whether `job` is terminal, from its shard's state alone (no record
  /// copy): the per-pump reads must not grow with the requests served.
  bool terminal_locked(const Job& job) const;
  double fleet_now_locked() const;

  ClusterServiceOptions options_;
  std::vector<std::unique_ptr<Runtime>> runtimes_;
  std::vector<std::unique_ptr<SchedulerService>> shards_;

  std::vector<Job> jobs_;  // index = ClusterJobId - 1 (ids never recycle)
  std::size_t placements_ = 0;
  std::size_t migrations_ = 0;
  /// Mixed into the annealer seed so each batch explores differently while
  /// the whole sequence stays deterministic.
  std::uint64_t placement_batches_ = 0;

  /// Cluster-level telemetry cells (all null when detached).
  obs::Counter* m_placements_ = nullptr;
  obs::Counter* m_migrations_ = nullptr;
  obs::Gauge* m_objective_ = nullptr;
  obs::Gauge* m_objective_before_ = nullptr;
  std::vector<obs::Gauge*> m_shard_load_;  // index = shard

  /// Drives pump_cycle(); its lock guards the cluster's books above (the
  /// shards guard their own).
  Pump pump_;
};

}  // namespace opsched::serve
