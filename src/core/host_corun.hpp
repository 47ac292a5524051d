// HostCorunExecutor: the native execution path — one training step on REAL
// threads running REAL tensor kernels (ops/kernels.hpp via
// HostGraphProgram), scheduled by the same Strategy 1-4 admission logic
// (AdmissionPolicy) that drives the simulator.
//
// The executor adapts the host to both step loops of core/dispatch.hpp.
// For the completion-driven dispatch loop — the paper's runtime structure
// on a physical machine:
//   - the dispatcher thread holds a core map of the host (idle / primary /
//     overlaid) that the loop's idle-core and overlay queries read;
//   - every admitted op gets a ThreadTeam of the chosen width pinned to a
//     disjoint span of host cores (TeamPool::team_pinned), and is handed to
//     a LaunchPad launcher so the dispatcher never blocks on a kernel;
//   - Strategy 4 overlays small ops onto the cores of compute-bound
//     primaries (hyper-thread-context sharing on the real machine; plain
//     core sharing when SMT is off — either way, real contention);
//   - completions return cores and update an online calibration between
//     the profiled curves' predicted timescale and host wall-clock, which
//     the Strategy 3 throughput guard and the interference recorder consume.
// For the FIFO baseline loop, FIFO slot s starts an UNPINNED team on
// launcher lane s and posts to the same sharded completion board.
//
// Multi-tenancy: run_step_multi schedules N independent training graphs
// (one HostGraphProgram per tenant) over ONE shared core map, with the
// loop's per-tenant ready queues and the AdmissionPolicy's weighted-deficit
// walk arbitrating which tenant's ready op claims idle cores — the
// shared-host serving setting of multi-tenant DNN schedulers, driven by the
// paper's Strategy 1-4 runtime. Runtime::run_step_host is the N=1 case.
//
// What it measures: real step wall-clock under runtime concurrency control,
// including every cost the simulator only models — team reuse vs. spawn,
// cache contention between co-runners, dispatch serialization. See
// docs/HOST_EXECUTION.md for how this path relates to the simulator.
#pragma once

#include <cstdint>
#include <vector>

#include "core/admission_policy.hpp"
#include "core/dispatch.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "ops/host_program.hpp"
#include "threading/launch_pad.hpp"
#include "threading/team_pool.hpp"

namespace opsched {

struct HostCorunOptions {
  /// Cores the executor schedules over; 0 means the pool's max width.
  std::size_t cores = 0;
  /// Admission decisions taken per dispatcher wake (AdmissionPolicy::
  /// next_launch_batch's max_launches): up to this many launches share one
  /// running-view snapshot and one walk set-up instead of paying them per
  /// launch. 1 reproduces the historical decision-per-wake loop exactly;
  /// any value yields bit-identical step checksums (scheduling order never
  /// affects results — the differential suite pins this).
  std::size_t decision_batch = 4;
};

/// Lifetime: keeps references to `db` and `pool`; both must outlive the
/// executor. The HostGraphPrograms passed to the run_step_* entry points
/// are only borrowed for the call.
///
/// Thread-safety: the run_step_* entry points must be called from one
/// thread at a time; the executor spawns and joins its own launcher threads
/// internally.
class HostCorunExecutor {
 public:
  /// The embedded AdmissionPolicy decides from `db`, with `default_width`
  /// for ops without a decision (Runtime passes its machine's cores).
  HostCorunExecutor(const PerfDatabase& db, int default_width, TeamPool& pool,
                    RuntimeOptions options, HostCorunOptions host = {});

  /// One CO-LOCATED adaptive step over N tenants: every program's graph
  /// runs to completion on the shared core map, ops interleaving across
  /// tenants under the weighted-deficit admission walk. Slot t of
  /// `programs` carries stable id set.ids[t] (the serving layer passes job
  /// ids), so learned state and — with set.preserve_service — the fairness
  /// deficit follow the job across between-step tenant-set
  /// reconfigurations; TenantSet::slots(n, weights) gives the slot-indexed
  /// population. Returns one StepResult per tenant, in input order: time_ms
  /// is that tenant's makespan (step start to its last completion),
  /// service_ms the kernel wall-time it consumed, checksum its private
  /// deterministic step checksum. Strategies per options.strategies.
  std::vector<StepResult> run_step_multi(
      const std::vector<HostGraphProgram*>& programs, const TenantSet& set);

  /// Baseline step under a uniform (inter_op, intra_op) FIFO policy
  /// (run_fifo): ready ops run in arrival order, at most `inter_op`
  /// concurrently, each on an UNPINNED team of `intra_op` threads (clamped
  /// to the pool) — the OS scatters them, as with TensorFlow's executor.
  /// (1, cores()) is the paper's recommendation baseline. Wall-clock
  /// StepResult with the step checksum filled in.
  StepResult run_step_fifo(HostGraphProgram& program, int inter_op,
                           int intra_op);

  std::size_t recorded_bad_pairs() const {
    return policy_.recorded_bad_pairs();
  }
  void reset_learning() { policy_.reset_learning(); }

  /// Forgets stable tenant id `id`'s learned state and fairness deficit
  /// (see AdmissionPolicy::retire_tenant) — the serving layer calls this
  /// when a job leaves for good.
  void retire_tenant(std::size_t id) { policy_.retire_tenant(id); }

  /// The shared Strategy 1-4 admission logic (same component the simulator
  /// scheduler embeds). Exposed for the drift tests.
  const AdmissionPolicy& policy() const noexcept { return policy_; }

  /// Attaches fleet telemetry. `reg` (may be null) receives the host_*
  /// metric family — launch counters by mode, dispatch handoff latency,
  /// lane occupancy — qualified with {shard="<instance>"} when `instance`
  /// is non-empty; the embedded AdmissionPolicy's policy_* family attaches
  /// alongside. `trace` (may be null) receives one wall-clock span per
  /// completed op under process `trace_pid`, one track per tenant×lane
  /// ("tenant T core C [+ovl]"). Both are observers: attaching never
  /// changes a scheduling decision or a checksum.
  void attach_observability(obs::Registry* reg, obs::TraceCollector* trace,
                            std::uint32_t trace_pid = 1,
                            const std::string& instance = "");

  /// Wall-ms per predicted-ms learned so far (0 until the first
  /// completion). Exposed for tests and the benchmarks' sanity output.
  double calibration() const noexcept { return calib_; }

  std::size_t cores() const noexcept { return cores_; }

 private:
  /// The per-step dispatch substrate over this executor's core map.
  class Substrate;
  /// The per-step FIFO substrate over this executor's pool.
  class FifoSlots;

  /// Persistent-team affinity: the last team each lane launched, so a lane
  /// re-running the same (width, span) skips the TeamPool lock + hash and
  /// keeps waking the workers already pinned (and cache-warm) there.
  struct LaneTeam {
    ThreadTeam* team = nullptr;
    std::size_t width = 0;
    std::size_t slot = 0;
    CoreSet span;
  };

  TeamPool& pool_;
  RuntimeOptions options_;
  HostCorunOptions host_;
  std::size_t cores_;
  AdmissionPolicy policy_;
  /// Workerless width-1 team shared by all single-threaded launches (an
  /// inline team holds no mutable state, so concurrent use is safe).
  ThreadTeam inline1_{1, CoreSet(), /*inline_single=*/true};
  double calib_ = 0.0;  // EWMA of wall/predicted; 0 = no sample yet
  std::vector<LaneTeam> lane_teams_;  // one per lane, persists across steps

  /// Telemetry cells resolved at attach_observability time (all null when
  /// detached); see that method for the contract.
  obs::Registry* metrics_ = nullptr;
  obs::TraceCollector* trace_ = nullptr;
  std::uint32_t trace_pid_ = 1;
  obs::Counter* m_inline_launches_ = nullptr;
  obs::Counter* m_team_launches_ = nullptr;
  obs::Counter* m_overlay_launches_ = nullptr;
  obs::Histogram* m_launch_ms_ = nullptr;
  obs::Histogram* m_lanes_inflight_ = nullptr;
  /// Highest tenant count already given trace track names, so track
  /// metadata is emitted once per population growth instead of per step.
  std::size_t trace_named_tenants_ = 0;
};

}  // namespace opsched
