// SchedulerService: the elastic scheduling service — the long-running layer
// that turns the per-step library (profile once, schedule every step
// adaptively; paper Figure 2) into a job server for one machine. Clients
// submit training jobs at any time; the service admits or queues them
// against profiled capacity, co-runs the resident set step by step through
// the SAME run_step_multi machinery on either substrate (SimMachine or
// HostCorunExecutor — one code path, so they cannot drift), and
// RECONFIGURES the tenant set between steps as jobs arrive, exhaust their
// step budgets, or are cancelled.
//
// Churn semantics (the contract docs/SERVING.md spells out):
//   - the co-located STEP is the atomic unit: arrivals, admissions, and
//     cancellations take effect at step boundaries, never mid-step;
//   - admission profiles a job's ops lazily on first consideration —
//     (kind, shape) keys already warm in the shared PerfDatabase are
//     reused, so repeat shapes cost nothing (and a service warm-started
//     from a saved database profiles nothing at all);
//   - profiling only fills the database, and the runtime's admission
//     policy builds each step's Strategy 1/2 decisions over exactly the
//     graphs that step runs, so a new tenant subset or batch size needs
//     nothing from the service;
//   - jobs keep their scheduler identity across reconfigurations: the
//     JobId is the stable tenant id on the runtime's TenantSet path, so
//     learned state and fairness deficits follow the job, and are retired
//     with it;
//   - on the host substrate every job's per-step checksum is verified
//     bit-identical across its steps at the same batch size — co-runners
//     arriving or leaving must never change a job's numerics;
//   - an inference tenant on a batch-one graph serves every arrived,
//     unserved request in one step, up to kMaxBatchRequests, on its graph
//     rebatched to the next power of two; each request is still booked on
//     its own (arrival, latency, SLO hit).
//
// Threading: submit/cancel/snapshot/wait/drain are safe from any thread.
// The scheduling loop runs either on a background service thread
// (start()/stop()) or inline on the caller of drain() — the loop body is
// the same pump_cycle() either way, driven by the serve::Pump shared
// with ClusterService. Exactly one thread drives the loop at a time; the
// Runtime is only ever touched from that thread.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/runtime.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/admission_control.hpp"
#include "serve/job.hpp"
#include "serve/job_ledger.hpp"
#include "serve/pump.hpp"

namespace opsched::serve {

/// Which machine substrate the service schedules on. Both flow through the
/// identical service code path; only the profile/step calls differ.
enum class Substrate : std::uint8_t {
  kSimulated = 0,  // SimMachine, virtual time
  kHost,           // HostCorunExecutor, real kernels on real threads
};

const char* substrate_name(Substrate s) noexcept;

/// What clock stamps the ledger and paces open-loop arrivals.
///   kWall    — real wall time (util/clock.hpp); production shape, but two
///              runs never book identical timestamps.
///   kVirtual — a deterministic service clock: starts at 0, advances only
///              by step makespans (the max of the step's per-tenant
///              time_ms), jumps to the next arrival when every resident
///              inference tenant is between requests, and books profiling
///              as free. On the simulated substrate this makes the ENTIRE
///              service replayable — same submits, traces, and seeds give
///              bit-identical ledger metrics — which is what the SLO
///              replay tests assert.
enum class ClockMode : std::uint8_t {
  kWall = 0,
  kVirtual,
};

struct ServiceOptions {
  Substrate substrate = Substrate::kSimulated;
  ClockMode clock = ClockMode::kWall;
  AdmissionOptions admission;

  /// Fleet telemetry (both borrowed; must outlive the service; may be
  /// null). `metrics` receives the serve_* family — and, on the host
  /// substrate, the executor's host_*/policy_* families — qualified with
  /// {shard="<instance>"} when `instance` is non-empty. `trace` receives
  /// job/request/step spans under process `trace_pid`, timestamped with
  /// the SERVICE clock: under ClockMode::kVirtual the whole trace is
  /// bit-replayable (host op spans, which use wall time, land under
  /// trace_pid + kHostTracePidOffset). Metrics and traces are pure
  /// observers — attaching them never changes a scheduling decision
  /// (tests/serve/obs_replay_test.cpp pins this bit-for-bit).
  obs::Registry* metrics = nullptr;
  obs::TraceCollector* trace = nullptr;
  std::string instance;
  std::uint32_t trace_pid = 1;
};

/// Wall-clock mode: the longest single idle sleep (ms) while every resident
/// inference tenant is between requests. Sleeping straight through to the
/// next arrival would, with a far-future arrival, wedge the loop (and any
/// cluster pump driving it) for as long; each nap is capped here and the
/// loop re-checks the world. The virtual clock jumps instead of sleeping.
inline constexpr double kMaxIdleWaitMs = 50.0;

/// Host per-op spans use wall time while serve spans may use the virtual
/// clock, so they live in a separate trace process: pid + this offset.
inline constexpr std::uint32_t kHostTracePidOffset = 1000;

/// The most arrived requests of one inference tenant that one co-located
/// step serves. A step runs the tenant's graph rebatched to the next power
/// of two (1, 2, 4, 8 or 16): kBatchSizes graph variants per job at most.
/// Only batch-one graphs batch; any other inference graph serves one
/// request per step.
inline constexpr int kMaxBatchRequests = 16;
inline constexpr std::size_t kBatchSizes = 5;
static_assert(kMaxBatchRequests == 1 << (kBatchSizes - 1));

/// Point-in-time copy of the service's books (see JobRecord for the
/// per-job fields).
struct ServiceSnapshot {
  std::vector<JobRecord> jobs;  // every job ever, ascending id
  std::size_t queued = 0;       // kQueued + kProfiling
  std::size_t running = 0;
  std::size_t completed = 0;
  std::size_t cancelled = 0;
  /// Co-located multi-steps executed so far.
  std::size_t steps_run = 0;
  /// Tenant-set reconfigurations (admissions, retirements, cancellations
  /// of resident jobs) so far.
  std::size_t reconfigurations = 0;
  /// Machine time folded out of step results, accumulated independently of
  /// the per-job ledger — conservation demands this equals the sum of the
  /// jobs' service_ms (the churn tests assert it).
  double stepped_service_ms = 0.0;
  /// The service clock at snapshot time (wall ms or the virtual clock,
  /// per ServiceOptions::clock) — the `now` for goodput_rps on live jobs.
  double now_ms = 0.0;
  /// Metrics registry snapshot, taken under the same lock as the ledger
  /// copy above — counters here reconcile EXACTLY with the ledger-derived
  /// counts (the consistency tests assert equality, not bounds). Empty
  /// when no registry is attached. Note: a registry shared across shards
  /// snapshots the whole fleet's cells, shard-qualified by name.
  obs::MetricsSnapshot metrics;
};

/// Lifetime: borrows `runtime`, which must outlive the service. One
/// service per Runtime — the service assumes exclusive use of the
/// runtime's scheduler state while it exists. Destruction stops the
/// background thread if running.
///
/// On the host substrate a job whose step checksum ever differs from its
/// first step's at the same batch size fails the cycle with
/// std::logic_error — the cross-job corruption detector. A background loop
/// parks on it and drain()/wait() rethrow it.
class SchedulerService : private Pump::Owner {
 public:
  explicit SchedulerService(Runtime& runtime, ServiceOptions options = {});
  ~SchedulerService();

  SchedulerService(const SchedulerService&) = delete;
  SchedulerService& operator=(const SchedulerService&) = delete;

  /// Registers a job and returns its id; the job starts queued and is
  /// considered for admission at the next step boundary. Throws
  /// std::invalid_argument on an empty graph or non-positive step budget,
  /// std::logic_error after stop().
  JobId submit(JobSpec spec);

  /// Requests cancellation. Queued jobs cancel at the next boundary;
  /// running jobs finish their in-flight step first (the step is atomic).
  /// Returns false for unknown or already-terminal jobs. Idempotent.
  bool cancel(JobId id);

  /// Takes a NEVER-ADMITTED job back out of the wait queue, returning its
  /// spec for resubmission elsewhere — the cluster layer's migration
  /// primitive. Only jobs in exactly kQueued can be withdrawn (running
  /// jobs keep their shard: the step is atomic and their checksums must
  /// not change machines mid-run); the shard ledger books the withdrawal
  /// as a cancellation. Returns std::nullopt for unknown, terminal,
  /// running, or mid-profiling jobs.
  std::optional<JobSpec> withdraw(JobId id);

  /// Copy of `id`'s ledger record, with exact p50/p99 latency for an
  /// inference job. Throws std::out_of_range on unknown id.
  JobRecord job_record(JobId id) const;

  /// `id`'s lifecycle state alone: what job_record reports, without copying
  /// the record or sorting its latency series. Throws std::out_of_range on
  /// unknown id.
  JobState job_state(JobId id) const;

  /// The job's profiled width demand, or an UNPROFILED WidthDemand (see
  /// admission_control.hpp) while the job has not reached its first
  /// admission consideration. Throws std::out_of_range on unknown id.
  WidthDemand demand_of(JobId id) const;

  /// Spawns the background service thread. Throws std::logic_error if
  /// already started or already stopped.
  void start() { pump_.start(); }

  /// Stops the background thread after the in-flight cycle, keeping all
  /// ledger state (non-terminal jobs simply stop progressing). Idempotent;
  /// no-op when never started. After stop() the service rejects submits.
  void stop() { pump_.stop(); }

  /// Blocks until every job submitted so far is terminal. With the
  /// background thread running this just waits; otherwise it RUNS the
  /// scheduling loop inline on this thread (the deterministic single-
  /// threaded mode the churn tests script). Returns immediately when all
  /// jobs are already terminal.
  void drain() { pump_.drain(); }

  /// Inline mode: runs ONE scheduling cycle (boundary actions — cancels,
  /// admissions, profiling — then at most one co-located step) on the
  /// caller's thread, and returns true if a step ran. Interleave with
  /// submit()/cancel() to script deterministic churn traces. Throws
  /// std::logic_error while the background thread owns the loop.
  bool run_cycle() { return pump_.run_once(); }

  /// Blocks until `id` is terminal and returns its final record. Requires
  /// the background thread (use drain() in inline mode). Throws
  /// std::out_of_range on unknown id, std::logic_error if the service is
  /// not started (a wait could otherwise never finish).
  JobRecord wait(JobId id);

  ServiceSnapshot snapshot() const;

  /// The service clock right now (wall ms or the virtual clock, per
  /// ServiceOptions::clock) — snapshot().now_ms without copying the books.
  double now_ms() const;

  bool started() const { return pump_.started(); }
  /// Cores of the chosen substrate (the admission capacity base).
  std::size_t capacity_cores() const noexcept { return cores_; }
  const ServiceOptions& options() const noexcept { return options_; }

 private:
  /// Service-private per-job state the ledger record does not carry.
  struct Job {
    JobSpec spec;
    /// The job's step graph at one batch size, and what stepping it needs.
    /// Graphs and programs have stable addresses: the step references them
    /// while the lock is released.
    struct Batch {
      /// rebatch(spec.graph, b) for b > 1, built the first time a step
      /// needs it; null at b == 1, which steps spec.graph itself.
      std::unique_ptr<Graph> graph;
      /// Host substrate: the program bound with the job's seed, created
      /// when the batch size is first profiled.
      std::unique_ptr<HostGraphProgram> program;
      /// The graph's (kind, shape) keys are in the PerfDatabase. At b == 1
      /// this happens at first admission consideration.
      bool profiled = false;
      /// Host substrate: the checksum of the job's first step at this batch
      /// size, which every later step at it must reproduce.
      std::optional<double> checksum;
    };
    /// Indexed by log2 of the batch size: 1, 2, 4, 8, 16. Sized at submit:
    /// kBatchSizes entries for a batchable job, one for any other.
    std::vector<Batch> batches;
    /// Inference on a batch-one graph (graph/graph.hpp is_batch_one): one
    /// step may serve several arrived requests. Set at submit.
    bool batchable = false;
    WidthDemand demand;
    /// Inference: latency of every request served so far (the percentile
    /// basis, see book_latency_percentiles_locked). Freed with the rest of
    /// the working state at terminal.
    std::vector<double> latencies;
    bool cancel_requested = false;
    bool retired = false;  // runtime.retire_tenant(id) already called

    /// The width demand was profiled (batch 1 is profiled at first
    /// admission consideration).
    bool demand_known() const { return batches[0].profiled; }
    const Graph& graph_at(std::size_t b) const {
      return b == 0 ? spec.graph : *batches[b].graph;
    }
  };

  /// One loop iteration (the Pump's pump_cycle): apply cancellations, run
  /// the admission pass (profiling candidates as needed), then one
  /// co-located step over the resident set. Called with `lk` held; may
  /// release and reacquire it around runtime work. Only the loop-driving
  /// thread calls this. Returns false when idle (no resident jobs after
  /// reconfiguration), true after a step or after advancing the clock to
  /// the next open-loop arrival.
  bool pump_cycle(std::unique_lock<std::mutex>& lk) override;

  void apply_cancels_locked();
  void admission_pass(std::unique_lock<std::mutex>& lk);
  void run_one_step(std::unique_lock<std::mutex>& lk);
  /// Profiles `job`'s step graph at batch index `b` (creating its host
  /// program first on the host substrate). Called with the lock RELEASED:
  /// only the loop-driving thread touches the batches of a job that is
  /// being admitted or stepped. The batch's graph must already exist.
  ProfilingReport profile_batch(Job& job, std::size_t b);
  void finish_job_locked(JobId id, JobState terminal);
  /// Books an inference job's p50/p99 latency into `rec` from its exact
  /// latency series. Done when a record leaves the service and at the
  /// terminal transition — not per served request, which re-sorted the
  /// whole series every time. No-op once the series is freed (terminal
  /// records keep the values booked at their transition).
  void book_latency_percentiles_locked(JobRecord& rec) const;
  /// The service clock: wall ms, or the virtual clock in kVirtual mode.
  double now_locked() const;
  /// Resident jobs that can join the NEXT co-located step at clock `now`:
  /// every training job, plus inference jobs with an arrived-but-unserved
  /// request (open-loop tenants between requests sit the step out).
  std::vector<JobId> steppable_locked(double now) const;
  /// Requests the next step serves for `id`: 1 for a training job; for an
  /// inference job its arrived-but-unserved requests at clock `now`, at
  /// most kMaxBatchRequests on a batchable job and 1 otherwise.
  int requests_due_locked(JobId id, double now) const;
  /// Earliest unarrived request among resident inference jobs (service-
  /// clock ms); +infinity when none is pending.
  double next_arrival_ms_locked() const;
  /// True when a boundary action is pending: something submitted/cancelled
  /// that the next cycle must look at.
  bool pump_work_pending() const override;
  bool pump_all_terminal() const override { return ledger_.all_terminal(); }

  /// Telemetry cells resolved once at construction (all null when no
  /// registry is attached). Every update happens under the pump lock, so a
  /// snapshot() taken under the same lock sees counters and ledger in
  /// exact agreement.
  struct Telemetry {
    obs::Counter* submitted = nullptr;
    obs::Counter* admitted_training = nullptr;
    obs::Counter* admitted_inference = nullptr;
    obs::Counter* declined = nullptr;
    obs::Counter* profiled_jobs = nullptr;
    obs::Counter* completed = nullptr;
    obs::Counter* cancelled = nullptr;
    obs::Counter* steps = nullptr;
    obs::Counter* reconfigurations = nullptr;
    obs::Counter* slo_misses = nullptr;
    obs::Gauge* queue_depth = nullptr;
    obs::Gauge* resident = nullptr;
    obs::Histogram* step_ms = nullptr;
    obs::Histogram* request_latency_ms = nullptr;
    obs::Histogram* batch_requests = nullptr;
  };
  /// Registers the serve_* cells (and attaches host-executor telemetry on
  /// the host substrate). Called from the constructor.
  void init_telemetry();
  /// Refreshes the queue/resident gauges; call wherever either changes.
  void update_gauges_locked();
  /// Emits the job's lifecycle spans (whole job + queued/run phases) at
  /// its terminal transition. Service-clock timestamps; tid = job id.
  void trace_job_locked(const JobRecord& rec);

  Runtime& runtime_;
  ServiceOptions options_;
  std::size_t cores_;
  AdmissionController admission_;
  Telemetry telem_;

  JobLedger ledger_;
  std::map<JobId, std::unique_ptr<Job>> jobs_;
  /// Waiting jobs, kept sorted by (inference first, then priority desc,
  /// id asc) — latency-SLO tenants are considered for admission before any
  /// batch job of whatever priority.
  std::vector<JobId> queue_;
  /// Resident (admitted, stepping) jobs, in admission order.
  std::vector<JobId> resident_;
  /// The virtual service clock (kVirtual mode only); ms since construction.
  double vnow_ = 0.0;
  std::size_t steps_run_ = 0;
  std::size_t reconfigurations_ = 0;
  double stepped_service_ms_ = 0.0;

  /// A cancel was requested since the last boundary pass (the idle-wait
  /// wake-up signal alongside a non-empty queue).
  bool pending_cancel_ = false;

  /// Drives cycle(); its lock guards every member above.
  Pump pump_;
};

}  // namespace opsched::serve
