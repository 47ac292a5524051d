// Job model of the elastic scheduling service (src/serve): what a client
// submits, the lifecycle a job moves through, and the per-job ledger record
// the service keeps. A *job* is one training run — a step graph plus a step
// budget — that the service co-locates with other jobs on the one machine
// substrate, reconfiguring the tenant set between steps as jobs arrive,
// finish, and cancel. See docs/SERVING.md.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace opsched::serve {

/// Service-wide job identity, assigned at submit. Also used as the STABLE
/// tenant id on the runtime's TenantSet path, so scheduler learned state and
/// fairness deficits follow the job across tenant-set reconfigurations.
using JobId = std::uint64_t;
inline constexpr JobId kInvalidJob = 0;

/// Lifecycle:   kQueued -> kProfiling -> kRunning -> kCompleted
/// with kProfiling allowed back to kQueued (profiled but declined
/// admission — the demand estimate is kept, so the next attempt skips
/// straight to the admit decision), kQueued allowed straight to kRunning
/// (demand already known from an earlier attempt), and kCancelled reachable
/// from every non-terminal state. kCompleted and kCancelled are terminal.
enum class JobState : std::uint8_t {
  kQueued = 0,
  kProfiling,
  kRunning,
  kCompleted,
  kCancelled,
};
inline constexpr std::size_t kNumJobStates = 5;

const char* job_state_name(JobState s) noexcept;
bool job_state_terminal(JobState s) noexcept;
/// True when `from -> to` is a legal lifecycle edge (see diagram above).
bool job_transition_valid(JobState from, JobState to) noexcept;

/// What kind of tenant a job is. Training jobs are throughput-oriented
/// closed loops (run `steps` co-located steps, each a full fwd+bwd+update
/// trace). Inference jobs are the production shape: a forward-only graph
/// serving an OPEN-LOOP request stream — requests arrive on their own
/// schedule (serve/traffic.hpp), each carries a latency deadline, and the
/// service books per-request SLO attainment and goodput instead of step
/// throughput.
enum class JobKind : std::uint8_t {
  kTraining = 0,
  kInference,
};

const char* job_kind_name(JobKind k) noexcept;

/// What a client submits: a step graph and the knobs the service schedules
/// it by.
struct JobSpec {
  /// Display name (not an identity; the returned JobId is).
  std::string name;
  /// The step graph: a full training trace for kTraining, a forward-only
  /// view for kInference (models::zoo_forward hands out cached views).
  /// Copied into the service, which must outlive the caller's copy anyway —
  /// jobs run long after submit() returns.
  Graph graph;
  JobKind kind = JobKind::kTraining;
  /// Training: the job completes after this many co-located steps.
  /// Ignored for inference jobs, whose budget is `arrivals.size()`.
  int steps = 1;
  /// Inference only: request arrival offsets in ms AFTER submit, ascending.
  /// Requests are served FIFO; one forward step serves every arrived
  /// request, up to 16, when the graph is batch-one (see
  /// SchedulerService), and one request otherwise. Must be non-empty for
  /// kInference; must be empty for kTraining.
  std::vector<double> arrivals;
  /// Inference only: per-request latency SLO in service-clock ms
  /// (arrival -> completion). A request served within deadline_ms is an
  /// SLO hit; the ledger reports attainment and goodput over these.
  double deadline_ms = 100.0;
  /// Inference only: width floor while co-running — the cores the core
  /// admission walk keeps free of batch work whenever this tenant has a
  /// pending request (see TenantSet::floors). 0 means 1 (a latency tenant
  /// always has SOME preempt-at-op-boundary priority).
  int width_floor = 0;
  /// Relative claim on contended cores while co-running (the weighted-
  /// deficit fairness walk's weight; non-positive values mean 1.0).
  double weight = 1.0;
  /// Admission priority class: higher classes are considered first
  /// whenever the service reconfigures; FIFO by submit order within a
  /// class. Priority affects WAITING order only — once admitted, only
  /// `weight` matters.
  int priority = 0;
  /// Deterministic tensor namespace on the host substrate. Two jobs with
  /// the same (graph, seed) own bit-identical private tensors; give
  /// concurrent same-graph jobs distinct seeds so a cross-job write would
  /// break a checksum instead of hiding.
  std::uint64_t seed = 0x5eedULL;
};

/// Validates the client-facing fields of `spec` (the checks both
/// SchedulerService::submit and ClusterService::submit apply before
/// accepting a job): non-empty graph; for training a positive step budget
/// and no arrival trace; for inference a non-empty, ascending, FINITE,
/// non-negative arrival trace and a positive finite deadline. Throws
/// std::invalid_argument naming the offending field.
void validate_job_spec(const JobSpec& spec);

/// One job's ledger entry. Timestamps are on the service clock
/// (wall-clock ms since an arbitrary epoch, both substrates); -1 marks
/// "not yet". Aggregates accumulate across the job's co-located steps.
struct JobRecord {
  JobId id = kInvalidJob;
  std::string name;
  JobState state = JobState::kQueued;
  JobKind kind = JobKind::kTraining;
  /// Training: steps of the budget. Inference: requests (steps_total is the
  /// arrival-trace length; steps_done counts requests served, and one
  /// co-located step serves up to 16 of them).
  int steps_total = 0;
  int steps_done = 0;
  double weight = 1.0;
  int priority = 0;

  /// Inference: the EFFECTIVE width floor the service reserves — the spec's
  /// width_floor validated at admission (raised to 1, capped at the
  /// machine's physical cores, so the reservation handed to the per-op walk
  /// is always satisfiable). 0 for training jobs.
  int width_floor = 0;

  double submit_ms = -1.0;  // set at submit
  double admit_ms = -1.0;   // first transition to kRunning
  double finish_ms = -1.0;  // transition to a terminal state

  /// Profiling cost paid at this job's admission, plus at the first step at
  /// each batch size of an inference job (0 when every (kind, shape) key
  /// was already warm in the PerfDatabase).
  double profile_ms = 0.0;
  std::size_t profiled_ops = 0;

  /// Machine time this job's ops consumed across all its steps (the
  /// fairness basis), and the sum of its per-step makespans (once per step,
  /// however many requests the step served).
  double service_ms = 0.0;
  double run_ms = 0.0;
  std::size_t corun_launches = 0;
  std::size_t overlay_launches = 0;

  /// Host substrate: the checksum of the job's first step. Every later step
  /// must reproduce the checksum of the job's first step at the same batch
  /// size; the service throws if one drifts. 0.0 on the simulated
  /// substrate, which never touches tensor values.
  double checksum = 0.0;

  // -- inference (SLO) metrics; zero/negative for training jobs -----------

  /// Per-request SLO copied from the spec.
  double deadline_ms = 0.0;
  /// Requests served within deadline_ms so far.
  std::size_t slo_hits = 0;
  /// Request latency (arrival -> completion) aggregates over the requests
  /// served so far; percentiles are finalized from the full latency series
  /// as requests complete. -1 while no request was served.
  double p50_latency_ms = -1.0;
  double p99_latency_ms = -1.0;
  double max_latency_ms = -1.0;

  /// Queue latency: submit to first admission (-1 while never admitted).
  double wait_ms() const {
    return admit_ms < 0.0 ? -1.0 : admit_ms - submit_ms;
  }
  /// Submit to terminal state (-1 while not terminal).
  double turnaround_ms() const {
    return finish_ms < 0.0 ? -1.0 : finish_ms - submit_ms;
  }
  /// Fraction of served requests that met the deadline (1.0 before any
  /// request was served — an empty window has no misses).
  double slo_attainment() const {
    return steps_done == 0
               ? 1.0
               : static_cast<double>(slo_hits) /
                     static_cast<double>(steps_done);
  }
  /// SLO-hitting requests per second of the job's lifetime so far
  /// (submit -> finish, or submit -> `now_ms` while live). The canonical
  /// "goodput" of a latency-SLO tenant: work delivered on time, not work
  /// delivered late.
  double goodput_rps(double now_ms) const {
    const double end = finish_ms >= 0.0 ? finish_ms : now_ms;
    const double span = end - submit_ms;
    return span > 0.0 ? static_cast<double>(slo_hits) / span * 1000.0 : 0.0;
  }
};

}  // namespace opsched::serve
