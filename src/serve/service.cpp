#include "serve/service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "graph/graph.hpp"
#include "util/clock.hpp"
#include "util/stats.hpp"

namespace opsched::serve {

namespace {
/// Timed repeats per host profiling sample (Runtime::profile_host_multi).
constexpr int kProfileRepeats = 1;
}  // namespace

const char* substrate_name(Substrate s) noexcept {
  switch (s) {
    case Substrate::kSimulated: return "sim";
    case Substrate::kHost: return "host";
  }
  return "?";
}

SchedulerService::SchedulerService(Runtime& runtime, ServiceOptions options)
    : runtime_(runtime),
      options_(options),
      cores_(options.substrate == Substrate::kHost
                 ? runtime.host_executor().cores()
                 : runtime.machine().spec().num_cores),
      admission_(options.admission, cores_),
      pump_(*this, "SchedulerService", "run_cycle") {
  init_telemetry();
}

void SchedulerService::init_telemetry() {
  if (options_.metrics != nullptr) {
    obs::Registry& reg = *options_.metrics;
    const auto qual = [&](const char* name) {
      return options_.instance.empty()
                 ? std::string(name)
                 : obs::label(name, "shard", options_.instance);
    };
    telem_.submitted = reg.counter(qual("serve_jobs_submitted_total"));
    telem_.admitted_training =
        reg.counter(qual("serve_jobs_admitted_training_total"));
    telem_.admitted_inference =
        reg.counter(qual("serve_jobs_admitted_inference_total"));
    telem_.declined = reg.counter(qual("serve_admission_declined_total"));
    telem_.profiled_jobs = reg.counter(qual("serve_jobs_profiled_total"));
    telem_.completed = reg.counter(qual("serve_jobs_completed_total"));
    telem_.cancelled = reg.counter(qual("serve_jobs_cancelled_total"));
    telem_.steps = reg.counter(qual("serve_steps_total"));
    telem_.reconfigurations =
        reg.counter(qual("serve_reconfigurations_total"));
    telem_.slo_misses = reg.counter(qual("serve_slo_misses_total"));
    telem_.queue_depth = reg.gauge(qual("serve_queue_depth"));
    telem_.resident = reg.gauge(qual("serve_resident_jobs"));
    telem_.step_ms = reg.histogram(qual("serve_step_ms"));
    telem_.request_latency_ms =
        reg.histogram(qual("serve_request_latency_ms"));
    telem_.batch_requests = reg.histogram(
        qual("serve_batch_requests"),
        {1.0, 2.0, 4.0, 8.0, static_cast<double>(kMaxBatchRequests)});
  }
  if (options_.trace != nullptr) {
    const std::string who = options_.instance.empty()
                                ? std::string("service")
                                : "shard " + options_.instance;
    options_.trace->set_process_name(options_.trace_pid, who);
    options_.trace->set_track_name(options_.trace_pid, 0, "scheduler");
  }
  // Host substrate: the executor (and its embedded policy) report into the
  // same registry; per-op wall-clock spans land in a separate "host"
  // process so virtual-clock serve spans stay replayable on their own.
  if (options_.substrate == Substrate::kHost &&
      (options_.metrics != nullptr || options_.trace != nullptr)) {
    const std::uint32_t host_pid = options_.trace_pid + kHostTracePidOffset;
    if (options_.trace != nullptr) {
      const std::string who = options_.instance.empty()
                                  ? std::string("host executor")
                                  : "shard " + options_.instance + " host";
      options_.trace->set_process_name(host_pid, who);
    }
    runtime_.host_executor().attach_observability(
        options_.metrics, options_.trace, host_pid, options_.instance);
  }
}

void SchedulerService::update_gauges_locked() {
  if (telem_.queue_depth == nullptr) return;
  telem_.queue_depth->set(static_cast<double>(queue_.size()));
  telem_.resident->set(static_cast<double>(resident_.size()));
}

void SchedulerService::trace_job_locked(const JobRecord& rec) {
  if (options_.trace == nullptr) return;
  const auto tid = static_cast<std::uint32_t>(rec.id);
  const double queued_end = rec.admit_ms >= 0.0 ? rec.admit_ms : rec.finish_ms;
  const std::uint32_t pid = options_.trace_pid;
  options_.trace->span({"job " + rec.name, "job", pid, tid, rec.submit_ms,
                        rec.finish_ms - rec.submit_ms});
  options_.trace->span({"queued", "phase", pid, tid, rec.submit_ms,
                        queued_end - rec.submit_ms});
  if (rec.admit_ms >= 0.0) {
    options_.trace->span(
        {rec.state == JobState::kCompleted ? "run" : "run (cancelled)",
         "phase", pid, tid, rec.admit_ms, rec.finish_ms - rec.admit_ms});
  }
}

SchedulerService::~SchedulerService() { stop(); }

JobId SchedulerService::submit(JobSpec spec) {
  validate_job_spec(spec);
  // Validate/clamp the inference width floor HERE, at the admission door:
  // the raw spec may ask for more cores than physically exist, and every
  // downstream consumer (the floors-fit admission test, the per-op walk's
  // TenantSet reservation, the ledger) must only ever see a floor the
  // machine can satisfy.
  if (spec.kind == JobKind::kInference)
    spec.width_floor = admission_.clamped_floor(spec.width_floor);
  const bool batchable =
      spec.kind == JobKind::kInference && is_batch_one(spec.graph);

  auto lk = pump_.lock();
  if (pump_.stopping())
    throw std::logic_error("SchedulerService::submit: service stopped");

  JobRecord& rec = ledger_.add(spec, now_locked());
  const JobId id = rec.id;
  auto job = std::make_unique<Job>();
  job->spec = std::move(spec);
  job->batchable = batchable;
  job->batches.resize(batchable ? kBatchSizes : 1);
  jobs_.emplace(id, std::move(job));

  // Keep the wait queue sorted by (inference first, priority desc, submit
  // order asc): latency-SLO tenants are considered before any batch job,
  // and ids are monotone in submit order, so this triple is the full key.
  const auto rank = [this](JobId jid) {
    const JobRecord& r = ledger_.at(jid);
    return std::make_pair(r.kind == JobKind::kInference ? 0 : 1,
                          -r.priority);
  };
  const auto mine = rank(id);
  const auto pos = std::find_if(
      queue_.begin(), queue_.end(), [&](JobId other) {
        return rank(other) > mine;
      });
  queue_.insert(pos, id);
  if (telem_.submitted != nullptr) {
    telem_.submitted->inc();
    update_gauges_locked();
  }
  if (options_.trace != nullptr) {
    options_.trace->set_track_name(options_.trace_pid,
                                   static_cast<std::uint32_t>(id),
                                   "job " + std::to_string(id) + " " +
                                       ledger_.at(id).name);
  }
  pump_.notify();
  return id;
}

bool SchedulerService::cancel(JobId id) {
  auto lk = pump_.lock();
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  if (job_state_terminal(ledger_.at(id).state)) return false;
  it->second->cancel_requested = true;
  pending_cancel_ = true;
  pump_.notify();
  return true;
}

std::optional<JobSpec> SchedulerService::withdraw(JobId id) {
  auto lk = pump_.lock();
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  // Exactly kQueued: running jobs keep their machine (the step is atomic
  // and checksums must not change substrate mid-run), and a mid-profiling
  // job is owned by the admission pass until it relocks.
  if (ledger_.at(id).state != JobState::kQueued) return std::nullopt;
  const auto pos = std::find(queue_.begin(), queue_.end(), id);
  if (pos == queue_.end()) return std::nullopt;  // admission pass owns it
  queue_.erase(pos);
  JobSpec spec = std::move(it->second->spec);
  // The shard's books close the job as cancelled; the caller (the cluster
  // layer) owns the fleet-level record that survives the move.
  finish_job_locked(id, JobState::kCancelled);
  return spec;
}

JobRecord SchedulerService::job_record(JobId id) const {
  auto lk = pump_.lock();
  JobRecord rec = ledger_.at(id);
  book_latency_percentiles_locked(rec);
  return rec;
}

JobState SchedulerService::job_state(JobId id) const {
  auto lk = pump_.lock();
  return ledger_.at(id).state;
}

void SchedulerService::book_latency_percentiles_locked(JobRecord& rec) const {
  const auto it = jobs_.find(rec.id);
  if (it == jobs_.end() || it->second->latencies.empty()) return;
  rec.p50_latency_ms = percentile(it->second->latencies, 50.0);
  rec.p99_latency_ms = percentile(it->second->latencies, 99.0);
}

WidthDemand SchedulerService::demand_of(JobId id) const {
  auto lk = pump_.lock();
  const auto it = jobs_.find(id);
  if (it == jobs_.end())
    throw std::out_of_range("SchedulerService::demand_of: unknown job " +
                            std::to_string(id));
  if (!it->second->demand_known()) {
    WidthDemand unknown;
    unknown.profiled = false;
    return unknown;
  }
  return it->second->demand;
}

bool SchedulerService::pump_work_pending() const {
  return !queue_.empty() || pending_cancel_;
}

JobRecord SchedulerService::wait(JobId id) {
  auto lk = pump_.lock();
  if (ledger_.find(id) == nullptr)
    throw std::out_of_range("SchedulerService::wait: unknown job " +
                            std::to_string(id));
  pump_.wait(lk, [&] { return job_state_terminal(ledger_.at(id).state); });
  return ledger_.at(id);
}

double SchedulerService::now_locked() const {
  return options_.clock == ClockMode::kVirtual ? vnow_ : wall_time_ms();
}

std::vector<JobId> SchedulerService::steppable_locked(double now) const {
  std::vector<JobId> out;
  out.reserve(resident_.size());
  for (const JobId id : resident_) {
    const Job& job = *jobs_.at(id);
    if (job.spec.kind != JobKind::kInference) {
      out.push_back(id);
      continue;
    }
    const JobRecord& rec = ledger_.at(id);
    const auto served = static_cast<std::size_t>(rec.steps_done);
    if (served < job.spec.arrivals.size() &&
        rec.submit_ms + job.spec.arrivals[served] <= now) {
      out.push_back(id);
    }
  }
  return out;
}

int SchedulerService::requests_due_locked(JobId id, double now) const {
  const Job& job = *jobs_.at(id);
  if (job.spec.kind != JobKind::kInference) return 1;
  const JobRecord& rec = ledger_.at(id);
  const int cap = job.batchable ? kMaxBatchRequests : 1;
  const std::vector<double>& arrivals = job.spec.arrivals;
  auto next = static_cast<std::size_t>(rec.steps_done);
  int due = 0;
  while (due < cap && next < arrivals.size() &&
         rec.submit_ms + arrivals[next] <= now) {
    ++due;
    ++next;
  }
  return due;
}

double SchedulerService::next_arrival_ms_locked() const {
  double next = std::numeric_limits<double>::infinity();
  for (const JobId id : resident_) {
    const Job& job = *jobs_.at(id);
    if (job.spec.kind != JobKind::kInference) continue;
    const JobRecord& rec = ledger_.at(id);
    const auto served = static_cast<std::size_t>(rec.steps_done);
    if (served < job.spec.arrivals.size())
      next = std::min(next, rec.submit_ms + job.spec.arrivals[served]);
  }
  return next;
}

ServiceSnapshot SchedulerService::snapshot() const {
  auto lk = pump_.lock();
  ServiceSnapshot snap;
  snap.jobs = ledger_.snapshot();
  for (JobRecord& rec : snap.jobs) book_latency_percentiles_locked(rec);
  snap.queued = ledger_.count(JobState::kQueued) +
                ledger_.count(JobState::kProfiling);
  snap.running = ledger_.count(JobState::kRunning);
  snap.completed = ledger_.count(JobState::kCompleted);
  snap.cancelled = ledger_.count(JobState::kCancelled);
  snap.steps_run = steps_run_;
  snap.reconfigurations = reconfigurations_;
  snap.stepped_service_ms = stepped_service_ms_;
  snap.now_ms = now_locked();
  // Under the pump lock with every counter update also under it: the
  // registry view and the ledger copy above are mutually consistent (no
  // torn reads).
  if (options_.metrics != nullptr) snap.metrics = options_.metrics->snapshot();
  return snap;
}

double SchedulerService::now_ms() const {
  auto lk = pump_.lock();
  return now_locked();
}

void SchedulerService::finish_job_locked(JobId id, JobState terminal) {
  ledger_.transition(id, terminal, now_locked());
  book_latency_percentiles_locked(ledger_.at(id));
  if (telem_.submitted != nullptr) {
    (terminal == JobState::kCompleted ? telem_.completed : telem_.cancelled)
        ->inc();
    update_gauges_locked();
  }
  trace_job_locked(ledger_.at(id));
  Job& job = *jobs_.at(id);
  if (!job.retired) {
    // Drop the job's learned scheduler state on both substrates; profiled
    // curves stay (they are keyed by shape, not by job).
    runtime_.retire_tenant(static_cast<std::size_t>(id));
    job.retired = true;
  }
  // Release the job's working memory (bound tensors, graph) — the ledger
  // record is the only thing a terminal job still owes anyone, so a long-
  // running service's footprint tracks the RESIDENT set, not every job
  // ever served.
  for (Job::Batch& b : job.batches) {
    b.program.reset();
    b.graph.reset();
  }
  job.spec.graph = Graph();
  job.latencies = std::vector<double>();
  pump_.notify();
}

void SchedulerService::apply_cancels_locked() {
  pending_cancel_ = false;
  for (auto& [id, job] : jobs_) {
    if (!job->cancel_requested) continue;
    const JobState state = ledger_.at(id).state;
    if (job_state_terminal(state)) continue;
    if (state == JobState::kRunning) {
      resident_.erase(std::find(resident_.begin(), resident_.end(), id));
      ++reconfigurations_;
      if (telem_.reconfigurations != nullptr) telem_.reconfigurations->inc();
    } else {
      // kQueued (kProfiling only exists transiently inside the admission
      // pass, which handles its own cancellations on relock).
      queue_.erase(std::find(queue_.begin(), queue_.end(), id));
    }
    finish_job_locked(id, JobState::kCancelled);
  }
}

void SchedulerService::admission_pass(std::unique_lock<std::mutex>& lk) {
  bool progress = true;
  while (progress) {
    progress = false;
    // Scan a copy: profiling releases the lock, and submits/cancels may
    // reshape the queue meanwhile — any structural change restarts the
    // scan on fresh state.
    const std::vector<JobId> scan(queue_);
    for (const JobId id : scan) {
      if (std::find(queue_.begin(), queue_.end(), id) == queue_.end())
        continue;  // admitted or cancelled by an earlier restart
      Job& job = *jobs_.at(id);
      if (job.cancel_requested) {
        queue_.erase(std::find(queue_.begin(), queue_.end(), id));
        finish_job_locked(id, JobState::kCancelled);
        progress = true;
        continue;
      }

      if (!job.demand_known()) {
        // Lazy profiling at first admission consideration: warm
        // (kind, shape) keys in the shared PerfDatabase are reused, so
        // only genuinely new shapes cost hill-climb samples.
        ledger_.transition(id, JobState::kProfiling, now_locked());
        lk.unlock();
        const double t0 = wall_time_ms();
        ProfilingReport report;
        WidthDemand demand;
        try {
          report = profile_batch(job, 0);
          demand = estimate_demand(job.spec.graph, runtime_.database());
        } catch (...) {
          // pump_cycle() must exit with the lock held whatever happens in the
          // unlocked region — the loop/drain handlers mutate shared state.
          lk.lock();
          ledger_.transition(id, JobState::kQueued, now_locked());
          throw;
        }
        // The virtual clock books profiling as free: replay determinism
        // would otherwise leak real profiling wall time into every
        // downstream arrival comparison.
        const double profile_ms = options_.clock == ClockMode::kVirtual
                                      ? 0.0
                                      : wall_time_ms() - t0;
        lk.lock();
        job.demand = demand;
        job.batches[0].profiled = true;
        JobRecord& rec = ledger_.at(id);
        rec.profile_ms += profile_ms;
        rec.profiled_ops += report.unique_ops;
        if (telem_.profiled_jobs != nullptr) telem_.profiled_jobs->inc();
        if (job.cancel_requested) {
          queue_.erase(std::find(queue_.begin(), queue_.end(), id));
          finish_job_locked(id, JobState::kCancelled);
        }
        progress = true;
        break;  // restart the scan: the queue may have changed meanwhile
      }

      std::vector<ResidentDemand> resident_demands;
      resident_demands.reserve(resident_.size());
      for (const JobId rid : resident_) {
        const Job& rj = *jobs_.at(rid);
        // The ledger's width_floor is the EFFECTIVE floor (validated at
        // submit: >= 1, capped at the physical cores), so the floors-fit
        // test below sums reservations the machine can actually honor.
        resident_demands.push_back(
            {rj.demand, rj.spec.kind, ledger_.at(rid).width_floor});
      }
      if (admission_.admit(job.demand, job.spec.kind,
                           ledger_.at(id).width_floor, resident_demands)) {
        queue_.erase(std::find(queue_.begin(), queue_.end(), id));
        resident_.push_back(id);
        ledger_.transition(id, JobState::kRunning, now_locked());
        ++reconfigurations_;
        if (telem_.submitted != nullptr) {
          (job.spec.kind == JobKind::kInference ? telem_.admitted_inference
                                                : telem_.admitted_training)
              ->inc();
          telem_.reconfigurations->inc();
          update_gauges_locked();
        }
        progress = true;
      } else {
        if (telem_.declined != nullptr) telem_.declined->inc();
        if (ledger_.at(id).state == JobState::kProfiling) {
          // Profiled but declined: back to the queue with its demand cached.
          ledger_.transition(id, JobState::kQueued, now_locked());
        }
      }
      // Declined jobs stay queued; the scan continues — a narrower job
      // further back may still fit (backfill; see docs/SERVING.md).
    }
  }
}

ProfilingReport SchedulerService::profile_batch(Job& job, std::size_t b) {
  Job::Batch& batch = job.batches[b];
  if (options_.substrate == Substrate::kSimulated)
    return runtime_.profile_multi({&job.graph_at(b)});
  if (batch.program == nullptr) {
    batch.program = std::make_unique<HostGraphProgram>(
        job.graph_at(b), job.spec.seed, /*tenant=*/0);
  }
  return runtime_.profile_host_multi({batch.program.get()}, kProfileRepeats);
}

void SchedulerService::run_one_step(std::unique_lock<std::mutex>& lk) {
  // Only STEPPABLE tenants join this step: inference tenants between
  // requests sit it out (open loop — their next request has not arrived),
  // so the step's cores go to tenants with actual work.
  const double step_start = now_locked();
  const std::vector<JobId> stepped = steppable_locked(step_start);
  const std::size_t n = stepped.size();
  // One entry per stepped tenant.
  struct Slot {
    Job* job = nullptr;
    /// Requests this step serves (1 for a training job).
    int requests = 1;
    /// log2 of the batch size the tenant's graph runs at: the next power
    /// of two at or above `requests`.
    std::size_t batch = 0;
    /// Set when this step is the batch size's first use and profiled it.
    std::optional<ProfilingReport> profiled;
    double profile_ms = 0.0;
  };
  std::vector<Slot> slots(n);
  TenantSet set;
  set.preserve_service = true;
  std::vector<const Graph*> graphs;
  for (std::size_t t = 0; t < n; ++t) {
    const JobId id = stepped[t];
    Slot& slot = slots[t];
    slot.job = jobs_.at(id).get();
    slot.requests = requests_due_locked(id, step_start);
    while ((1 << slot.batch) < slot.requests) ++slot.batch;
    Job::Batch& b = slot.job->batches[slot.batch];
    if (slot.batch > 0 && b.graph == nullptr) {
      b.graph = std::make_unique<Graph>(
          rebatch(slot.job->spec.graph, std::int64_t{1} << slot.batch));
    }
    graphs.push_back(&slot.job->graph_at(slot.batch));
    set.ids.push_back(static_cast<std::size_t>(id));
    set.weights.push_back(ledger_.at(id).weight);
    // Inference tenants are latency-critical in the core admission walk:
    // visited first at every op boundary, with their width floor kept
    // clear of batch picks (TenantSet::floors). The ledger's floor is the
    // validated one — never wider than the machine, so the reservation is
    // always satisfiable.
    set.floors.push_back(ledger_.at(id).width_floor);
  }

  lk.unlock();
  std::vector<StepResult> results;
  try {
    std::vector<HostGraphProgram*> programs;
    for (Slot& slot : slots) {
      // A batch size's first use profiles its new shapes (booked below).
      if (!slot.job->batches[slot.batch].profiled) {
        const double t0 = wall_time_ms();
        slot.profiled = profile_batch(*slot.job, slot.batch);
        slot.profile_ms = wall_time_ms() - t0;
      }
      if (options_.substrate == Substrate::kHost)
        programs.push_back(slot.job->batches[slot.batch].program.get());
    }
    results = options_.substrate == Substrate::kHost
                  ? runtime_.run_step_multi_host(programs, set)
                  : runtime_.run_step_multi(graphs, set);
  } catch (...) {
    // pump_cycle() must exit with the lock held whatever happens in the
    // unlocked region — the loop/drain handlers mutate shared state.
    lk.lock();
    throw;
  }
  lk.lock();

  ++steps_run_;
  // The step's makespan: the longest per-tenant time of this co-located
  // step. The virtual clock advances by it; telemetry books it either way.
  double makespan = 0.0;
  for (const StepResult& r : results)
    makespan = std::max(makespan, r.time_ms);
  if (options_.clock == ClockMode::kVirtual) vnow_ += makespan;
  if (telem_.steps != nullptr) {
    telem_.steps->inc();
    telem_.step_ms->observe(makespan);
  }
  if (options_.trace != nullptr) {
    obs::TraceSpan span;
    span.name = "step " + std::to_string(steps_run_);
    // The largest batch size an inference tenant ran in this step.
    std::optional<std::size_t> widest;
    for (const Slot& slot : slots) {
      if (slot.job->spec.kind == JobKind::kInference)
        widest = std::max(widest.value_or(0), slot.batch);
    }
    if (widest.has_value())
      span.name += " batch " + std::to_string(1 << *widest);
    span.cat = "step";
    span.pid = options_.trace_pid;
    span.tid = 0;
    span.start_ms = step_start;
    span.dur_ms = makespan;
    options_.trace->span(std::move(span));
  }
  const double now = now_locked();
  for (std::size_t t = 0; t < n; ++t) {
    const StepResult& r = results[t];
    const Slot& slot = slots[t];
    Job& job = *slot.job;
    Job::Batch& b = job.batches[slot.batch];
    JobRecord& rec = ledger_.at(stepped[t]);
    if (slot.profiled.has_value()) {
      b.profiled = true;
      // The virtual clock books profiling as free, as at admission.
      if (options_.clock == ClockMode::kWall) rec.profile_ms += slot.profile_ms;
      rec.profiled_ops += slot.profiled->unique_ops;
    }
    if (options_.substrate == Substrate::kHost) {
      if (rec.steps_done == 0) rec.checksum = r.checksum;
      if (!b.checksum.has_value()) {
        b.checksum = r.checksum;
      } else if (r.checksum != *b.checksum) {
        throw std::logic_error(
            "SchedulerService: job " + std::to_string(stepped[t]) +
            " step checksum drifted — co-run corruption");
      }
    }
    rec.service_ms += r.service_ms;
    rec.run_ms += r.time_ms;
    rec.corun_launches += r.corun_launches;
    rec.overlay_launches += r.overlay_launches;
    stepped_service_ms_ += r.service_ms;
    if (job.spec.kind != JobKind::kInference) {
      ++rec.steps_done;
      continue;
    }
    if (telem_.batch_requests != nullptr)
      telem_.batch_requests->observe(slot.requests);
    // This step served the job's `slot.requests` oldest pending requests
    // (FIFO): book each one's arrival -> completion latency against the
    // SLO.
    for (int k = 0; k < slot.requests; ++k) {
      const auto idx = static_cast<std::size_t>(rec.steps_done++);
      const double arrival = rec.submit_ms + job.spec.arrivals[idx];
      const double latency = std::max(0.0, now - arrival);
      job.latencies.push_back(latency);
      if (latency <= rec.deadline_ms) {
        ++rec.slo_hits;
      } else if (telem_.slo_misses != nullptr) {
        telem_.slo_misses->inc();
      }
      if (telem_.request_latency_ms != nullptr)
        telem_.request_latency_ms->observe(latency);
      if (options_.trace != nullptr) {
        obs::TraceSpan span;
        span.name = "req " + std::to_string(idx);
        span.cat = "request";
        span.pid = options_.trace_pid;
        span.tid = static_cast<std::uint32_t>(stepped[t]);
        span.start_ms = arrival;
        span.dur_ms = latency;
        options_.trace->span(std::move(span));
      }
      rec.max_latency_ms = std::max(rec.max_latency_ms, latency);
    }
  }
  for (const JobId id : stepped) {
    const JobRecord& rec = ledger_.at(id);
    if (rec.steps_done >= rec.steps_total) {
      resident_.erase(std::find(resident_.begin(), resident_.end(), id));
      ++reconfigurations_;
      if (telem_.reconfigurations != nullptr) telem_.reconfigurations->inc();
      finish_job_locked(id, JobState::kCompleted);
    }
  }
  pump_.notify();
}

bool SchedulerService::pump_cycle(std::unique_lock<std::mutex>& lk) {
  apply_cancels_locked();
  admission_pass(lk);
  if (resident_.empty()) return false;
  if (steppable_locked(now_locked()).empty()) {
    // Every resident tenant is an inference job between requests. The
    // open loop says when work arrives next — jump the virtual clock
    // there, or sleep the wall clock until then (a submit or cancel
    // wakes the sleeper early).
    const double next = next_arrival_ms_locked();
    if (!std::isfinite(next)) {
      // No resident inference tenant has a future arrival (an exhausted
      // or malformed trace — submit() rejects non-finite offsets, so this
      // is defense in depth). There is nothing to wait FOR: report idle
      // instead of feeding an unbounded duration to the clock or the
      // condition variable.
      return false;
    }
    if (options_.clock == ClockMode::kVirtual) {
      vnow_ = std::max(vnow_, next);
    } else {
      // Bounded nap: never sleep past kMaxIdleWaitMs in one go, however
      // far the next arrival is (see kMaxIdleWaitMs).
      const double wait_ms = std::min(next - wall_time_ms(), kMaxIdleWaitMs);
      if (wait_ms > 0.0)
        pump_.nap(lk, std::chrono::duration<double, std::milli>(wait_ms));
    }
    return true;
  }
  run_one_step(lk);
  return true;
}

}  // namespace opsched::serve
