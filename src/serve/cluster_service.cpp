#include "serve/cluster_service.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/rng.hpp"

namespace opsched::serve {

namespace {
/// Hard cap on migrations per pump cycle (each one is a shard withdraw +
/// resubmit; unbounded rebalancing could thrash a bursty queue).
constexpr std::size_t kMaxMigrationsPerPump = 2;
/// A queued job's move must improve the balance objective by more than
/// this to be worth the requeue.
constexpr double kMigrationMinGain = 1e-9;
/// Base seed of the placement annealer, mixed with the batch counter so
/// successive batches explore differently, still deterministically.
constexpr std::uint64_t kAnnealSeed = 0x5e7a11ULL;
}  // namespace

ClusterService::ClusterService(const MachineSpec& shard_spec,
                               ClusterServiceOptions options)
    : options_(std::move(options)),
      pump_(*this, "ClusterService", "run_pump") {
  if (options_.num_shards == 0)
    throw std::invalid_argument("ClusterService: zero shards");
  runtimes_.reserve(options_.num_shards);
  shards_.reserve(options_.num_shards);
  for (std::size_t s = 0; s < options_.num_shards; ++s) {
    runtimes_.push_back(
        std::make_unique<Runtime>(shard_spec, options_.runtime));
    ServiceOptions so = options_.service;
    so.metrics = options_.metrics;
    so.trace = options_.trace;
    so.instance = std::to_string(s);
    so.trace_pid = static_cast<std::uint32_t>(s + 1);
    shards_.push_back(std::make_unique<SchedulerService>(*runtimes_.back(),
                                                         std::move(so)));
  }
  if (options_.metrics != nullptr) {
    obs::Registry& reg = *options_.metrics;
    m_placements_ = reg.counter("cluster_placements_total");
    m_migrations_ = reg.counter("cluster_migrations_total");
    m_objective_ = reg.gauge("cluster_objective");
    m_objective_before_ = reg.gauge("cluster_objective_before");
    m_shard_load_.reserve(options_.num_shards);
    for (std::size_t s = 0; s < options_.num_shards; ++s)
      m_shard_load_.push_back(reg.gauge(
          obs::label("cluster_shard_load", "shard", std::to_string(s))));
  }
}

ClusterService::~ClusterService() { stop(); }

ClusterJobId ClusterService::submit(JobSpec spec) {
  validate_job_spec(spec);
  auto lk = pump_.lock();
  if (pump_.stopping())
    throw std::logic_error("ClusterService::submit: cluster stopped");
  Job job;
  job.submit_ms = fleet_now_locked();
  job.demand.profiled = false;  // nothing known until a shard profiles it
  job.spec = std::move(spec);
  jobs_.push_back(std::move(job));
  pump_.notify();
  return static_cast<ClusterJobId>(jobs_.size());
}

bool ClusterService::cancel(ClusterJobId id) {
  auto lk = pump_.lock();
  if (id == kInvalidClusterJob || id > jobs_.size()) return false;
  Job& job = jobs_[id - 1];
  if (!job.placed()) {
    if (job.cancel_requested) return false;
    // Never reached a shard: close it at the front door, synchronously.
    job.cancel_requested = true;
    pump_.notify();
    return true;
  }
  job.cancel_requested = true;
  const bool accepted = shards_[job.shard]->cancel(job.local_id);
  pump_.notify();
  return accepted;
}

bool ClusterService::pump_work_pending() const {
  // An unplaced, uncancelled job waits for placement; a cancel on a placed
  // job needs the pump to drive that shard's boundary pass.
  for (const Job& job : jobs_)
    if (job.placed() == job.cancel_requested) return true;
  return false;
}

FleetJob ClusterService::wait(ClusterJobId id) {
  auto lk = pump_.lock();
  if (id == kInvalidClusterJob || id > jobs_.size())
    throw std::out_of_range("ClusterService::wait: unknown job " +
                            std::to_string(id));
  pump_.wait(lk, [&] { return terminal_locked(jobs_[id - 1]); });
  return fleet_job_locked(id, jobs_[id - 1]);
}

FleetSnapshot ClusterService::snapshot() const {
  auto lk = pump_.lock();
  FleetSnapshot snap;
  snap.jobs.reserve(jobs_.size());
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    FleetJob fj = fleet_job_locked(static_cast<ClusterJobId>(i + 1),
                                   jobs_[i]);
    switch (fj.record.state) {
      case JobState::kQueued:
      case JobState::kProfiling: ++snap.queued; break;
      case JobState::kRunning: ++snap.running; break;
      case JobState::kCompleted: ++snap.completed; break;
      case JobState::kCancelled: ++snap.cancelled; break;
    }
    snap.jobs.push_back(std::move(fj));
  }
  snap.placements = placements_;
  snap.migrations = migrations_;
  snap.shards.reserve(shards_.size());
  for (const auto& shard : shards_) {
    snap.shards.push_back(shard->snapshot());
    const ServiceSnapshot& s = snap.shards.back();
    snap.steps_run += s.steps_run;
    snap.reconfigurations += s.reconfigurations;
    snap.stepped_service_ms += s.stepped_service_ms;
    snap.now_ms = std::max(snap.now_ms, s.now_ms);
  }
  if (options_.metrics != nullptr) snap.metrics = options_.metrics->snapshot();
  return snap;
}

double ClusterService::fleet_now_locked() const {
  double now = 0.0;
  for (const auto& shard : shards_) now = std::max(now, shard->now_ms());
  return now;
}

bool ClusterService::terminal_locked(const Job& job) const {
  if (!job.placed()) return job.cancel_requested;
  return job_state_terminal(shards_[job.shard]->job_state(job.local_id));
}

bool ClusterService::pump_all_terminal() const {
  for (const Job& job : jobs_)
    if (!terminal_locked(job)) return false;
  return true;
}

FleetJob ClusterService::fleet_job_locked(ClusterJobId id,
                                          const Job& job) const {
  FleetJob fj;
  fj.id = id;
  fj.migrations = job.migrations;
  if (job.placed()) {
    fj.shard = job.shard;
    fj.local_id = job.local_id;
    fj.record = shards_[job.shard]->job_record(job.local_id);
    return fj;
  }
  // Never reached a shard: synthesize the front-door view from the spec.
  fj.record.id = kInvalidJob;
  fj.record.name = job.spec.name;
  fj.record.state =
      job.cancel_requested ? JobState::kCancelled : JobState::kQueued;
  fj.record.kind = job.spec.kind;
  fj.record.steps_total = job.spec.kind == JobKind::kInference
                              ? static_cast<int>(job.spec.arrivals.size())
                              : job.spec.steps;
  fj.record.weight = job.spec.weight > 0.0 ? job.spec.weight : 1.0;
  fj.record.priority = job.spec.priority;
  fj.record.submit_ms = job.submit_ms;
  if (job.cancel_requested) fj.record.finish_ms = job.submit_ms;
  return fj;
}

std::vector<ShardLoad> ClusterService::shard_loads_locked() const {
  std::vector<ShardLoad> loads(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s)
    loads[s].cores = shards_[s]->capacity_cores();
  for (const Job& job : jobs_) {
    if (!job.placed() || terminal_locked(job)) continue;
    loads[job.shard].width +=
        placement_charged_width(job.demand, loads[job.shard].cores);
  }
  return loads;
}

void ClusterService::refresh_demand_locked() {
  for (Job& job : jobs_) {
    if (!job.placed() || job.demand.profiled) continue;
    const WidthDemand d = shards_[job.shard]->demand_of(job.local_id);
    if (d.profiled) job.demand = d;
  }
}

WidthDemand ClusterService::estimate_pending_locked(
    const JobSpec& spec) const {
  // First shard database holding matching curves wins — shards profile the
  // same (kind, shape) keys identically, so any hit is as good as another.
  for (const auto& rt : runtimes_) {
    const WidthDemand d = estimate_demand(spec.graph, rt->database());
    if (d.profiled) return d;
  }
  WidthDemand unknown;
  unknown.profiled = false;
  return unknown;
}

void ClusterService::place_pending_locked() {
  std::vector<std::size_t> pending;  // indices into jobs_
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    const Job& job = jobs_[i];
    if (!job.placed() && !job.cancel_requested) pending.push_back(i);
  }
  if (pending.empty()) return;

  std::vector<double> widths;
  widths.reserve(pending.size());
  const std::vector<ShardLoad> base = shard_loads_locked();
  for (const std::size_t i : pending) {
    Job& job = jobs_[i];
    if (!job.demand.profiled)
      job.demand = estimate_pending_locked(job.spec);
    // Charge against the first shard's core count — shards are identical
    // machines (one spec for the whole fleet).
    widths.push_back(placement_charged_width(job.demand, base[0].cores));
  }

  std::vector<std::size_t> assignment = greedy_place(widths, base);
  if (shards_.size() > 1) {
    assignment = anneal_place(widths, base, std::move(assignment),
                              mix64(kAnnealSeed, placement_batches_));
  }
  ++placement_batches_;

  for (std::size_t k = 0; k < pending.size(); ++k) {
    Job& job = jobs_[pending[k]];
    const std::size_t s = assignment[k];
    job.local_id = shards_[s]->submit(std::move(job.spec));
    job.spec = JobSpec();
    job.shard = s;
    ++placements_;
    if (m_placements_ != nullptr) m_placements_->inc();
  }
}

void ClusterService::migrate_queued_locked() {
  if (shards_.size() < 2) return;
  std::vector<ShardLoad> loads = shard_loads_locked();
  std::size_t moved = 0;
  for (std::size_t i = 0;
       i < jobs_.size() && moved < kMaxMigrationsPerPump; ++i) {
    Job& job = jobs_[i];
    if (!job.placed() || job.cancel_requested) continue;
    // Only never-admitted jobs move: a running job keeps its shard (the
    // step is atomic and its checksums must not change machines mid-run).
    // kQueued is never re-entered after admission, so the state alone says
    // the job was never admitted.
    if (shards_[job.shard]->job_state(job.local_id) != JobState::kQueued)
      continue;

    const std::size_t from = job.shard;
    const double w = placement_charged_width(job.demand, loads[from].cores);
    std::size_t to = from;
    double best_rel = std::numeric_limits<double>::infinity();
    for (std::size_t s = 0; s < loads.size(); ++s) {
      if (s == from) continue;
      const double rel = (loads[s].width + w) /
                         static_cast<double>(std::max<std::size_t>(
                             1, loads[s].cores));
      if (rel < best_rel) {
        best_rel = rel;
        to = s;
      }
    }
    if (to == from) continue;
    const auto term = [](const ShardLoad& l, double delta) {
      const double rel =
          (l.width + delta) /
          static_cast<double>(std::max<std::size_t>(1, l.cores));
      return rel * rel;
    };
    const double gain = term(loads[from], 0.0) + term(loads[to], 0.0) -
                        term(loads[from], -w) - term(loads[to], w);
    if (gain <= kMigrationMinGain) continue;

    std::optional<JobSpec> spec = shards_[from]->withdraw(job.local_id);
    if (!spec.has_value()) continue;  // state changed under us: leave it
    job.local_id = shards_[to]->submit(std::move(*spec));
    job.shard = to;
    ++job.migrations;
    ++migrations_;
    ++placements_;
    if (m_migrations_ != nullptr) {
      m_migrations_->inc();
      m_placements_->inc();
    }
    loads[from].width -= w;
    loads[to].width += w;
    ++moved;
  }
}

void ClusterService::update_load_gauges_locked() {
  if (m_objective_ == nullptr) return;
  const std::vector<ShardLoad> loads = shard_loads_locked();
  m_objective_->set(placement_objective(loads));
  for (std::size_t s = 0; s < loads.size(); ++s)
    m_shard_load_[s]->set(loads[s].width);
}

bool ClusterService::pump_cycle(std::unique_lock<std::mutex>& lk) {
  bool progress = false;

  // Close out front-door cancellations of still-unplaced jobs (cancel()
  // marks them terminal synchronously; this just counts the progress so
  // an idle pump woken only by such a cancel reports it).
  refresh_demand_locked();
  if (m_objective_before_ != nullptr)
    m_objective_before_->set(placement_objective(shard_loads_locked()));
  const std::size_t placements_before = placements_;
  place_pending_locked();
  migrate_queued_locked();
  update_load_gauges_locked();
  progress |= placements_ != placements_before;

  // Drive every shard one service cycle, round-robin, with the cluster
  // lock released: submit/cancel/snapshot stay responsive while shards
  // step, and shard cycles only touch shard state.
  lk.unlock();
  bool shard_worked = false;
  try {
    for (const auto& shard : shards_) shard_worked |= shard->run_cycle();
  } catch (...) {
    lk.lock();
    throw;
  }
  lk.lock();

  // A cancel_requested flag is the pump's "boundary work pending" signal;
  // drop it once the shard has booked the cancel, or the background pump
  // would never park again.
  for (Job& job : jobs_) {
    if (job.placed() && job.cancel_requested && terminal_locked(job))
      job.cancel_requested = false;
  }
  return progress || shard_worked;
}

}  // namespace opsched::serve
