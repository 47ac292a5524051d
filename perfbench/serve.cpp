// serve_infer and fleet_churn: replays through a 4-shard ClusterService on
// the simulated substrate and the virtual clock, pumped one cycle at a time
// by the benchmark so every pump, submit and snapshot is timed from outside.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <stdexcept>

#include "inputs.hpp"
#include "machine/machine_spec.hpp"
#include "models/models.hpp"
#include "models/zoo.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/cluster_service.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace serve = opsched::serve;
using opsched::Graph;

namespace {

constexpr std::size_t kShards = 4;
constexpr double kDeadlineMs = 60.0;
constexpr int kWidthFloor = 8;
constexpr double kMainRps = 25.0;          // per inference tenant
constexpr std::size_t kRequestsPerTenant = 1500;
constexpr std::size_t kLadderRequests = 250;  // per tenant and rate
const double kLadderRps[] = {10.0, 15.0, 20.0, 25.0, 30.0};
// Training tenants outlast the request stream and are cancelled once its
// last request is answered, so they co-run with it from start to end.
constexpr int kTrainSteps = 1000000;
// Replays per untraced run (at least; more while --seconds lasts).
constexpr std::size_t kServeRounds = 2;
constexpr std::size_t kFleetRounds = 3;
constexpr int kSetups = 51;                // set-ups per untraced run (each ~1 ms)

constexpr std::size_t kHostProbeSteps = 20;

constexpr std::size_t kWaves = 12;
constexpr std::size_t kJobsPerWave = 30;
constexpr int kPumpsPerWave = 6;

serve::ClusterServiceOptions cluster_options(opsched::obs::Registry* reg,
                                             opsched::obs::TraceCollector* tc) {
  serve::ClusterServiceOptions opt;
  opt.num_shards = kShards;
  opt.service.substrate = serve::Substrate::kSimulated;
  opt.service.clock = serve::ClockMode::kVirtual;
  opt.metrics = reg;
  opt.trace = tc;
  return opt;
}

/// Everything a replay observes from outside the cluster.
struct Replay {
  double wall_s = 0.0;        // first submit to drained
  std::vector<double> pump_us;
  std::size_t idle_pumps = 0;
  std::vector<double> submit_us;
  double snapshot_ms = 0.0;
  /// Per request (serve) or completed job (fleet): the virtual latency.
  std::vector<double> latency_ms;
  /// Cumulative replay wall time (s) at each request's completion, in
  /// completion order.
  std::vector<double> done_wall_s;
  std::size_t items = 0;      // requests (serve) or submitted jobs (fleet)
  serve::FleetSnapshot snap;
  /// Field-by-field virtual-clock books, for same-seed comparison.
  std::vector<double> books;
  std::vector<double> shard_now_ms;
  // fleet_churn only.
  std::size_t cancels_accepted = 0;
  std::size_t train_steps = 0;
  // serve_infer only.
  std::vector<std::vector<double>> tenant_latency_ms;
  std::size_t slo_hits = 0;
  std::vector<double> train_rate;  // steps per virtual second, per tenant
};

void append_books(const serve::FleetSnapshot& snap, std::vector<double>& out) {
  for (const serve::FleetJob& j : snap.jobs) {
    const serve::JobRecord& r = j.record;
    const double fields[] = {
        static_cast<double>(j.id), static_cast<double>(j.shard),
        static_cast<double>(j.local_id), static_cast<double>(j.migrations),
        static_cast<double>(r.state), static_cast<double>(r.steps_total),
        static_cast<double>(r.steps_done), static_cast<double>(r.width_floor),
        r.submit_ms, r.admit_ms, r.finish_ms, r.profile_ms,
        static_cast<double>(r.profiled_ops), r.service_ms, r.run_ms,
        static_cast<double>(r.corun_launches), static_cast<double>(r.overlay_launches),
        static_cast<double>(r.slo_hits), r.p50_latency_ms, r.p99_latency_ms,
        r.max_latency_ms};
    out.insert(out.end(), std::begin(fields), std::end(fields));
  }
  const double totals[] = {
      static_cast<double>(snap.completed), static_cast<double>(snap.cancelled),
      static_cast<double>(snap.placements), static_cast<double>(snap.migrations),
      static_cast<double>(snap.steps_run), static_cast<double>(snap.reconfigurations),
      snap.stepped_service_ms, snap.now_ms};
  out.insert(out.end(), std::begin(totals), std::end(totals));
}

/// Book checks shared by both workloads: every job terminal, completed +
/// cancelled == submitted, and service time conserved between the job
/// records and the shards' step books.
void check_books(const Replay& rep, std::size_t submitted, Result& res,
                 const std::string& what) {
  const serve::FleetSnapshot& snap = rep.snap;
  std::size_t terminal = 0;
  for (const serve::FleetJob& j : snap.jobs)
    if (serve::job_state_terminal(j.record.state)) ++terminal;
  if (terminal != submitted || snap.jobs.size() != submitted)
    res.fail(rep.items, what + ": " + std::to_string(submitted - terminal) +
                            " jobs not terminal after drain");
  if (snap.completed + snap.cancelled != submitted)
    res.fail(rep.items, what + ": completed + cancelled != submitted");
  double job_service = 0.0, shard_service = 0.0;
  for (const serve::ServiceSnapshot& s : snap.shards) {
    shard_service += s.stepped_service_ms;
    for (const serve::JobRecord& r : s.jobs) job_service += r.service_ms;
  }
  // The two sums add the same step results in different orders.
  if (std::abs(job_service - shard_service) > 1e-9 * std::max(1.0, shard_service))
    res.fail(rep.items, what + ": job service_ms does not sum to the shards' stepped_service_ms");
}

// -- serve_infer ------------------------------------------------------------

struct ServeInputs {
  std::vector<std::vector<double>> arrivals;  // per inference tenant
  std::vector<std::uint64_t> tensor_seeds;
};

ServeInputs serve_inputs(std::uint64_t seed, double rps, std::size_t requests) {
  ServeInputs in;
  for (std::size_t t = 0; t < kShards; ++t) {
    in.arrivals.push_back(poisson_arrivals(
        rps, requests, derive(seed, 1000 * static_cast<std::uint64_t>(rps) + t)));
    in.tensor_seeds.push_back(derive(seed, 50 + t));
  }
  return in;
}

/// What a replay runs on: the tenant graphs and a fresh cluster.
struct World {
  std::map<std::string, Graph> graphs;
  std::unique_ptr<serve::ClusterService> cluster;
};

/// Builds the graphs in `models` and a fresh 4-shard cluster: the set-up a
/// user pays before the first submit.
World make_world(const std::vector<std::string>& models, opsched::obs::Registry* reg,
                 opsched::obs::TraceCollector* tc, SpanRecorder& spans) {
  Scope setup(spans, "setup", "bench");
  World w;
  {
    Scope build(spans, "build_graphs", "models");
    for (const std::string& m : models) {
      if (m == "resnet50_host.forward")
        w.graphs.emplace(m, opsched::models::zoo_find("resnet50_host")->build_forward(1));
      else
        w.graphs.emplace(m, fleet_graph(m));
    }
  }
  Scope make(spans, "ClusterService", "cluster");
  w.cluster = std::make_unique<serve::ClusterService>(opsched::MachineSpec::knl(),
                                                      cluster_options(reg, tc));
  return w;
}

const std::vector<std::string> kServeModels = {"resnet50_host.forward", "mnist_host"};

/// Median set-up time over `count` set-ups of `models`.
double setup_seconds(const std::vector<std::string>& models, int count, SpanRecorder& spans) {
  std::vector<double> s;
  for (int k = 0; k < count; ++k) {
    const double t0 = now_s();
    const World w = make_world(models, nullptr, nullptr, spans);
    s.push_back(now_s() - t0);
  }
  return median_of(std::move(s));
}

/// One open-loop replay: per shard one resnet50_host inference tenant and
/// one mnist_host training tenant, pumped until every request is answered,
/// then drained.
Replay replay_serve(const ServeInputs& in, opsched::obs::Registry* reg,
                    opsched::obs::TraceCollector* tc, SpanRecorder& spans,
                    Result& res) {
  Replay rep;
  World world = make_world(kServeModels, reg, tc, spans);
  serve::ClusterService* cluster = world.cluster.get();
  const Graph& infer = world.graphs.at("resnet50_host.forward");
  const Graph& train = world.graphs.at("mnist_host");

  Scope replay(spans, "replay", "bench");
  const double t0 = now_s();
  std::vector<serve::ClusterJobId> inf_ids, train_ids;
  const auto submit = [&](serve::JobSpec spec) {
    Scope sub(spans, "submit", "cluster");
    const double a = now_s();
    const serve::ClusterJobId id = cluster->submit(std::move(spec));
    rep.submit_us.push_back((now_s() - a) * 1e6);
    return id;
  };
  for (std::size_t t = 0; t < kShards; ++t) {
    serve::JobSpec spec;
    spec.name = "infer" + std::to_string(t);
    spec.kind = serve::JobKind::kInference;
    spec.graph = infer;
    spec.arrivals = in.arrivals[t];
    spec.deadline_ms = kDeadlineMs;
    spec.width_floor = kWidthFloor;
    spec.seed = in.tensor_seeds[t];
    inf_ids.push_back(submit(std::move(spec)));
  }
  for (std::size_t t = 0; t < kShards; ++t) {
    serve::JobSpec spec;
    spec.name = "train" + std::to_string(t);
    spec.graph = train;
    spec.steps = kTrainSteps;
    spec.seed = in.tensor_seeds[t] ^ 1;
    train_ids.push_back(submit(std::move(spec)));
  }

  const auto pump = [&]() {
    Scope p(spans, "run_pump", "cluster");
    const double a = now_s();
    const bool progress = cluster->run_pump();
    rep.pump_us.push_back((now_s() - a) * 1e6);
    if (!progress) ++rep.idle_pumps;
    return progress;
  };
  pump();  // places every job
  // Where each job landed (one snapshot; placed inference jobs are admitted
  // at once, so they never migrate afterwards).
  struct Tenant {
    std::size_t shard = 0;
    serve::JobId inf = 0;
    std::size_t served = 0;
    double submit_ms = 0.0;
    const std::vector<double>* arrivals = nullptr;
    std::vector<double> latency_ms;
  };
  std::vector<Tenant> tenants(kShards);
  {
    const serve::FleetSnapshot first = cluster->snapshot();
    std::vector<int> inference_on(kShards, 0), training_on(kShards, 0);
    for (std::size_t t = 0; t < kShards; ++t) {
      const serve::FleetJob& fj = first.jobs[inf_ids[t] - 1];
      tenants[t].shard = fj.shard;
      tenants[t].inf = fj.local_id;
      tenants[t].submit_ms = fj.record.submit_ms;
      tenants[t].arrivals = &in.arrivals[t];
      if (fj.shard < kShards) ++inference_on[fj.shard];
      const std::size_t train_shard = first.jobs[train_ids[t] - 1].shard;
      if (train_shard < kShards) ++training_on[train_shard];
    }
    for (std::size_t s = 0; s < kShards; ++s)
      if (inference_on[s] != 1 || training_on[s] != 1)
        throw std::logic_error(
            "serve_infer: placement did not give every shard one inference and one training tenant");
  }

  const auto observe = [&]() {
    for (Tenant& ten : tenants) {
      serve::SchedulerService& shard = cluster->shard(ten.shard);
      const serve::JobRecord inf = shard.job_record(ten.inf);
      const double now = shard.now_ms();
      // At most one request per shard per pump: one step serves one.
      while (static_cast<std::size_t>(inf.steps_done) > ten.served) {
        const double arrival = ten.submit_ms + (*ten.arrivals)[ten.served];
        const double latency = std::max(0.0, now - arrival);
        rep.latency_ms.push_back(latency);
        ten.latency_ms.push_back(latency);
        rep.done_wall_s.push_back(now_s() - t0);
        ++ten.served;
      }
    }
  };
  observe();
  const auto unanswered = [&]() {
    for (const Tenant& ten : tenants)
      if (ten.served < ten.arrivals->size()) return true;
    return false;
  };
  // A pump without progress while requests are outstanding is a stall; the
  // served-vs-arrivals check below counts what was left unanswered.
  while (unanswered() && pump()) observe();
  for (const serve::ClusterJobId id : train_ids) {
    Scope c(spans, "cancel", "cluster", id);
    if (!cluster->cancel(id))
      res.fail(1, "serve_infer: a training tenant ended before the request stream");
  }
  {
    Scope drain(spans, "drain", "cluster");
    cluster->drain();
  }
  rep.wall_s = now_s() - t0;
  {
    Scope snap(spans, "snapshot", "cluster");
    const double a = now_s();
    rep.snap = cluster->snapshot();
    rep.snapshot_ms = (now_s() - a) * 1e3;
  }
  for (std::size_t s = 0; s < kShards; ++s)
    rep.shard_now_ms.push_back(cluster->shard(s).now_ms());

  std::size_t arrivals = 0;
  for (const auto& a : in.arrivals) arrivals += a.size();
  rep.items = arrivals;
  check_books(rep, 2 * kShards, res, "serve_infer");
  std::size_t served = 0;
  for (std::size_t t = 0; t < kShards; ++t) {
    const serve::JobRecord& r = rep.snap.jobs[inf_ids[t] - 1].record;
    served += static_cast<std::size_t>(r.steps_done);
  }
  if (served != arrivals || rep.latency_ms.size() != arrivals)
    res.fail(arrivals - std::min(arrivals, served),
             "serve_infer: requests served != arrivals");
  // The latencies seen from outside must be the ledger's, percentile for
  // percentile.
  for (std::size_t t = 0; t < kShards; ++t) {
    const serve::JobRecord& r = rep.snap.jobs[inf_ids[t] - 1].record;
    const std::vector<double>& lat = tenants[t].latency_ms;
    if (lat.empty() || opsched::percentile(lat, 50.0) != r.p50_latency_ms ||
        opsched::percentile(lat, 99.0) != r.p99_latency_ms)
      res.fail(lat.size(), "serve_infer: request latencies disagree with the ledger");
    rep.tenant_latency_ms.push_back(lat);
    rep.slo_hits += r.slo_hits;
    const serve::JobRecord& tr = rep.snap.jobs[train_ids[t] - 1].record;
    rep.train_rate.push_back(tr.steps_done / ((tr.finish_ms - tr.admit_ms) / 1e3));
  }
  append_books(rep.snap, rep.books);
  rep.books.insert(rep.books.end(), rep.shard_now_ms.begin(), rep.shard_now_ms.end());
  return rep;
}

/// True when the unanswered backlog grows over the replay: the backlog is
/// sampled at every arrival (arrived minus answered), and a least-squares
/// line through the samples must not rise by more than one request over
/// the trace.
bool backlog_grows(const std::vector<double>& arrivals_ms,
                   const std::vector<double>& latency_ms) {
  std::vector<double> done;
  for (std::size_t i = 0; i < arrivals_ms.size(); ++i)
    done.push_back(arrivals_ms[i] + latency_ms[i]);
  std::sort(done.begin(), done.end());
  std::vector<double> xs, ys;
  for (std::size_t i = 0; i < arrivals_ms.size(); ++i) {
    const auto answered = static_cast<double>(
        std::upper_bound(done.begin(), done.end(), arrivals_ms[i]) - done.begin());
    xs.push_back(arrivals_ms[i]);
    ys.push_back(static_cast<double>(i + 1) - answered);
  }
  if (xs.size() < 2 || xs.back() <= xs.front()) return false;
  const opsched::LinearFit fit = opsched::linear_fit(xs, ys);
  return fit.slope * (xs.back() - xs.front()) > 1.0;
}

/// Server-side wait of every request: its latency minus the makespan of the
/// step that answered it, matched through the program's own request and
/// step spans (same shard, same end time).
std::vector<double> request_waits(const std::vector<opsched::obs::TraceSpan>& spans) {
  std::map<std::uint32_t, std::vector<std::pair<double, double>>> steps;  // pid -> (end, dur)
  for (const opsched::obs::TraceSpan& s : spans)
    if (s.cat == "step") steps[s.pid].emplace_back(s.start_ms + s.dur_ms, s.dur_ms);
  for (auto& [pid, v] : steps) std::sort(v.begin(), v.end());
  std::vector<double> waits;
  for (const opsched::obs::TraceSpan& s : spans) {
    if (s.cat != "request") continue;
    const auto& v = steps[s.pid];
    const double end = s.start_ms + s.dur_ms;
    auto it = std::lower_bound(v.begin(), v.end(), std::make_pair(end - 1e-6, 0.0));
    if (it == v.end() || std::abs(it->first - end) > 1e-6) continue;
    waits.push_back(std::max(0.0, s.dur_ms - it->second));
  }
  return waits;
}

/// Wall time per request over the last tenth of completions, divided by
/// the same over the first tenth (1.0 when flat).
double cost_growth(const std::vector<double>& done_wall_s) {
  const std::size_t n = done_wall_s.size();
  const std::size_t tenth = n / 10;
  if (tenth == 0) return 0.0;
  const double first = done_wall_s[tenth - 1] / static_cast<double>(tenth);
  const double last = (done_wall_s[n - 1] - done_wall_s[n - 1 - tenth]) /
                      static_cast<double>(tenth);
  return last / first;
}

void set_cluster_metrics(const Replay& rep, Result& res) {
  res.set("cluster.pump_us.p50", checked_percentile(rep.pump_us, 50, "pump_us"), "us");
  const double tail = highest_allowed_percentile(rep.pump_us.size());
  res.set("cluster.pump_us.p99",
          tail >= 99.0 ? checked_percentile(rep.pump_us, 99, "pump_us") : 0.0, "us");
  res.set("cluster.idle_pumps_frac",
          static_cast<double>(rep.idle_pumps) / static_cast<double>(rep.pump_us.size()),
          "frac");
  res.set("cluster.submit_us", median_of(rep.submit_us), "us");
  res.set("cluster.snapshot_ms", rep.snapshot_ms, "ms");
  std::size_t migrated = 0;
  for (const serve::FleetJob& j : rep.snap.jobs)
    if (j.migrations > 0) ++migrated;
  res.set("cluster.migrated_frac",
          static_cast<double>(migrated) / static_cast<double>(rep.snap.jobs.size()), "frac");
  std::vector<double> busy;
  std::size_t steps = 0;
  double service = 0.0;
  for (const serve::ServiceSnapshot& s : rep.snap.shards) {
    busy.push_back(s.stepped_service_ms);
    steps += s.steps_run;
    service += s.stepped_service_ms;
  }
  res.set("cluster.shard_busy_jain", opsched::jain_index(busy), "ratio");
  res.set("serve.reconfigurations", static_cast<double>(rep.snap.reconfigurations), "count");
  std::uint64_t declined = 0;
  for (const opsched::obs::MetricPoint& m : rep.snap.metrics.metrics)
    if (m.name.rfind("serve_admission_declined_total", 0) == 0) declined += m.counter;
  res.set("serve.declined", static_cast<double>(declined), "count");
  res.set("ops.kernel_ms", steps > 0 ? service / static_cast<double>(steps) : 0.0, "ms");
  res.context["pumps"] = static_cast<double>(rep.pump_us.size());
}

/// Runs `replay` rounds until `seconds` passed and at least `min_rounds`
/// ran; every round after the first must book the same virtual clock, field
/// by field. Returns the rounds.
template <typename Fn>
std::vector<Replay> rounds(std::size_t min_rounds, double seconds, Fn&& replay,
                           Result& res, const std::string& what) {
  std::vector<Replay> out;
  const double t0 = now_s();
  while (out.size() < min_rounds || now_s() - t0 < seconds) {
    out.push_back(replay());
    res.context["round" + std::to_string(out.size()) + ".wall_s"] = out.back().wall_s;
    res.attempted += out.back().items;
    if (out.size() > 1 && out.back().books != out.front().books)
      res.fail(out.back().items, what + ": same-seed replay booked different virtual-clock books");
  }
  return out;
}

}  // namespace

Result run_serve_infer(const RunConfig& cfg, SpanRecorder& spans) {
  Result res;
  zero_layer_metrics(res);
  ServeInputs in;
  {
    Scope gen(spans, "generate_inputs", "serve");
    in = serve_inputs(cfg.seed, kMainRps, kRequestsPerTenant);
  }
  const auto untraced = [&] { return replay_serve(in, nullptr, nullptr, spans, res); };
  if (!cfg.trace) {
    // Every replay after the first is a same-seed determinism check; the
    // virtual-clock metrics come from the first.
    const std::vector<Replay> reps = rounds(kServeRounds, cfg.seconds, untraced, res, "serve_infer");
    const Replay& first = reps.front();
    res.set("setup_s", setup_seconds(kServeModels, kSetups, spans), "s");
    res.set("latency_ms.p50", checked_percentile(first.latency_ms, 50, "latency_ms"), "ms");
    res.set("latency_ms.p95", checked_percentile(first.latency_ms, 95, "latency_ms"), "ms");
    res.set("items_per_s",
            static_cast<double>(first.items) /
                (*std::max_element(first.shard_now_ms.begin(), first.shard_now_ms.end()) / 1e3),
            "1/s");
    res.set("train_steps_per_s", median_of(first.train_rate), "1/s");
    res.context["requests"] = static_cast<double>(first.items);
    res.context["rounds"] = static_cast<double>(reps.size());
    res.context["latency_ms.samples"] = static_cast<double>(first.latency_ms.size());
    res.context["rate_rps_per_tenant"] = kMainRps;
    return res;
  }

  // Traced run: an untraced replay, a traced one (the program's registry
  // and collector attached, plus the benchmark's own spans) and a second
  // untraced one. All three must book the same virtual clock.
  opsched::obs::Registry reg;
  opsched::obs::TraceCollector collector;
  const Replay first = untraced();
  const Replay traced = replay_serve(in, &reg, &collector, spans, res);
  const Replay last = untraced();
  res.attempted += first.items + traced.items + last.items;
  if (traced.books != first.books || last.books != first.books)
    res.fail(traced.items, "serve_infer: same-seed replays booked different virtual-clock books");
  const double untraced_wall = (first.wall_s + last.wall_s) / 2.0;
  for (std::size_t t = 0; t < kShards; ++t)
    for (std::size_t i = 0; i < traced.tenant_latency_ms[t].size(); ++i)
      spans.add_virtual("request", "serve", traced.snap.jobs[t].record.submit_ms + in.arrivals[t][i],
                        traced.snap.jobs[t].record.submit_ms + in.arrivals[t][i] +
                            traced.tenant_latency_ms[t][i],
                        (t + 1) * 1000000 + i);

  set_cluster_metrics(traced, res);
  const Graph train = opsched::build_mnist_host(2);
  const std::vector<const Graph*> tenants = {
      &opsched::models::zoo_forward("resnet50_host", 1), &train};
  const SimProbe sim = sim_probe(tenants, {kWidthFloor, 0}, 200, spans);
  res.set("perf.profile_s", sim.profile_s, "s");
  res.set("perf.samples", static_cast<double>(sim.samples), "count");
  res.set("core.sim_step_us", sim.step_us, "us");
  res.set("core.idle_frac", sim.idle_frac, "frac");
  res.set("core.makespan_over_bound", sim.makespan_over_bound, "ratio");
  res.set("core.corun_per_step", sim.corun_per_step, "count");
  res.set("core.overlay_per_step", sim.overlay_per_step, "count");
  res.set("core.cache_hit_frac", sim.cache_hit_frac, "frac");
  res.set("machine.step_ms", sim.makespan_ms, "ms");
  {
    Scope pass(spans, "serial_pass", "ops");
    res.set("ops.serial_pass_ms",
            (serial_pass_ms(*tenants[0], in.tensor_seeds[0]) +
             serial_pass_ms(*tenants[1], in.tensor_seeds[0])) / 2.0,
            "ms");
  }
  {
    Scope probe(spans, "fork_join", "threading");
    res.set("threading.fork_join_us", fork_join_us(host_cores(), 2000), "us");
  }

  // Untraced wall per request = serve bookkeeping + the simulated step.
  const double per_request_us = untraced_wall * 1e6 / static_cast<double>(first.items);
  res.set("serve.requests_per_wall_s", 1e6 / per_request_us, "1/s");
  res.set("serve.us_per_request", per_request_us - sim.step_us, "us");
  res.set("serve.cost_growth", cost_growth(traced.done_wall_s), "ratio");
  const std::vector<double> waits = request_waits(collector.spans());
  if (waits.size() != traced.items)
    res.fail(traced.items - std::min(traced.items, waits.size()),
             "serve_infer: traced request spans do not match the step spans");
  res.set("serve.request_wait_ms.p99",
          waits.empty() ? 0.0 : checked_percentile(waits, 99, "request_wait_ms"), "ms");
  res.set("serve.latency_ms.p99", checked_percentile(first.latency_ms, 99, "latency_ms"), "ms");
  res.set("serve.slo_attainment",
          static_cast<double>(first.slo_hits) / static_cast<double>(first.items), "frac");
  res.set("obs.trace_overhead_frac", traced.wall_s / untraced_wall - 1.0, "frac");

  // Rate ladder: the highest rate whose pooled p99 meets the deadline and
  // whose backlog does not grow.
  double slo_rps = 0.0;
  for (const double rate : kLadderRps) {
    const ServeInputs ladder = serve_inputs(cfg.seed, rate, kLadderRequests);
    Scope rung(spans, "ladder_rate", "bench", static_cast<std::uint64_t>(rate));
    const Replay rep = replay_serve(ladder, nullptr, nullptr, spans, res);
    res.attempted += rep.items;
    const double p99 = checked_percentile(rep.latency_ms, 99, "ladder latency_ms");
    bool grows = false;
    for (std::size_t t = 0; t < kShards; ++t)
      grows = grows || backlog_grows(ladder.arrivals[t], rep.tenant_latency_ms[t]);
    res.context["ladder_p99_ms@" + std::to_string(static_cast<int>(rate))] = p99;
    res.context["ladder_backlog_grows@" + std::to_string(static_cast<int>(rate))] = grows;
    if (p99 <= kDeadlineMs && !grows) slo_rps = rate;
  }
  res.set("serve.slo_rps", slo_rps, "1/s");
  res.context["trace_events"] = static_cast<double>(collector.size());
  return res;
}

// -- fleet_churn ------------------------------------------------------------

namespace {

/// Waves of zoo training jobs through the front door: each wave is
/// submitted, then kPumpsPerWave pumps run before the next; planned cancels
/// land a fixed number of pumps after their wave. Drained at the end.
Replay replay_fleet(const std::vector<FleetJobPlan>& plan,
                    opsched::obs::Registry* reg, opsched::obs::TraceCollector* tc,
                    SpanRecorder& spans, Result& res) {
  Replay rep;
  World world = make_world(fleet_models(), reg, tc, spans);
  serve::ClusterService* cluster = world.cluster.get();
  const std::map<std::string, Graph>& graphs = world.graphs;

  Scope replay(spans, "replay", "bench");
  const double t0 = now_s();
  std::vector<serve::ClusterJobId> ids(plan.size(), serve::kInvalidClusterJob);
  const auto pump = [&]() {
    Scope p(spans, "run_pump", "cluster");
    const double a = now_s();
    const bool progress = cluster->run_pump();
    rep.pump_us.push_back((now_s() - a) * 1e6);
    if (!progress) ++rep.idle_pumps;
  };
  std::size_t next = 0;
  const std::size_t waves = plan.empty() ? 0 : plan.back().wave + 1;
  const int tail = 8;  // pumps after the last wave, for its cancels
  for (std::size_t w = 0; w < waves; ++w) {
    const std::size_t first = next;
    for (; next < plan.size() && plan[next].wave == w; ++next) {
      const FleetJobPlan& p = plan[next];
      serve::JobSpec spec;
      spec.name = p.model + "#" + std::to_string(next);
      spec.graph = graphs.at(p.model);
      spec.steps = p.steps;
      spec.weight = p.weight;
      spec.priority = p.priority;
      spec.seed = p.tensor_seed;
      Scope sub(spans, "submit", "cluster", next + 1);
      const double a = now_s();
      ids[next] = cluster->submit(std::move(spec));
      rep.submit_us.push_back((now_s() - a) * 1e6);
    }
    const int pumps = w + 1 == waves ? tail : kPumpsPerWave;
    for (int k = 0; k < pumps; ++k) {
      for (std::size_t j = first; j < next; ++j)
        if (plan[j].cancel_after == k) {
          Scope c(spans, "cancel", "cluster", j + 1);
          if (cluster->cancel(ids[j])) ++rep.cancels_accepted;
        }
      pump();
    }
  }
  {
    Scope drain(spans, "drain", "cluster");
    while (cluster->run_pump()) {
    }
  }
  rep.wall_s = now_s() - t0;
  {
    Scope snap(spans, "snapshot", "cluster");
    const double a = now_s();
    rep.snap = cluster->snapshot();
    rep.snapshot_ms = (now_s() - a) * 1e3;
  }
  for (std::size_t s = 0; s < kShards; ++s)
    rep.shard_now_ms.push_back(cluster->shard(s).now_ms());
  rep.items = plan.size();

  check_books(rep, plan.size(), res, "fleet_churn");
  if (rep.snap.cancelled != rep.cancels_accepted)
    res.fail(rep.items, "fleet_churn: fleet cancelled count != accepted cancels");
  for (const serve::FleetJob& j : rep.snap.jobs) {
    const serve::JobRecord& r = j.record;
    if (r.state == serve::JobState::kCompleted) {
      rep.latency_ms.push_back(r.turnaround_ms());
      if (r.steps_done != r.steps_total)
        res.fail(1, "fleet_churn: completed job ran " + std::to_string(r.steps_done) +
                        " of " + std::to_string(r.steps_total) + " steps");
    }
    rep.train_steps += static_cast<std::size_t>(r.steps_done);
  }
  append_books(rep.snap, rep.books);
  rep.books.insert(rep.books.end(), rep.shard_now_ms.begin(), rep.shard_now_ms.end());
  return rep;
}

}  // namespace

Result run_fleet_churn(const RunConfig& cfg, SpanRecorder& spans) {
  Result res;
  zero_layer_metrics(res);
  std::vector<FleetJobPlan> plan;
  {
    Scope gen(spans, "generate_inputs", "serve");
    plan = fleet_script(cfg.seed, kWaves, kJobsPerWave);
  }
  const auto untraced = [&] { return replay_fleet(plan, nullptr, nullptr, spans, res); };
  if (!cfg.trace) {
    const std::vector<Replay> reps = rounds(kFleetRounds, cfg.seconds, untraced, res, "fleet_churn");
    const Replay& first = reps.front();
    const double makespan_s =
        *std::max_element(first.shard_now_ms.begin(), first.shard_now_ms.end()) / 1e3;
    res.set("setup_s", setup_seconds(fleet_models(), kSetups, spans), "s");
    res.set("latency_ms.p50", checked_percentile(first.latency_ms, 50, "turnaround_ms"), "ms");
    res.set("latency_ms.p95", checked_percentile(first.latency_ms, 95, "turnaround_ms"), "ms");
    res.set("items_per_s", static_cast<double>(first.snap.completed) / makespan_s, "1/s");
    res.set("train_steps_per_s", static_cast<double>(first.train_steps) / makespan_s, "1/s");
    res.context["jobs"] = static_cast<double>(plan.size());
    res.context["completed"] = static_cast<double>(first.snap.completed);
    res.context["cancelled"] = static_cast<double>(first.snap.cancelled);
    res.context["rounds"] = static_cast<double>(reps.size());
    res.context["latency_ms.samples"] = static_cast<double>(first.latency_ms.size());
    return res;
  }

  opsched::obs::Registry reg;
  opsched::obs::TraceCollector collector;
  const Replay first = untraced();
  const Replay traced = replay_fleet(plan, &reg, &collector, spans, res);
  const Replay last = untraced();
  res.attempted += first.items + traced.items + last.items;
  if (traced.books != first.books || last.books != first.books)
    res.fail(traced.items, "fleet_churn: same-seed replays booked different virtual-clock books");
  for (const serve::FleetJob& j : traced.snap.jobs)
    if (j.record.finish_ms >= 0.0)
      spans.add_virtual("job", "serve", j.record.submit_ms, j.record.finish_ms, j.id);

  set_cluster_metrics(traced, res);
  std::vector<double> waits;
  for (const serve::FleetJob& j : traced.snap.jobs)
    if (j.record.admit_ms >= 0.0) waits.push_back(j.record.wait_ms());
  res.set("serve.queue_wait_ms.p95",
          percentile_allowed(95, waits.size()) ? checked_percentile(waits, 95, "queue_wait_ms") : 0.0,
          "ms");
  res.context["queue_wait_ms.samples"] = static_cast<double>(waits.size());

  std::vector<Graph> owned;
  for (const std::string& m : fleet_models()) owned.push_back(fleet_graph(m));
  std::vector<const Graph*> tenants;
  for (const Graph& g : owned) tenants.push_back(&g);
  const SimProbe sim = sim_probe(tenants, {}, 10, spans);
  res.set("perf.profile_s", sim.profile_s, "s");
  res.set("perf.samples", static_cast<double>(sim.samples), "count");
  res.set("core.sim_step_us", sim.step_us, "us");
  res.set("core.idle_frac", sim.idle_frac, "frac");
  res.set("core.makespan_over_bound", sim.makespan_over_bound, "ratio");
  res.set("core.corun_per_step", sim.corun_per_step, "count");
  res.set("core.overlay_per_step", sim.overlay_per_step, "count");
  res.set("core.cache_hit_frac", sim.cache_hit_frac, "frac");
  res.set("machine.step_ms", sim.makespan_ms, "ms");
  // The deepest fleet model on the host substrate, for the dispatcher and
  // launch costs the simulated substrate does not have.
  host_probe(fleet_graph("resnet152"), cfg.seed, kHostProbeSteps, res, spans);
  {
    Scope pass(spans, "serial_pass", "ops");
    double total = 0.0;
    for (const Graph& g : owned) total += serial_pass_ms(g, cfg.seed);
    res.set("ops.serial_pass_ms", total / static_cast<double>(owned.size()), "ms");
  }
  {
    Scope probe(spans, "fork_join", "threading");
    res.set("threading.fork_join_us", fork_join_us(host_cores(), 2000), "us");
  }
  const double untraced_wall = (first.wall_s + last.wall_s) / 2.0;
  res.set("cluster.jobs_per_wall_s",
          static_cast<double>(first.snap.completed) / untraced_wall, "1/s");
  res.set("obs.trace_overhead_frac", traced.wall_s / untraced_wall - 1.0, "frac");
  res.context["trace_events"] = static_cast<double>(collector.size());
  return res;
}

}  // namespace perfbench
