// serve_cluster: cluster-scale serving — the elastic service sharded
// across machines through serve::ClusterService. One job mix (training
// jobs of assorted budgets plus open-loop latency-SLO inference tenants)
// is driven to completion on fleets of 1, 2 and 4 identical simulated
// machines under the VIRTUAL clock, so every number is a deterministic
// function of (trace seeds, config) and safe to gate in CI. Reported:
//   - aggregate completed-job throughput per fleet size, and the gated
//     4-shard speedup over the single machine (the scale-out acceptance
//     bar: >= 3x at a 10x job count);
//   - p95 job turnaround and Jain fairness over per-shard busy time at 4
//     shards (placement quality: bin-pack + annealing must actually
//     balance the fleet);
//   - bit-deterministic fleet replay: the 4-shard run is executed twice
//     and the books must agree exactly (enforced with a throw, not a
//     tolerance);
//   - a host-substrate section enforcing serial-reference checksums: jobs
//     placed and MIGRATED across real-kernel shards must reproduce their
//     solo numerics bit-for-bit (enforced with a throw).
#include "all_benchmarks.hpp"
#include "models/models.hpp"
#include "serve/cluster_service.hpp"
#include "serve/traffic.hpp"
#include "testing/graph_fuzz.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

namespace opsched::bench {
namespace {

Graph fleet_graph(std::uint64_t seed) {
  testing::FuzzGraphParams params;
  params.min_nodes = 5;
  params.max_nodes = 9;
  params.max_dim = 6;
  return testing::fuzz_graph(seed, params);
}

/// The fleet job mix: `jobs` training runs with assorted budgets, weights
/// and priorities, plus one open-loop inference tenant per 8 training jobs.
std::vector<serve::JobSpec> make_script(int jobs, int steps,
                                        std::uint64_t seed) {
  std::vector<serve::JobSpec> script;
  for (int j = 0; j < jobs; ++j) {
    serve::JobSpec spec;
    spec.name = "train" + std::to_string(j);
    spec.graph = fleet_graph(seed * 131 + static_cast<std::uint64_t>(j));
    spec.steps = steps + j % 4;
    spec.weight = (j % 3 == 0) ? 2.0 : 1.0;
    spec.priority = j % 2;
    spec.seed = 0x5eedULL + static_cast<std::uint64_t>(j);
    script.push_back(std::move(spec));
  }
  const int tenants = std::max(1, jobs / 8);
  for (int t = 0; t < tenants; ++t) {
    serve::JobSpec inf;
    inf.name = "inf" + std::to_string(t);
    inf.kind = serve::JobKind::kInference;
    inf.graph = fleet_graph(seed * 977 + static_cast<std::uint64_t>(t));
    // Short trace on purpose: the fleet's makespan must be bounded by
    // TRAINING work, which scales out with shards — an open-loop trace is
    // a wall-clock floor no amount of machines can beat.
    inf.arrivals = serve::poisson_trace(
        /*rate_rps=*/150.0, /*duration_ms=*/40.0,
        seed + static_cast<std::uint64_t>(t) * 17);
    inf.deadline_ms = 50.0;
    inf.width_floor = 4;
    script.push_back(std::move(inf));
  }
  return script;
}

serve::ClusterServiceOptions sim_options(std::size_t shards) {
  serve::ClusterServiceOptions opt;
  opt.num_shards = shards;
  opt.service.substrate = serve::Substrate::kSimulated;
  opt.service.clock = serve::ClockMode::kVirtual;
  opt.service.admission.max_corun_jobs = 3;
  return opt;
}

struct FleetResult {
  serve::FleetSnapshot snap;
  /// Completed jobs per second of fleet makespan (virtual clock).
  double throughput = 0.0;
  double p95_turnaround_ms = 0.0;
  /// Jain index over per-shard busy time (stepped_service_ms).
  double shard_fairness = 1.0;
};

FleetResult run_fleet(const std::vector<serve::JobSpec>& script,
                      std::size_t shards) {
  serve::ClusterService cluster(MachineSpec::knl(), sim_options(shards));
  for (const serve::JobSpec& spec : script) cluster.submit(spec);
  cluster.drain();

  FleetResult res;
  res.snap = cluster.snapshot();
  if (res.snap.completed != script.size())
    throw std::logic_error("serve_cluster: non-terminal jobs after drain");

  double makespan = 0.0;
  std::vector<double> turnarounds;
  for (const serve::FleetJob& fj : res.snap.jobs) {
    makespan = std::max(makespan, fj.record.finish_ms);
    turnarounds.push_back(fj.record.turnaround_ms());
  }
  res.throughput = static_cast<double>(res.snap.completed) /
                   std::max(makespan, 1e-9) * 1000.0;
  res.p95_turnaround_ms = percentile(turnarounds, 95.0);
  std::vector<double> busy;
  for (const serve::ServiceSnapshot& s : res.snap.shards)
    busy.push_back(s.stepped_service_ms);
  res.shard_fairness = jain_index(busy);
  return res;
}

/// The replay check: two runs of one script must produce identical books.
void enforce_replay(const FleetResult& a, const FleetResult& b) {
  const bool same =
      a.snap.completed == b.snap.completed &&
      a.snap.steps_run == b.snap.steps_run &&
      a.snap.placements == b.snap.placements &&
      a.snap.migrations == b.snap.migrations &&
      a.snap.stepped_service_ms == b.snap.stepped_service_ms &&
      a.snap.now_ms == b.snap.now_ms && a.throughput == b.throughput &&
      a.p95_turnaround_ms == b.p95_turnaround_ms;
  if (!same)
    throw std::logic_error(
        "serve_cluster: fleet replay diverged under the virtual clock");
}

double reference_checksum(const Graph& g, std::uint64_t seed) {
  HostGraphProgram ref(g, seed, /*tenant=*/0);
  for (const Node& node : g.nodes()) ref.run_node_reference(node.id);
  return ref.step_checksum();
}

/// Host-substrate section: a small 2-shard fleet with an engineered
/// imbalance (queued jobs cancelled on one shard) so migration fires, and
/// every completed job's checksum enforced against its solo reference.
std::size_t run_host_checksum_section(std::size_t* migrations_out) {
  serve::ClusterServiceOptions opt;
  opt.num_shards = 2;
  opt.service.substrate = serve::Substrate::kHost;
  opt.service.admission.max_corun_jobs = 1;
  serve::ClusterService cluster(MachineSpec::knl(), opt);

  const Graph shared = fleet_graph(4242);
  std::vector<serve::JobSpec> script;
  std::vector<serve::ClusterJobId> ids;
  for (std::size_t j = 0; j < 6; ++j) {
    serve::JobSpec spec;
    spec.name = "host" + std::to_string(j);
    spec.graph = shared;
    spec.steps = 2;
    spec.seed = 0xBEEFULL + j;
    script.push_back(spec);
    ids.push_back(cluster.submit(std::move(spec)));
  }
  cluster.run_pump();  // place three per shard, admit one per shard
  // Empty shard 0's queue ...
  for (const serve::FleetJob& fj : cluster.snapshot().jobs) {
    if (fj.shard == 0 && fj.record.state == serve::JobState::kQueued)
      cluster.cancel(fj.id);
  }
  cluster.run_pump();  // ... cancels land at the shard boundary
  cluster.run_pump();  // rebalancer migrates a queued job back to shard 0
  cluster.drain();

  const serve::FleetSnapshot snap = cluster.snapshot();
  *migrations_out = snap.migrations;
  std::size_t verified = 0;
  for (std::size_t j = 0; j < ids.size(); ++j) {
    const serve::FleetJob& fj = snap.jobs.at(ids[j] - 1);
    if (fj.record.state != serve::JobState::kCompleted) continue;
    if (fj.record.checksum !=
        reference_checksum(script[j].graph, script[j].seed))
      throw std::logic_error(
          "serve_cluster: migrated/co-run checksum diverged from the solo "
          "serial reference");
    ++verified;
  }
  return verified;
}

void run(Context& ctx) {
  const int jobs = std::clamp(ctx.param_int("jobs", 48), 4, 512);
  const int steps = std::clamp(ctx.param_int("steps", 6), 1, 64);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(ctx.param_int("seed", 42));

  ctx.header("Cluster-scale serving: one elastic service over 1/2/4 shards",
             std::to_string(jobs) + " training jobs + open-loop inference, "
             "virtual clock, greedy bin-pack + annealing placement");

  const auto script = make_script(jobs, steps, seed);
  const FleetResult one = run_fleet(script, 1);
  const FleetResult two = run_fleet(script, 2);
  const FleetResult four = run_fleet(script, 4);
  // Bit-deterministic replay of the most complex configuration.
  enforce_replay(four, run_fleet(script, 4));

  std::size_t host_migrations = 0;
  const std::size_t host_verified = run_host_checksum_section(&host_migrations);

  const double speedup2 = two.throughput / std::max(one.throughput, 1e-12);
  const double speedup4 = four.throughput / std::max(one.throughput, 1e-12);

  // The scale-out acceptance bar, gated in CI: 4 shards sustain >= 3x the
  // single machine's completed-job throughput on the same (10x-scale) mix.
  ctx.metric("speedup_4x", speedup4, "x", Direction::kHigherIsBetter);
  ctx.metric("speedup_2x", speedup2, "x", Direction::kHigherIsBetter);
  ctx.metric("shard_fairness_4x", four.shard_fairness, "idx",
             Direction::kHigherIsBetter);
  ctx.metric("throughput_1x", one.throughput, "jobs/s", Direction::kInfo);
  ctx.metric("throughput_4x", four.throughput, "jobs/s", Direction::kInfo);
  ctx.metric("p95_turnaround_1x", one.p95_turnaround_ms, "ms",
             Direction::kInfo);
  ctx.metric("p95_turnaround_4x", four.p95_turnaround_ms, "ms",
             Direction::kInfo);
  ctx.metric("migrations_4x", static_cast<double>(four.snap.migrations),
             "moves", Direction::kInfo);
  ctx.metric("host_checksums_verified", static_cast<double>(host_verified),
             "jobs", Direction::kInfo);
  ctx.metric("host_migrations", static_cast<double>(host_migrations),
             "moves", Direction::kInfo);

  TablePrinter table({"Shards", "Jobs/s", "Speedup", "p95 turn (ms)",
                      "Jain(shards)", "Migrations"});
  const auto row = [&](const char* label, const FleetResult& r,
                       double speedup) {
    table.add_row({label, fmt_double(r.throughput, 3),
                   fmt_double(speedup, 2),
                   fmt_double(r.p95_turnaround_ms, 1),
                   fmt_double(r.shard_fairness, 3),
                   std::to_string(r.snap.migrations)});
  };
  row("1", one, 1.0);
  row("2", two, speedup2);
  row("4", four, speedup4);
  table.print(ctx.out());
  ctx.out() << script.size() << " jobs per fleet; 4-shard speedup "
            << fmt_double(speedup4, 2) << "x, replay bit-identical; host "
            << "section verified " << host_verified << " checksums across "
            << host_migrations << " migration(s)\n";
}

}  // namespace

void register_serve_cluster(Registry& reg) {
  Benchmark b;
  b.name = "serve_cluster";
  b.figure = "ext";
  b.description =
      "cluster-scale serving: aggregate throughput, p95 turnaround and "
      "shard fairness at 1/2/4 shards vs one machine; deterministic fleet "
      "replay; host checksums enforced across migration";
  b.default_params = {{"jobs", "48"}, {"steps", "6"}, {"seed", "42"}};
  b.fn = run;
  reg.add(std::move(b));
}

}  // namespace opsched::bench
