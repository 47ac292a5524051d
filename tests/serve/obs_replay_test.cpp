// Observability must be a pure observer: running the SAME scripted
// virtual-clock fleet with full metrics + tracing attached, and with
// nothing attached, must produce bit-identical books — attaching telemetry
// may never perturb a placement, admission, or scheduling decision. The
// trace itself must also be deterministic (two instrumented runs export
// byte-identical JSON) and structurally complete (spans from every shard,
// a full job lifecycle).
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>

#include "machine/machine_spec.hpp"
#include "models/models.hpp"
#include "models/zoo.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/cluster_service.hpp"
#include "serve/traffic.hpp"
#include "util/json.hpp"

namespace opsched::serve {
namespace {

// Every decision-bearing number of a fleet run, in one comparable string.
std::string fleet_digest(const FleetSnapshot& snap) {
  std::ostringstream os;
  os << "placements=" << snap.placements << " migrations=" << snap.migrations
     << " steps=" << snap.steps_run << " reconfs=" << snap.reconfigurations
     << " service=" << json::number(snap.stepped_service_ms)
     << " now=" << json::number(snap.now_ms) << "\n";
  for (const FleetJob& fj : snap.jobs) {
    os << fj.id << " shard=" << fj.shard << " moves=" << fj.migrations
       << " state=" << job_state_name(fj.record.state)
       << " steps=" << fj.record.steps_done << "/" << fj.record.steps_total
       << " submit=" << json::number(fj.record.submit_ms)
       << " admit=" << json::number(fj.record.admit_ms)
       << " finish=" << json::number(fj.record.finish_ms)
       << " service=" << json::number(fj.record.service_ms)
       << " slo_hits=" << fj.record.slo_hits
       << " p99=" << json::number(fj.record.p99_latency_ms) << "\n";
  }
  return os.str();
}

// The scripted run: 2 shards, mixed training jobs plus two open-loop
// latency-SLO inference tenants (one batchable), one mid-flight cancel,
// drained inline on the deterministic pump path.
FleetSnapshot scripted_run(obs::Registry* metrics,
                           obs::TraceCollector* trace) {
  ClusterServiceOptions opt;
  opt.num_shards = 2;
  opt.service.substrate = Substrate::kSimulated;
  opt.service.clock = ClockMode::kVirtual;
  opt.service.admission.max_corun_jobs = 3;
  opt.metrics = metrics;
  opt.trace = trace;
  ClusterService cluster(MachineSpec::knl(), opt);

  std::vector<ClusterJobId> ids;
  for (int j = 0; j < 8; ++j) {
    JobSpec spec;
    spec.name = "train" + std::to_string(j);
    spec.graph = build_model(j % 2 == 0 ? "toy_cnn" : "lstm");
    spec.steps = 1 + j % 3;
    spec.weight = (j % 3 == 0) ? 2.0 : 1.0;
    spec.priority = j % 2;
    ids.push_back(cluster.submit(std::move(spec)));
  }
  JobSpec inf;
  inf.name = "slo-inf";
  inf.kind = JobKind::kInference;
  inf.graph = build_model("toy_cnn");
  inf.arrivals = poisson_trace(/*rate_rps=*/200.0, /*duration_ms=*/40.0,
                               /*seed=*/7);
  inf.deadline_ms = 60.0;
  inf.width_floor = 4;
  ids.push_back(cluster.submit(inf));
  // A batch-one tenant: its bursts are served several requests per step.
  JobSpec batched;
  batched.name = "slo-batched";
  batched.kind = JobKind::kInference;
  batched.graph = models::zoo_forward("resnet50_host", 1);
  batched.arrivals = poisson_trace(/*rate_rps=*/400.0, /*duration_ms=*/40.0,
                                   /*seed=*/9);
  batched.deadline_ms = 60.0;
  batched.width_floor = 4;
  ids.push_back(cluster.submit(batched));

  cluster.run_pump();        // place the batch
  cluster.cancel(ids[3]);    // then a mid-flight cancel
  cluster.drain();
  return cluster.snapshot();
}

TEST(ObsReplay, TelemetryNeverPerturbsTheBooks) {
  const FleetSnapshot off = scripted_run(nullptr, nullptr);

  obs::Registry registry;
  obs::TraceCollector collector;
  const FleetSnapshot on = scripted_run(&registry, &collector);

  EXPECT_EQ(fleet_digest(off), fleet_digest(on));
  EXPECT_GT(collector.size(), 0u);
  EXPECT_GT(registry.snapshot().metrics.size(), 0u);
}

TEST(ObsReplay, InstrumentedRunsExportByteIdenticalTraces) {
  obs::Registry reg1;
  obs::TraceCollector tc1;
  scripted_run(&reg1, &tc1);

  obs::Registry reg2;
  obs::TraceCollector tc2;
  scripted_run(&reg2, &tc2);

  EXPECT_EQ(tc1.to_chrome_json(), tc2.to_chrome_json());
  EXPECT_EQ(obs::to_json(reg1.snapshot()), obs::to_json(reg2.snapshot()));
}

TEST(ObsReplay, TraceCoversBothShardsAndAFullJobLifecycle) {
  obs::Registry registry;
  obs::TraceCollector collector;
  const FleetSnapshot snap = scripted_run(&registry, &collector);

  const json::JsonValue doc = json::parse(collector.to_chrome_json());
  ASSERT_EQ(doc.kind, json::JsonValue::Kind::kArray);
  std::set<double> span_pids;
  std::size_t completed_job_spans = 0;
  std::size_t step_spans = 0;
  std::size_t batched_step_spans = 0;
  std::size_t request_spans = 0;
  for (const json::JsonValue& ev : *doc.array) {
    if (json::str_member(ev, "ph") != "X") continue;
    span_pids.insert(json::num_member(ev, "pid"));
    const std::string cat = json::str_member(ev, "cat");
    if (cat == "step") ++step_spans;
    const std::string name = json::str_member(ev, "name");
    if (cat == "step" && name.find(" batch ") != std::string::npos &&
        !name.ends_with(" batch 1"))
      ++batched_step_spans;
    if (cat == "request") ++request_spans;
    if (cat != "job") continue;
    // A completed job's lifecycle span covers submit -> finish on the
    // fleet's virtual clocks: positive duration, matching a ledger record.
    const double ts = json::num_member(ev, "ts");
    const double dur = json::num_member(ev, "dur");
    EXPECT_GE(ts, 0.0);
    if (dur > 0.0) ++completed_job_spans;
  }
  EXPECT_GE(span_pids.size(), 2u) << "spans from both shards expected";
  EXPECT_GE(completed_job_spans, 1u);
  EXPECT_GT(step_spans, 0u);
  EXPECT_GT(request_spans, 0u);
  EXPECT_GT(batched_step_spans, 0u) << "the burst tenant never batched";

  // serve_batch_requests: one observation per inference tenant per step,
  // summing to every request served.
  std::uint64_t batch_steps = 0;
  double batched_requests = 0.0;
  for (const char* shard : {"0", "1"}) {
    const obs::MetricPoint* h = snap.metrics.find(
        obs::label("serve_batch_requests", "shard", shard));
    if (h == nullptr) continue;
    batch_steps += h->count;
    batched_requests += h->sum;
  }
  double served = 0.0;
  for (const FleetJob& fj : snap.jobs)
    if (fj.record.kind == JobKind::kInference) served += fj.record.steps_done;
  EXPECT_DOUBLE_EQ(batched_requests, served);
  EXPECT_LT(static_cast<double>(batch_steps), served);

  // The fleet metrics snapshot carries the shard-qualified serve_* family
  // and the cluster_* family, and its counters agree with the books.
  const std::uint64_t submitted =
      snap.metrics.counter(
          obs::label("serve_jobs_submitted_total", "shard", "0")) +
      snap.metrics.counter(
          obs::label("serve_jobs_submitted_total", "shard", "1"));
  EXPECT_EQ(submitted, snap.placements);  // every placement is a shard submit
  EXPECT_EQ(snap.metrics.counter("cluster_placements_total"),
            snap.placements);
  EXPECT_EQ(snap.metrics.counter("cluster_migrations_total"),
            snap.migrations);
}

}  // namespace
}  // namespace opsched::serve
