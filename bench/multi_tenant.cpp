// multi_tenant: the shared-host serving benchmark — N independent training
// jobs (tenants) on ONE machine, real kernels on real threads, scheduled
// two ways:
//   solo-sequential  each tenant's step runs alone, back-to-back (the
//                    "give every job the whole machine in turns" baseline);
//   co-located       one run_step_multi_host call schedules all tenants'
//                    ready ops together through the weighted-deficit
//                    admission walk (Strategies 1-4).
// Reported: makespan of both arrangements, the co-location speedup, per-
// tenant makespan/service metrics (ADDITIVE report fields — same schema
// version), and Jain's fairness index over per-tenant service times. On
// multi-core hosts co-location wins by filling cores one tenant's serial
// phases leave idle; on a 1-core host the two arrangements do the same
// compute and the margin shrinks to the amortized per-step dispatch setup.
// Every step enforces the determinism contract: each tenant's checksum must
// equal its solo serial reference, under BOTH arrangements, every step —
// the bench throws if co-location ever changes numerics.
#include "all_benchmarks.hpp"
#include "core/runtime.hpp"
#include "models/models.hpp"
#include "util/clock.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace opsched::bench {
namespace {

void run(Context& ctx) {
  const auto batch = static_cast<std::int64_t>(ctx.param_int("batch", 6));
  const int steps = std::max(1, ctx.param_int("steps", 5));
  const std::size_t tenants = static_cast<std::size_t>(
      std::clamp(ctx.param_int("tenants", 2), 2, 4));
  const std::string model = ctx.param("model", "mnist_host");
  std::vector<double> weights;
  // atof, not stod: params never throw in this harness (malformed terms
  // become 0 and fall back to the default weight 1 in the policy).
  for (const std::string& w : split_csv(ctx.param("weights", "")))
    weights.push_back(std::atof(w.c_str()));

  const Graph g =
      model == "mnist_host" ? build_mnist_host(batch) : build_model(model);

  // One program per tenant over the same op trace; the tenant namespace
  // gives each job private deterministic tensors (and checksums).
  std::vector<std::unique_ptr<HostGraphProgram>> owned;
  std::vector<HostGraphProgram*> programs;
  for (std::size_t t = 0; t < tenants; ++t) {
    owned.push_back(std::make_unique<HostGraphProgram>(g, 0x5eedULL, t));
    programs.push_back(owned.back().get());
  }

  RuntimeOptions opt;
  Runtime rt(MachineSpec::knl(), opt);
  const ProfilingReport prof = rt.profile_host_multi(programs, /*repeats=*/1);

  ctx.header("Multi-tenant host co-run: " + std::to_string(tenants) +
                 " training jobs on one machine",
             model + " batch " + std::to_string(batch) + ", " +
                 std::to_string(rt.host_pool().max_width()) + " host cores, " +
                 std::to_string(prof.unique_ops) + " ops host-profiled");

  // Per-tenant serial-reference checksums: the bar both arrangements must
  // hit every step.
  std::vector<double> reference(tenants);
  for (std::size_t t = 0; t < tenants; ++t) {
    HostGraphProgram ref(g, 0x5eedULL, t);
    for (const Node& node : g.nodes()) ref.run_node_reference(node.id);
    reference[t] = ref.step_checksum();
  }

  // Warm-up both arrangements (first-use team spawn is real cost but a
  // different experiment; micro_threadpool measures it).
  for (HostGraphProgram* p : programs) (void)rt.run_step_host(*p);
  (void)rt.run_step_multi_host(
      programs, TenantSet::slots(programs.size(), weights));

  double solo_total = 0.0, coloc_total = 0.0;
  std::vector<StepResult> last_coloc;
  for (int s = 0; s < steps; ++s) {
    double solo_ms = 0.0, coloc_ms = 0.0;
    const auto run_solo = [&] {
      const double t0 = wall_time_ms();
      for (std::size_t t = 0; t < tenants; ++t) {
        const StepResult r = rt.run_step_host(*programs[t]);
        if (r.checksum != reference[t]) {
          throw std::logic_error(
              "multi_tenant: solo checksum diverged from serial reference");
        }
      }
      solo_ms = wall_time_ms() - t0;
    };
    const auto run_coloc = [&] {
      const double t0 = wall_time_ms();
      last_coloc = rt.run_step_multi_host(
          programs, TenantSet::slots(programs.size(), weights));
      coloc_ms = wall_time_ms() - t0;
      for (std::size_t t = 0; t < tenants; ++t) {
        if (last_coloc[t].checksum != reference[t]) {
          throw std::logic_error(
              "multi_tenant: co-located checksum diverged from serial "
              "reference (tenant " + std::to_string(t) + ")");
        }
      }
    };
    // Alternate which arrangement goes first so drift (thermal, background
    // load) hits both equally.
    if (s % 2 == 0) {
      run_solo();
      run_coloc();
    } else {
      run_coloc();
      run_solo();
    }
    solo_total += solo_ms;
    coloc_total += coloc_ms;
    ctx.metric("solo_sequential_step", solo_ms, "ms");
    ctx.metric("colocated_step", coloc_ms, "ms");
  }

  ctx.metric("colocated_speedup", solo_total / coloc_total, "x",
             Direction::kHigherIsBetter);
  std::vector<double> service(tenants);
  std::size_t cross_corun = 0;
  for (std::size_t t = 0; t < tenants; ++t) {
    service[t] = last_coloc[t].service_ms;
    cross_corun += last_coloc[t].corun_launches;
    const std::string prefix = "tenant" + std::to_string(t) + "_";
    ctx.metric(prefix + "makespan", last_coloc[t].time_ms, "ms",
               Direction::kInfo);
    ctx.metric(prefix + "service", last_coloc[t].service_ms, "ms",
               Direction::kInfo);
  }
  ctx.metric("fairness_jain", jain_index(service), "idx", Direction::kInfo);
  ctx.metric("corun_launches", static_cast<double>(cross_corun), "ops",
             Direction::kInfo);

  const double inv = 1.0 / static_cast<double>(steps);
  TablePrinter table({"Arrangement", "ms/step (mean)", "Speedup"});
  table.add_row({"solo-sequential", fmt_double(solo_total * inv, 3), "1.00"});
  table.add_row({"co-located (S1-S4)", fmt_double(coloc_total * inv, 3),
                 fmt_double(solo_total / coloc_total, 2)});
  table.print(ctx.out());
  ctx.out() << tenants << " tenants, per-tenant checksums identical to solo "
            << "serial references in both arrangements; Jain fairness "
            << fmt_double(jain_index(service), 3) << ", " << cross_corun
            << " co-run launches in the last co-located step\n";
}

}  // namespace

void register_multi_tenant(Registry& reg) {
  Benchmark b;
  b.name = "multi_tenant";
  b.figure = "ext";
  b.description =
      "multi-tenant host co-run: N training jobs co-located on one machine "
      "vs solo-sequential, fairness + makespan, checksums enforced";
  b.default_params = {{"tenants", "2"},
                      {"batch", "6"},
                      {"steps", "5"},
                      {"model", "mnist_host"},
                      {"weights", ""}};
  b.fn = run;
  reg.add(std::move(b));
}

}  // namespace opsched::bench
