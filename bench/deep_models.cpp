// deep_models: the deep real-model zoo on the host substrate — per-model
// training-step time and scheduler overhead at 700-2200 ops (ResNet-50/101/
// 152 and Inception-ResNet block topologies from models/zoo.hpp), plus a
// 2-tenant co-location section on one zoo model (solo-sequential vs
// co-located makespan, Jain fairness over service times). Every step
// enforces the determinism contract: the adaptive executor's checksum must
// equal the serial reference bit for bit — the bench throws otherwise.
// step_ms is the regression-gated signal; counts and ratios are info-only.
#include "all_benchmarks.hpp"
#include "core/runtime.hpp"
#include "models/zoo.hpp"
#include "util/clock.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace opsched::bench {
namespace {

double serial_reference(const Graph& g, std::size_t tenant) {
  HostGraphProgram ref(g, 0x5eedULL, tenant);
  for (const Node& node : g.nodes()) ref.run_node_reference(node.id);
  return ref.step_checksum();
}

void run(Context& ctx) {
  const int steps = std::max(1, ctx.param_int("steps", 5));
  const std::vector<std::string> names =
      split_csv(ctx.param("models", "resnet50_host,incep_resnet,resnet152"));
  const std::string corun_model = ctx.param("corun_model", "resnet50_host");

  ctx.header("Deep-model zoo: training steps on the host substrate",
             std::to_string(names.size()) + " models, " +
                 std::to_string(steps) + " timed steps each");

  TablePrinter table({"Model", "Nodes", "Exact%", "ms/step", "Sched%"});
  for (const std::string& name : names) {
    const models::ZooEntry* entry = models::zoo_find(name);
    if (entry == nullptr) {
      throw std::invalid_argument("deep_models: unknown zoo model " + name);
    }
    const Graph g = entry->build(entry->default_batch);
    const double ref = serial_reference(g, /*tenant=*/0);

    HostGraphProgram program(g);
    Runtime rt(MachineSpec::knl());
    rt.profile_host(program, /*repeats=*/1);

    (void)rt.run_step_host(program);  // warm-up
    double total_ms = 0.0, sched_ms = 0.0;
    for (int s = 0; s < steps; ++s) {
      const StepResult r = rt.run_step_host(program);
      if (r.checksum != ref) {
        throw std::logic_error("deep_models: " + name +
                               " checksum diverged from serial reference");
      }
      total_ms += r.time_ms;
      sched_ms += r.sched_ms;
      ctx.metric("step_ms/" + name, r.time_ms, "ms");
    }
    const double exact_pct = 100.0 *
                             static_cast<double>(program.exact_bindings()) /
                             static_cast<double>(g.size());
    const double sched_pct = 100.0 * sched_ms / std::max(total_ms, 1e-9);
    ctx.metric("nodes/" + name, static_cast<double>(g.size()), "ops",
               Direction::kInfo);
    ctx.metric("exact_kernels/" + name, exact_pct, "%", Direction::kInfo);
    ctx.metric("sched_overhead/" + name, sched_pct, "%", Direction::kInfo);
    table.add_row({name, std::to_string(g.size()),
                   fmt_double(exact_pct, 1),
                   fmt_double(total_ms / steps, 3),
                   fmt_double(sched_pct, 1)});
  }
  table.print(ctx.out());

  // 2-tenant co-location on one zoo model: the thousand-op version of the
  // multi_tenant experiment. Per-tenant checksums must equal the solo
  // tenant-namespaced references under both arrangements.
  const models::ZooEntry* corun = models::zoo_find(corun_model);
  if (corun == nullptr) {
    throw std::invalid_argument("deep_models: unknown corun_model " +
                                corun_model);
  }
  const Graph g = corun->build(corun->default_batch);
  std::vector<std::unique_ptr<HostGraphProgram>> owned;
  std::vector<HostGraphProgram*> programs;
  std::vector<double> reference;
  for (std::size_t t = 0; t < 2; ++t) {
    owned.push_back(std::make_unique<HostGraphProgram>(g, 0x5eedULL, t));
    programs.push_back(owned.back().get());
    reference.push_back(serial_reference(g, t));
  }
  Runtime rt(MachineSpec::knl());
  rt.profile_host_multi(programs, /*repeats=*/1);
  for (HostGraphProgram* p : programs) (void)rt.run_step_host(*p);
  (void)rt.run_step_multi_host(programs, TenantSet::slots(programs.size()));

  double solo_total = 0.0, coloc_total = 0.0;
  std::vector<StepResult> last_coloc;
  for (int s = 0; s < steps; ++s) {
    double t0 = wall_time_ms();
    for (std::size_t t = 0; t < 2; ++t) {
      const StepResult r = rt.run_step_host(*programs[t]);
      if (r.checksum != reference[t]) {
        throw std::logic_error("deep_models: solo co-run checksum diverged");
      }
    }
    solo_total += wall_time_ms() - t0;

    t0 = wall_time_ms();
    last_coloc =
        rt.run_step_multi_host(programs, TenantSet::slots(programs.size()));
    coloc_total += wall_time_ms() - t0;
    for (std::size_t t = 0; t < 2; ++t) {
      if (last_coloc[t].checksum != reference[t]) {
        throw std::logic_error(
            "deep_models: co-located checksum diverged (tenant " +
            std::to_string(t) + ")");
      }
    }
  }
  std::vector<double> service;
  for (const StepResult& r : last_coloc) service.push_back(r.service_ms);
  ctx.metric("corun_speedup", solo_total / coloc_total, "x",
             Direction::kInfo);
  ctx.metric("corun_fairness_jain", jain_index(service), "idx",
             Direction::kInfo);

  ctx.out() << "2x " << corun_model << " co-located: "
            << fmt_double(coloc_total / steps, 3) << " ms/step vs "
            << fmt_double(solo_total / steps, 3)
            << " solo-sequential (speedup "
            << fmt_double(solo_total / coloc_total, 2) << "x, Jain "
            << fmt_double(jain_index(service), 3)
            << "); all checksums identical to serial references\n";
}

}  // namespace

void register_deep_models(Registry& reg) {
  Benchmark b;
  b.name = "deep_models";
  b.figure = "ext";
  b.description =
      "deep-model zoo: ResNet-50/101/152 + Inception-ResNet training steps "
      "on the host substrate, scheduler overhead at 1000+ ops, 2-tenant "
      "co-location, checksums enforced";
  b.default_params = {{"models", "resnet50_host,incep_resnet,resnet152"},
                      {"steps", "5"},
                      {"corun_model", "resnet50_host"}};
  b.fn = run;
  reg.add(std::move(b));
}

}  // namespace opsched::bench
