// train_two_models_host: two DIFFERENT training jobs sharing one host — the
// multi-tenant co-run path end to end, natively on the CPU:
//
//   1. profile: both tenants' unique ops are hill-climb-profiled by timing
//      real kernel runs (shared (kind, shape) keys profiled once)
//      — Runtime::profile_host_multi;
//   2. execute: Runtime::run_step_multi_host schedules BOTH graphs' ready
//      ops together through the weighted-deficit Strategy 1-4 admission
//      walk, against the solo-sequential baseline (each job gets the whole
//      machine in turns);
//   3. verify: each tenant's step checksum must equal its own solo serial
//      reference bit-for-bit under both arrangements — co-location may
//      never change numerics.
//
//   ./train_two_models_host [--steps 5] [--batch 6] [--weights 1,2]
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench/registry.hpp"  // split_csv
#include "core/runtime.hpp"
#include "models/models.hpp"
#include "util/clock.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

using namespace opsched;

namespace {

double reference_checksum(const Graph& g, std::size_t tenant) {
  HostGraphProgram ref(g, 0x5eedULL, tenant);
  for (const Node& node : g.nodes()) ref.run_node_reference(node.id);
  return ref.step_checksum();
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const int steps = std::max(1, flags.get_int("steps", 5));
  const std::int64_t batch = flags.get_int("batch", 6);
  std::vector<double> weights;
  // atof, not stod: malformed terms become 0 and fall back to weight 1.
  for (const std::string& w : bench::split_csv(flags.get("weights", "")))
    weights.push_back(std::atof(w.c_str()));

  // Tenant 0 trains the LeNet-style MNIST CNN, tenant 1 the toy CNN — two
  // genuinely different op mixes contending for the same cores.
  const Graph ga = build_mnist_host(batch);
  const Graph gb = build_toy_cnn(batch);
  HostGraphProgram pa(ga, 0x5eedULL, /*tenant=*/0);
  HostGraphProgram pb(gb, 0x5eedULL, /*tenant=*/1);
  const std::vector<HostGraphProgram*> programs = {&pa, &pb};

  Runtime rt(MachineSpec::knl());
  std::cout << "tenant 0: mnist_host, " << ga.size() << " ops; tenant 1: "
            << "toy_cnn, " << gb.size() << " ops; batch " << batch << ", "
            << rt.host_pool().max_width() << " host cores";
  if (!weights.empty()) {
    std::cout << ", weights";
    for (double w : weights) std::cout << " " << w;
  }
  std::cout << "\n\n";

  const ProfilingReport prof = rt.profile_host_multi(programs);
  std::cout << "host profiling: " << prof.unique_ops
            << " unique ops across both tenants, " << prof.total_samples
            << " timed samples\n\n";

  const double ref_a = reference_checksum(ga, 0);
  const double ref_b = reference_checksum(gb, 1);

  // Warm-ups (first-use team spawn cost belongs to micro_threadpool).
  (void)rt.run_step_host(pa);
  (void)rt.run_step_host(pb);
  (void)rt.run_step_multi_host(
      programs, TenantSet::slots(programs.size(), weights));

  TablePrinter table({"Step", "solo-seq ms", "co-located ms", "t0 ms",
                      "t1 ms", "co-runs"});
  double solo_total = 0.0, coloc_total = 0.0;
  bool checksums_agree = true;
  std::vector<StepResult> coloc;
  for (int s = 1; s <= steps; ++s) {
    double t0 = wall_time_ms();
    const StepResult solo_a = rt.run_step_host(pa);
    const StepResult solo_b = rt.run_step_host(pb);
    const double solo_ms = wall_time_ms() - t0;

    t0 = wall_time_ms();
    coloc = rt.run_step_multi_host(
        programs, TenantSet::slots(programs.size(), weights));
    const double coloc_ms = wall_time_ms() - t0;

    checksums_agree = checksums_agree && solo_a.checksum == ref_a &&
                      solo_b.checksum == ref_b &&
                      coloc[0].checksum == ref_a && coloc[1].checksum == ref_b;
    solo_total += solo_ms;
    coloc_total += coloc_ms;
    table.add_row({std::to_string(s), fmt_double(solo_ms, 2),
                   fmt_double(coloc_ms, 2), fmt_double(coloc[0].time_ms, 2),
                   fmt_double(coloc[1].time_ms, 2),
                   std::to_string(coloc[0].corun_launches +
                                  coloc[1].corun_launches)});
  }
  table.print(std::cout);

  const double inv = 1.0 / static_cast<double>(steps);
  std::cout << "\nmean ms/step: solo-sequential " << fmt_double(solo_total * inv, 2)
            << ", co-located " << fmt_double(coloc_total * inv, 2) << " ("
            << fmt_double(solo_total / coloc_total, 2)
            << "x vs solo-sequential)\n";
  std::cout << "co-located: tenant services " << fmt_double(coloc[0].service_ms, 2)
            << " / " << fmt_double(coloc[1].service_ms, 2) << " ms, "
            << rt.host_executor().recorded_bad_pairs()
            << " recorded bad pairs, calibration "
            << fmt_double(rt.host_executor().calibration(), 4)
            << " wall-ms per predicted-ms\n";
  std::cout << "per-tenant checksums "
            << (checksums_agree
                    ? "identical to solo serial references (both arrangements)\n"
                    : "MISMATCH — co-location changed numerics!\n");
  return checksums_agree ? 0 : 1;
}
