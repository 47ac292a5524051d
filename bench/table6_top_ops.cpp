// Table VI: per-op-kind execution time of the five most time-consuming
// operation types in each model, under the recommendation (68 threads
// uniform) and under Strategies 1+2 (model-driven per-kind widths).
// Times are aggregates over all instances of the kind in one step.
#include <algorithm>
#include <map>

#include "all_benchmarks.hpp"
#include "core/concurrency_controller.hpp"
#include "core/runtime.hpp"
#include "models/models.hpp"
#include "util/table.hpp"

namespace opsched::bench {
namespace {

void run(Context& ctx) {
  ctx.header("Table VI",
             "top-5 op kinds: recommendation vs Strategies 1+2");

  const MachineSpec spec = MachineSpec::knl();

  for (const std::string name :
       {"resnet50", "dcgan", "inception_v3", "lstm"}) {
    const Graph g = build_model(name);

    RuntimeOptions opt;
    opt.strategies = kStrategyS12;
    Runtime rt(spec, opt);
    rt.profile(g);
    const ConcurrencyController decisions(
        rt.database(), opt, static_cast<int>(spec.num_cores), {&g});

    const CostModel& model = rt.cost_model();
    struct Agg {
      double rec = 0.0;
      double s12 = 0.0;
    };
    std::map<OpKind, Agg> agg;
    for (const Node& n : g.nodes()) {
      Agg& a = agg[n.kind];
      a.rec += model.exec_time_ms(n, static_cast<int>(spec.num_cores),
                                  AffinityMode::kSpread);
      const Candidate c = decisions.choice_for(n);
      a.s12 += model.exec_time_ms(n, c.threads, c.mode);
    }

    std::vector<std::pair<OpKind, Agg>> sorted(agg.begin(), agg.end());
    std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
      return a.second.rec > b.second.rec;
    });

    ctx.section(name);
    TablePrinter table({"Operation", "Recommendation (ms)",
                        "Strategies 1+2 (ms)", "Speedup"});
    double top5_rec = 0.0, top5_s12 = 0.0;
    for (std::size_t i = 0; i < std::min<std::size_t>(5, sorted.size()); ++i) {
      const auto& [kind, a] = sorted[i];
      table.add_row({std::string(op_kind_name(kind)), fmt_double(a.rec, 2),
                     fmt_double(a.s12, 2), fmt_double(a.rec / a.s12, 2)});
      top5_rec += a.rec;
      top5_s12 += a.s12;
    }
    table.print(ctx.out());
    ctx.metric(name + "/top5_s12_speedup", top5_rec / top5_s12, "ratio",
               Direction::kHigherIsBetter);
  }

  ctx.section("paper reference points");
  ctx.recap("ResNet-50 Conv2DBackpropFilter", "1.08x", "see table");
  ctx.recap("DCGAN Conv2DBackpropFilter", "1.21x", "see table");
  ctx.recap("LSTM SparseSoftmaxCross", "1.34x", "see table");
  ctx.recap("speedup range over top-5 ops", "1.01-1.34x", "see tables");
}

}  // namespace

void register_table6_top_ops(Registry& reg) {
  Benchmark b;
  b.name = "table6_top_ops";
  b.figure = "Table VI";
  b.description = "top-5 op kinds, recommendation vs Strategies 1+2";
  b.fn = run;
  reg.add(std::move(b));
}

}  // namespace opsched::bench
