// perfbench: the repository benchmark. One workload per invocation:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//   perfbench --self-test
//   perfbench --list-metrics
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. Earlier lines carry
// context (effective-core probe, sample counts, failed checks). A traced
// run also writes the benchmark's own spans as Chrome trace JSON under
// .bench_out/. See README.md for the metrics and workloads.
#include <cmath>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace perfbench {
int self_test();
}

namespace {

using namespace perfbench;

int usage() {
  std::cerr << "usage: perfbench --workload train_deep|train_fine|serve_infer|fleet_churn"
               " --seed N --seconds S --trace 0|1\n"
               "       perfbench --self-test | --list-metrics\n";
  return 2;
}

void print_context(const std::string& workload, const Result& res,
                   std::pair<double, double> alu, std::size_t cores) {
  std::ostringstream os;
  os << "{\"context\":{\"workload\":" << json_string(workload)
     << ",\"alu_ms_1_thread\":" << json_number(alu.first)
     << ",\"alu_ms_" << cores << "_threads\":" << json_number(alu.second)
     << ",\"effective_cores\":" << json_number(static_cast<double>(cores) * alu.first / alu.second)
     << ",\"fail_frac\":"
     << json_number(static_cast<double>(res.failed) / static_cast<double>(res.attempted));
  for (const auto& [k, v] : res.context) os << "," << json_string(k) << ":" << json_number(v);
  os << ",\"failures\":[";
  for (std::size_t i = 0; i < res.failures.size(); ++i)
    os << (i ? "," : "") << json_string(res.failures[i]);
  os << "]}}";
  std::cout << os.str() << "\n";
}

int run(const RunConfig& cfg) {
  SpanRecorder spans(cfg.trace);
  const std::size_t cores = host_cores();
  // Effective-core probe: context next to the numbers, not a metric.
  const std::pair<double, double> alu = alu_probe(cores);

  Result res;
  {
    Scope root(spans, cfg.workload, "bench");
    if (cfg.workload == "train_deep") res = run_train_deep(cfg, spans);
    else if (cfg.workload == "train_fine") res = run_train_fine(cfg, spans);
    else if (cfg.workload == "serve_infer") res = run_serve_infer(cfg, spans);
    else if (cfg.workload == "fleet_churn") res = run_fleet_churn(cfg, spans);
    else return usage();
  }
  if (res.attempted == 0) throw std::logic_error("workload attempted nothing");
  res.set("peak_rss_mb", peak_rss_mb(), "MB");
  res.set("ok_frac", 1.0 - static_cast<double>(res.failed) / static_cast<double>(res.attempted),
          "frac");

  if (cfg.trace) {
    for (const auto& [layer, ms] : spans.self_ms_by_layer())
      res.context["self_ms." + layer] = ms;
    std::filesystem::create_directories(".bench_out");
    const std::string path = ".bench_out/trace_" + cfg.workload + "_" +
                             std::to_string(cfg.seed) + ".json";
    std::ofstream(path) << spans.to_chrome_json();
    res.context["spans"] = static_cast<double>(spans.spans().size());
  }
  print_context(cfg.workload, res, alu, cores);

  const auto& names = cfg.trace ? layer_metric_names() : end_to_end_names();
  std::ostringstream os;
  os << "{\"correct\": " << (res.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << res.attempted << ", \"failed\": " << res.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < names.size(); ++i) {
    const auto it = res.metrics.find(names[i].first);
    if (it == res.metrics.end() || it->second.unit != names[i].second ||
        !std::isfinite(it->second.value))
      throw std::logic_error("metric " + names[i].first + " missing, mis-united or not finite");
    os << (i ? ", " : "") << json_string(names[i].first) << ": {\"value\": "
       << json_number(it->second.value) << ", \"unit\": " << json_string(it->second.unit)
       << "}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  bool have_workload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
        return argv[++i];
      };
      if (a == "--self-test") return perfbench::self_test();
      if (a == "--list-metrics") {
        for (const auto& [name, unit] : end_to_end_names())
          std::cout << "end_to_end " << name << " " << unit << "\n";
        for (const auto& [name, unit] : layer_metric_names())
          std::cout << "per_layer " << name << " " << unit << "\n";
        return 0;
      }
      if (a == "--workload") {
        cfg.workload = value();
        have_workload = true;
      } else if (a == "--seed") {
        cfg.seed = std::stoull(value());
      } else if (a == "--seconds") {
        cfg.seconds = std::stod(value());
      } else if (a == "--trace") {
        cfg.trace = value() != "0";
      } else if (a == "--inject-mismatch") {
        cfg.inject_mismatch = true;
      } else {
        return usage();
      }
    }
    if (!have_workload) return usage();
    return run(cfg);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
