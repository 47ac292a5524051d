// The benchmark's own tests (perfbench --self-test): seeded inputs are
// reproducible, the percentile rule holds, an injected checksum mismatch is
// counted as a failure, and every metric name is well formed.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>

#include "inputs.hpp"
#include "machine/machine_spec.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
  if (!ok) ++failures;
}

bool same_plan(const std::vector<FleetJobPlan>& a, const std::vector<FleetJobPlan>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].model != b[i].model || a[i].steps != b[i].steps || a[i].weight != b[i].weight ||
        a[i].priority != b[i].priority || a[i].wave != b[i].wave ||
        a[i].cancel_after != b[i].cancel_after || a[i].tensor_seed != b[i].tensor_seed)
      return false;
  return true;
}

void test_inputs() {
  const TrainInputs a = train_fine_inputs(7, 11), b = train_fine_inputs(7, 11);
  const TrainInputs c = train_fine_inputs(8, 12);
  expect(a.tensor_seed == b.tensor_seed && same_graph(a.graph, b.graph),
         "same seeds give identical fuzz graphs and tensor seed");
  expect(!same_graph(a.graph, c.graph) && a.tensor_seed != c.tensor_seed,
         "other seeds give other fuzz graphs and tensor seeds");
  expect(train_deep_inputs(7).tensor_seed == train_deep_inputs(7).tensor_seed &&
             train_deep_inputs(7).tensor_seed != train_deep_inputs(8).tensor_seed,
         "train_deep tensor seed follows the seed");
  const std::vector<double> p = poisson_arrivals(20.0, 500, 7);
  expect(p == poisson_arrivals(20.0, 500, 7) && p != poisson_arrivals(20.0, 500, 8),
         "same seed gives identical Poisson traces");
  expect(p.size() == 500 && std::is_sorted(p.begin(), p.end()),
         "Poisson trace has exactly the stated request count, ascending");
  const auto f = fleet_script(7, 12, 30);
  expect(same_plan(f, fleet_script(7, 12, 30)) && !same_plan(f, fleet_script(8, 12, 30)),
         "same seed gives identical fleet job scripts");
  std::size_t cancels = 0;
  for (const FleetJobPlan& j : f) cancels += j.cancel_after >= 0;
  expect(cancels > f.size() / 16 && cancels < f.size() / 4,
         "about one fleet job in eight is cancelled (" + std::to_string(cancels) + " of " +
             std::to_string(f.size()) + ")");
}

void test_percentile_rule() {
  expect(percentile_allowed(95, 200) && !percentile_allowed(95, 199),
         "p95 needs 200 samples");
  expect(percentile_allowed(99, 1000) && !percentile_allowed(99, 999),
         "p99 needs 1000 samples");
  expect(highest_allowed_percentile(19) == 50 && highest_allowed_percentile(100) == 90 &&
             highest_allowed_percentile(200) == 95 && highest_allowed_percentile(1000) == 99 &&
             highest_allowed_percentile(10000) == 99.9,
         "highest allowed percentile follows the sample count");
  bool threw = false;
  try {
    (void)checked_percentile(std::vector<double>(150, 1.0), 95, "probe");
  } catch (const std::logic_error&) {
    threw = true;
  }
  expect(threw, "a tail percentile over too few samples is refused");
  std::vector<double> xs;
  for (int i = 1; i <= 200; ++i) xs.push_back(i);
  expect(checked_percentile(xs, 50, "x") == 100.5, "median of 1..200 is 100.5");
  // Three 200-sample blocks, the middle one slow: the block median keeps
  // the tail of the two ordinary blocks.
  std::vector<double> runs;
  for (int b = 0; b < 3; ++b)
    for (int i = 1; i <= 200; ++i) runs.push_back(b == 1 ? 1000.0 + i : i);
  expect(block_median_percentile(runs, 95, 200, "x") == checked_percentile(xs, 95, "x"),
         "the block-median tail ignores one slow block");
}

void test_injected_mismatch() {
  const TrainInputs in = train_fine_inputs(3, kMicroDispatchGraph);
  opsched::HostGraphProgram program(in.graph, in.tensor_seed);
  opsched::Runtime rt(opsched::MachineSpec::knl());
  rt.profile_host(program, 1);
  const double expected = reference_checksum(in.graph, in.tensor_seed);
  SpanRecorder spans(false);
  const TrainLoop clean = train_loop(rt, program, expected, 12, 0.0, -1, false, spans);
  const TrainLoop bad = train_loop(rt, program, expected, 12, 0.0, 4, false, spans);
  expect(clean.mismatches == 0 && clean.steps.size() == 12,
         "every step matches the serial reference");
  expect(bad.mismatches == 1, "an injected checksum mismatch is counted once");
}

void test_metric_names() {
  bool ok = true;
  for (const auto* names : {&end_to_end_names(), &layer_metric_names()})
    for (const auto& [name, unit] : *names) ok = ok && valid_metric_name(name);
  expect(ok, "every metric name matches [A-Za-z0-9_.-]+");
  expect(!valid_metric_name("") && !valid_metric_name("a b") && !valid_metric_name("x{y}") &&
             valid_metric_name("core.decision_us.mean"),
         "the name rule rejects spaces and braces");
}

void test_self_time() {
  SpanRecorder rec(true);
  const int outer = rec.begin("outer", "a");
  const int inner = rec.begin("inner", "b");
  rec.end(inner);
  rec.end(outer);
  const std::vector<double> self = rec.self_us();
  const std::vector<Span>& s = rec.spans();
  const double outer_dur = s[0].end_us - s[0].start_us;
  const double inner_dur = s[1].end_us - s[1].start_us;
  expect(s[1].parent == 0 && std::abs(self[0] - (outer_dur - inner_dur)) < 1e-6 &&
             self[1] == inner_dur,
         "self time is a span minus its children");
}

}  // namespace

int self_test() {
  try {
    test_inputs();
    test_percentile_rule();
    test_injected_mismatch();
    test_metric_names();
    test_self_time();
  } catch (const std::exception& e) {
    std::cout << "FAIL exception: " << e.what() << "\n";
    ++failures;
  }
  std::cout << (failures == 0 ? "all self-tests passed" : "self-tests failed") << "\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
