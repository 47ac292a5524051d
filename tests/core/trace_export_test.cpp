// Chrome-tracing export of schedule traces.
#include "core/trace_export.hpp"

#include <gtest/gtest.h>

#include <fstream>

#include "core/runtime.hpp"
#include "graph/builder.hpp"
#include "models/models.hpp"
#include "util/json.hpp"

namespace opsched {
namespace {

/// The exported trace, parsed back: the array of Chrome events.
json::JsonArray export_parsed(const EventTrace& trace, const Graph& g) {
  obs::TraceCollector collector;
  export_step_trace(trace, g, collector);
  json::JsonValue doc = json::parse(collector.to_chrome_json());
  EXPECT_EQ(doc.kind, json::JsonValue::Kind::kArray);
  return std::move(*doc.array);
}

TEST(TraceExport, EmptyTraceIsEmptyArray) {
  const Graph g;
  EventTrace trace;
  EXPECT_TRUE(export_parsed(trace, g).empty());
}

TEST(TraceExport, PairsLaunchAndFinish) {
  GraphBuilder gb;
  const NodeId a =
      gb.source(OpKind::kConv2D, "my_op", TensorShape{2, 4, 4, 8});
  const Graph g = gb.take();

  EventTrace trace;
  trace.record(1.0, true, a, OpKind::kConv2D, 1);
  trace.record(3.5, false, a, OpKind::kConv2D, 0);
  const json::JsonArray events = export_parsed(trace, g);
  ASSERT_EQ(events.size(), 1u);
  const json::JsonValue& e = events[0];
  EXPECT_EQ(json::str_member(e, "name"), "my_op");
  EXPECT_EQ(json::str_member(e, "ph"), "X");
  EXPECT_DOUBLE_EQ(json::num_member(e, "ts"), 1000.0);  // ms -> us
  EXPECT_DOUBLE_EQ(json::num_member(e, "dur"), 2500.0);
  EXPECT_EQ(json::str_member(e, "cat"), "Conv2D");
  EXPECT_DOUBLE_EQ(json::num_member(e, "pid"), 1.0);
}

TEST(TraceExport, OverlappingOpsGetDistinctLanes) {
  GraphBuilder gb;
  const NodeId a = gb.source(OpKind::kConv2D, "a", TensorShape{2, 4, 4, 8});
  const NodeId b = gb.source(OpKind::kConv2D, "b", TensorShape{2, 4, 4, 8});
  const Graph g = gb.take();

  EventTrace trace;
  trace.record(0.0, true, a, OpKind::kConv2D, 1);
  trace.record(0.5, true, b, OpKind::kConv2D, 2);
  trace.record(1.0, false, a, OpKind::kConv2D, 1);
  trace.record(1.5, false, b, OpKind::kConv2D, 0);
  const json::JsonArray events = export_parsed(trace, g);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(json::str_member(events[0], "name"), "a");
  EXPECT_DOUBLE_EQ(json::num_member(events[0], "tid"), 0.0);
  EXPECT_EQ(json::str_member(events[1], "name"), "b");
  EXPECT_DOUBLE_EQ(json::num_member(events[1], "tid"), 1.0);
}

TEST(TraceExport, EscapesQuotesInLabels) {
  GraphBuilder gb;
  const NodeId a =
      gb.source(OpKind::kConv2D, "weird\"label", TensorShape{2, 4, 4, 8});
  const Graph g = gb.take();
  EventTrace trace;
  trace.record(0.0, true, a, OpKind::kConv2D, 1);
  trace.record(1.0, false, a, OpKind::kConv2D, 0);
  const json::JsonArray events = export_parsed(trace, g);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(json::str_member(events[0], "name"), "weird\"label");
}

TEST(TraceExport, AdversarialLabelsStillParse) {
  // Backslashes, embedded quotes, newlines, tabs and raw control bytes in
  // op labels must all survive into VALID JSON (chrome://tracing rejects
  // the whole file otherwise).
  GraphBuilder gb;
  const NodeId a = gb.source(OpKind::kConv2D, "conv\\bwd \"grad\"",
                             TensorShape{2, 4, 4, 8});
  const NodeId b = gb.source(OpKind::kMatMul, "mm\nline\ttab\x01ctl",
                             TensorShape{2, 4, 4, 8});
  const Graph g = gb.take();
  EventTrace trace;
  trace.record(0.0, true, a, OpKind::kConv2D, 1);
  trace.record(0.5, true, b, OpKind::kMatMul, 2);
  trace.record(1.0, false, a, OpKind::kConv2D, 1);
  trace.record(1.5, false, b, OpKind::kMatMul, 0);

  const json::JsonArray events = export_parsed(trace, g);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(json::str_member(events[0], "name"), "conv\\bwd \"grad\"");
  EXPECT_EQ(json::str_member(events[1], "name"), "mm\nline\ttab\x01ctl");
}

TEST(TraceExport, FullStepTraceRoundTripsToFile) {
  const Graph g = build_dcgan();
  Runtime rt(MachineSpec::knl());
  rt.profile(g);
  const StepResult r = rt.run_step(g);

  obs::TraceCollector collector;
  export_step_trace(r.trace, g, collector);
  const std::string path = std::string(::testing::TempDir()) + "/trace.json";
  collector.write(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  // One complete event per executed op.
  const json::JsonValue doc = json::parse(content);
  ASSERT_EQ(doc.kind, json::JsonValue::Kind::kArray);
  std::size_t events = 0;
  for (const json::JsonValue& e : *doc.array)
    if (json::str_member(e, "ph") == "X") ++events;
  EXPECT_EQ(events, g.size());
  EXPECT_THROW(collector.write("/no-such-dir-xyz/t.json"), std::runtime_error);
}

}  // namespace
}  // namespace opsched
