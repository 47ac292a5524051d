// Schedule trace export in Chrome tracing format (chrome://tracing /
// Perfetto): every executed op becomes a complete span on a concurrency
// lane, so the co-running structure the scheduler produced can be
// inspected visually. The spans go into an obs::TraceCollector, whose
// write() produces the file.
#pragma once

#include "graph/graph.hpp"
#include "machine/sim_machine.hpp"
#include "obs/trace.hpp"

namespace opsched {

/// Appends one span per executed op of a step's event trace to `out`,
/// under process id 1. Launch/finish pairs are matched per node id (a node
/// executes once per step); the span's track (tid) is the lowest lane free
/// at its launch, so overlapping ops get distinct rows.
void export_step_trace(const EventTrace& trace, const Graph& g,
                       obs::TraceCollector& out);

}  // namespace opsched
