#include "core/trace_export.hpp"

#include <map>
#include <string>
#include <vector>

namespace opsched {

void export_step_trace(const EventTrace& trace, const Graph& g,
                       obs::TraceCollector& out) {
  std::map<NodeId, double> start_ms;
  // Track concurrency lanes so overlapping ops get distinct rows.
  std::map<NodeId, std::uint32_t> lane_of;
  std::vector<bool> lane_busy;

  for (const TraceEvent& e : trace.events()) {
    if (e.is_launch) {
      start_ms[e.node] = e.time_ms;
      std::size_t lane = 0;
      while (lane < lane_busy.size() && lane_busy[lane]) ++lane;
      if (lane == lane_busy.size()) lane_busy.push_back(false);
      lane_busy[lane] = true;
      lane_of[e.node] = static_cast<std::uint32_t>(lane);
      continue;
    }
    const auto it = start_ms.find(e.node);
    if (it == start_ms.end()) continue;  // finish without launch: skip
    const Node& node = g.node(e.node);
    const std::uint32_t lane = lane_of[e.node];
    out.span({node.label, std::string(op_kind_name(node.kind)), 1, lane,
              it->second, e.time_ms - it->second});
    lane_busy[lane] = false;
    start_ms.erase(it);
  }
}

}  // namespace opsched
