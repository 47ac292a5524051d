#include "graph/graph.hpp"

#include <atomic>
#include <queue>
#include <stdexcept>
#include <utility>

namespace opsched {

std::uint64_t Graph::Uid::next() {
  static std::atomic<std::uint64_t> last{0};
  return ++last;
}

NodeId Graph::add_node(Node node) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  for (NodeId in : node.inputs) {
    if (in >= id)
      throw std::invalid_argument(
          "Graph::add_node: input references a node not yet added");
  }
  node.id = id;
  for (NodeId in : node.inputs) succ_[in].push_back(id);
  nodes_.push_back(std::move(node));
  succ_.emplace_back();
  uid_.value = Uid::next();
  return id;
}

const Node& Graph::node(NodeId id) const {
  if (id >= nodes_.size()) throw std::out_of_range("Graph::node");
  return nodes_[id];
}

const std::vector<NodeId>& Graph::successors(NodeId id) const {
  if (id >= succ_.size()) throw std::out_of_range("Graph::successors");
  return succ_[id];
}

std::vector<NodeId> Graph::topo_order() const {
  std::vector<std::uint32_t> indeg(nodes_.size(), 0);
  for (const Node& n : nodes_) indeg[n.id] = static_cast<std::uint32_t>(n.inputs.size());
  std::queue<NodeId> q;
  for (const Node& n : nodes_)
    if (indeg[n.id] == 0) q.push(n.id);
  std::vector<NodeId> order;
  order.reserve(nodes_.size());
  while (!q.empty()) {
    const NodeId id = q.front();
    q.pop();
    order.push_back(id);
    for (NodeId s : succ_[id]) {
      if (--indeg[s] == 0) q.push(s);
    }
  }
  if (order.size() != nodes_.size())
    throw std::logic_error("Graph::topo_order: cycle detected");
  return order;
}

std::vector<NodeId> Graph::roots() const {
  std::vector<NodeId> r;
  for (const Node& n : nodes_)
    if (n.inputs.empty()) r.push_back(n.id);
  return r;
}

std::size_t Graph::count_kind(OpKind kind) const noexcept {
  std::size_t c = 0;
  for (const Node& n : nodes_)
    if (n.kind == kind) ++c;
  return c;
}

bool is_batch_one(const Graph& g) {
  const auto one = [](const TensorShape& s) {
    return s.rank() >= 1 && s[0] == 1;
  };
  for (const Node& n : g.nodes())
    if (!one(n.input_shape) || !one(n.output_shape)) return false;
  return true;
}

Graph rebatch(const Graph& g, std::int64_t batch) {
  if (batch <= 0) throw std::invalid_argument("rebatch: non-positive batch");
  Graph out;
  for (Node n : g.nodes()) {
    n.input_shape = n.input_shape.scaled_dim0(batch);
    n.output_shape = n.output_shape.scaled_dim0(batch);
    out.add_node(std::move(n));
  }
  return out;
}

ReadyTracker::ReadyTracker(const Graph& graph)
    : graph_(graph),
      pending_inputs_(graph.size()),
      done_(graph.size(), 0),
      remaining_(graph.size()) {
  for (const Node& n : graph.nodes()) {
    pending_inputs_[n.id] = static_cast<std::uint32_t>(n.inputs.size());
    if (n.inputs.empty()) initially_ready_.push_back(n.id);
  }
}

void ReadyTracker::mark_done(NodeId id, std::vector<NodeId>& out) {
  if (id >= done_.size()) throw std::out_of_range("ReadyTracker::mark_done");
  if (done_[id]) throw std::logic_error("ReadyTracker: node finished twice");
  done_[id] = 1;
  --remaining_;
  for (NodeId s : graph_.successors(id)) {
    if (--pending_inputs_[s] == 0) out.push_back(s);
  }
}

}  // namespace opsched
