// Dataflow graph: nodes are operation instances, edges are data/control
// dependencies. This is the substrate the paper's runtime schedules over —
// "an operation is ready to run as long as its dependencies are resolved".
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/op_kind.hpp"
#include "graph/shape.hpp"

namespace opsched {

using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

/// One operation instance in a training step.
struct Node {
  NodeId id = kInvalidNode;
  OpKind kind = OpKind::kConv2D;
  /// Human-readable label, e.g. "res2a/Conv2D" (unique per graph not
  /// required; ids are the identity).
  std::string label;
  /// Producer nodes this op waits on.
  std::vector<NodeId> inputs;
  /// The shape of the *primary* input tensor — the paper keys concurrency
  /// decisions on "input data size", i.e. this shape.
  TensorShape input_shape;
  /// Secondary shape (filter shape for convs, rhs for matmul, ...).
  TensorShape aux_shape;
  /// Output shape.
  TensorShape output_shape;
};

/// Immutable-after-build DAG with dependency bookkeeping helpers.
class Graph {
 public:
  Graph() = default;

  /// Adds a node; `inputs` must reference already-added nodes. Returns id.
  NodeId add_node(Node node);

  std::size_t size() const noexcept { return nodes_.size(); }
  const Node& node(NodeId id) const;
  const std::vector<Node>& nodes() const noexcept { return nodes_; }

  /// Consumers of each node (reverse edges), built incrementally.
  const std::vector<NodeId>& successors(NodeId id) const;

  /// Kahn topological order; throws std::logic_error if a cycle exists
  /// (cannot normally happen because edges only point backwards, but guards
  /// against manual misuse).
  std::vector<NodeId> topo_order() const;

  /// Nodes with no inputs.
  std::vector<NodeId> roots() const;

  /// Total nodes of a given kind.
  std::size_t count_kind(OpKind kind) const noexcept;

  /// Process-unique identity of this graph's contents: fresh at
  /// construction, copy, move and every add_node. A new graph may reuse a
  /// freed graph's address, so decisions made over a graph key on this.
  std::uint64_t uid() const noexcept { return uid_.value; }

 private:
  /// A number no other graph holds; copies and moves draw a fresh one.
  struct Uid {
    Uid() = default;
    Uid(const Uid&) {}
    Uid& operator=(const Uid&) {
      value = next();
      return *this;
    }
    static std::uint64_t next();
    std::uint64_t value = next();
  };

  std::vector<Node> nodes_;
  std::vector<std::vector<NodeId>> succ_;
  Uid uid_;
};

/// True when every node's input and output shape has rank >= 1 and dim 0
/// == 1: a graph that serves one request, which rebatch() can scale to b.
bool is_batch_one(const Graph& g);

/// `g` with dim 0 of every node's input and output shape multiplied by
/// `batch`; aux shapes (filters, weights) and the wiring are unchanged.
/// For a zoo forward view at batch 1 this is the view at `batch`, node for
/// node. Throws std::invalid_argument on a non-positive batch.
Graph rebatch(const Graph& g, std::int64_t batch);

/// Tracks which nodes are ready as their dependencies resolve. Used by every
/// executor (FIFO baseline and the adaptive scheduler alike).
class ReadyTracker {
 public:
  explicit ReadyTracker(const Graph& graph);

  /// Nodes ready at step start (roots).
  const std::vector<NodeId>& initially_ready() const noexcept {
    return initially_ready_;
  }

  /// Marks `id` complete; appends newly-ready successors to `out`.
  void mark_done(NodeId id, std::vector<NodeId>& out);

  /// Number of nodes not yet completed.
  std::size_t remaining() const noexcept { return remaining_; }

  bool is_done(NodeId id) const { return done_.at(id); }

 private:
  const Graph& graph_;
  std::vector<std::uint32_t> pending_inputs_;
  std::vector<char> done_;
  std::vector<NodeId> initially_ready_;
  std::size_t remaining_ = 0;
};

}  // namespace opsched
