#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/builder.hpp"
#include "models/zoo.hpp"
#include "testing/graph_fuzz.hpp"

namespace opsched {
namespace {

Node simple(OpKind kind, std::vector<NodeId> inputs = {}) {
  Node n;
  n.kind = kind;
  n.inputs = std::move(inputs);
  n.input_shape = TensorShape{4, 4};
  n.output_shape = TensorShape{4, 4};
  return n;
}

TEST(TensorShape, ElementsAndBytes) {
  const TensorShape s{32, 8, 8, 384};
  EXPECT_EQ(s.rank(), 4u);
  EXPECT_EQ(s.elements(), 32 * 8 * 8 * 384);
  EXPECT_EQ(s.bytes(), s.elements() * 4);
  EXPECT_EQ(TensorShape{}.elements(), 1);  // scalar
}

TEST(TensorShape, EqualityAndHash) {
  const TensorShape a{1, 2, 3};
  const TensorShape b{1, 2, 3};
  const TensorShape c{1, 2, 4};
  const TensorShape d{1, 2};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_NE(a.hash(), c.hash());
  EXPECT_NE(a.hash(), d.hash());
}

TEST(TensorShape, ToStringMatchesPaperNotation) {
  EXPECT_EQ((TensorShape{32, 8, 8, 384}).to_string(), "(32,8,8,384)");
}

TEST(TensorShape, Validation) {
  EXPECT_THROW((TensorShape{1, 2, 3, 4, 5, 6}), std::invalid_argument);
  EXPECT_THROW((TensorShape{-1}), std::invalid_argument);
  EXPECT_THROW((TensorShape{2}).dim(1), std::out_of_range);
}

TEST(OpKind, NamesRoundTrip) {
  for (std::size_t i = 0; i < kNumOpKinds; ++i) {
    const OpKind k = static_cast<OpKind>(i);
    EXPECT_EQ(op_kind_from_name(op_kind_name(k)), k);
  }
  EXPECT_THROW(op_kind_from_name("NoSuchOp"), std::invalid_argument);
}

TEST(OpKind, PaperNamesPresent) {
  // The exact names in the paper's tables must resolve.
  for (const char* name :
       {"Conv2DBackpropFilter", "Conv2DBackpropInput", "Conv2D",
        "InputConversion", "Tile", "Mul", "ToTf", "ApplyAdam", "BiasAddGrad",
        "FusedBatchNorm", "AvgPool", "MaxPooling", "SparseSoftmaxCross",
        "AddN", "MatMul"}) {
    EXPECT_NO_THROW(op_kind_from_name(name)) << name;
  }
}

TEST(OpKind, TunabilityMirrorsMklVsEigenSplit) {
  EXPECT_TRUE(op_kind_tunable(OpKind::kConv2D));
  EXPECT_TRUE(op_kind_tunable(OpKind::kMatMul));
  EXPECT_TRUE(op_kind_tunable(OpKind::kTile));
  EXPECT_FALSE(op_kind_tunable(OpKind::kToTf));
  EXPECT_FALSE(op_kind_tunable(OpKind::kInputConversion));
  EXPECT_FALSE(op_kind_tunable(OpKind::kReshape));
}

TEST(Graph, AddNodeAssignsSequentialIds) {
  Graph g;
  const NodeId a = g.add_node(simple(OpKind::kConv2D));
  const NodeId b = g.add_node(simple(OpKind::kRelu, {a}));
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(g.size(), 2u);
  EXPECT_EQ(g.node(b).inputs[0], a);
}

TEST(Graph, ForwardReferencesRejected) {
  Graph g;
  EXPECT_THROW(g.add_node(simple(OpKind::kRelu, {5})), std::invalid_argument);
}

TEST(Graph, SuccessorsTrackConsumers) {
  Graph g;
  const NodeId a = g.add_node(simple(OpKind::kConv2D));
  const NodeId b = g.add_node(simple(OpKind::kRelu, {a}));
  const NodeId c = g.add_node(simple(OpKind::kMaxPool, {a}));
  const auto& succ = g.successors(a);
  EXPECT_EQ(succ.size(), 2u);
  EXPECT_NE(std::find(succ.begin(), succ.end(), b), succ.end());
  EXPECT_NE(std::find(succ.begin(), succ.end(), c), succ.end());
  EXPECT_THROW(g.node(99), std::out_of_range);
}

TEST(Graph, TopoOrderRespectsDependencies) {
  Graph g;
  const NodeId a = g.add_node(simple(OpKind::kConv2D));
  const NodeId b = g.add_node(simple(OpKind::kRelu, {a}));
  const NodeId c = g.add_node(simple(OpKind::kMaxPool, {a}));
  const NodeId d = g.add_node(simple(OpKind::kAdd, {b, c}));
  const auto order = g.topo_order();
  ASSERT_EQ(order.size(), 4u);
  std::vector<std::size_t> pos(4);
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  EXPECT_LT(pos[a], pos[b]);
  EXPECT_LT(pos[a], pos[c]);
  EXPECT_LT(pos[b], pos[d]);
  EXPECT_LT(pos[c], pos[d]);
}

TEST(Graph, RootsAndKindCount) {
  Graph g;
  const NodeId a = g.add_node(simple(OpKind::kConv2D));
  g.add_node(simple(OpKind::kConv2D));
  g.add_node(simple(OpKind::kRelu, {a}));
  EXPECT_EQ(g.roots().size(), 2u);
  EXPECT_EQ(g.count_kind(OpKind::kConv2D), 2u);
  EXPECT_EQ(g.count_kind(OpKind::kRelu), 1u);
  EXPECT_EQ(g.count_kind(OpKind::kMatMul), 0u);
}

TEST(Graph, UidIsFreshForEveryNewContents) {
  Graph g;
  const std::uint64_t empty = g.uid();
  g.add_node(simple(OpKind::kConv2D));
  const std::uint64_t one = g.uid();
  EXPECT_NE(one, empty);
  const Graph copy = g;  // same nodes, another graph
  EXPECT_NE(copy.uid(), one);
  EXPECT_EQ(g.uid(), one);  // unchanged by being copied
  Graph moved = std::move(g);
  EXPECT_NE(moved.uid(), one);
  moved = copy;  // new contents at the same address
  EXPECT_NE(moved.uid(), copy.uid());
}

TEST(ReadyTracker, DiamondResolution) {
  Graph g;
  const NodeId a = g.add_node(simple(OpKind::kConv2D));
  const NodeId b = g.add_node(simple(OpKind::kRelu, {a}));
  const NodeId c = g.add_node(simple(OpKind::kMaxPool, {a}));
  const NodeId d = g.add_node(simple(OpKind::kAdd, {b, c}));

  ReadyTracker t(g);
  EXPECT_EQ(t.remaining(), 4u);
  ASSERT_EQ(t.initially_ready().size(), 1u);
  EXPECT_EQ(t.initially_ready()[0], a);

  std::vector<NodeId> newly;
  t.mark_done(a, newly);
  EXPECT_EQ(newly.size(), 2u);
  newly.clear();
  t.mark_done(b, newly);
  EXPECT_TRUE(newly.empty());  // d still waits on c
  t.mark_done(c, newly);
  ASSERT_EQ(newly.size(), 1u);
  EXPECT_EQ(newly[0], d);
  newly.clear();
  t.mark_done(d, newly);
  EXPECT_EQ(t.remaining(), 0u);
}

TEST(ReadyTracker, DoubleCompletionThrows) {
  Graph g;
  const NodeId a = g.add_node(simple(OpKind::kConv2D));
  ReadyTracker t(g);
  std::vector<NodeId> newly;
  t.mark_done(a, newly);
  EXPECT_THROW(t.mark_done(a, newly), std::logic_error);
  EXPECT_THROW(t.mark_done(42, newly), std::out_of_range);
}

TEST(GraphBuilder, BuildsWiredNodes) {
  GraphBuilder gb;
  const NodeId src = gb.source(OpKind::kInputConversion, "in",
                               TensorShape{2, 4, 4, 3});
  const NodeId conv =
      gb.op(OpKind::kConv2D, "conv", {src}, TensorShape{2, 4, 4, 3},
            TensorShape{3, 3, 3, 8}, TensorShape{2, 4, 4, 8});
  const NodeId relu = gb.elementwise(OpKind::kRelu, "relu", {conv},
                                     TensorShape{2, 4, 4, 8});
  const Graph g = gb.take();
  EXPECT_EQ(g.size(), 3u);
  EXPECT_EQ(g.node(conv).aux_shape, (TensorShape{3, 3, 3, 8}));
  EXPECT_EQ(g.node(relu).input_shape, g.node(relu).output_shape);
  EXPECT_EQ(g.node(relu).inputs[0], conv);
}

TEST(Rebatch, ScalesDimZeroOfInputAndOutputOnly) {
  Graph g;
  Node conv = simple(OpKind::kConv2D);
  conv.input_shape = TensorShape{1, 4, 4, 3};
  conv.aux_shape = TensorShape{3, 3, 3, 8};
  conv.output_shape = TensorShape{1, 4, 4, 8};
  const NodeId a = g.add_node(conv);
  g.add_node(simple(OpKind::kRelu, {a}));
  const Graph b = rebatch(g, 4);
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(b.node(0).input_shape, (TensorShape{4, 4, 4, 3}));
  EXPECT_EQ(b.node(0).aux_shape, (TensorShape{3, 3, 3, 8}));
  EXPECT_EQ(b.node(0).output_shape, (TensorShape{4, 4, 4, 8}));
  EXPECT_EQ(b.node(1).input_shape, (TensorShape{16, 4}));
  EXPECT_EQ(b.successors(0), g.successors(0));
  EXPECT_FALSE(is_batch_one(g));  // the relu's dim 0 is 4
  EXPECT_THROW(rebatch(g, 0), std::invalid_argument);
}

TEST(Rebatch, ZooForwardAtBatchOneRebatchesToEveryBatch) {
  for (const std::string& name : models::zoo_names()) {
    const Graph& one = models::zoo_forward(name, 1);
    EXPECT_TRUE(is_batch_one(one)) << name;
    for (const std::int64_t b : {2, 3, 4, 8, 16}) {
      SCOPED_TRACE(name + " at batch " + std::to_string(b));
      const Graph scaled = rebatch(one, b);
      const Graph& want = models::zoo_forward(name, b);
      EXPECT_FALSE(is_batch_one(want));
      ASSERT_EQ(scaled.size(), want.size());
      for (NodeId id = 0; id < want.size(); ++id) {
        const Node& x = scaled.node(id);
        const Node& y = want.node(id);
        ASSERT_EQ(x.kind, y.kind) << "node " << id;
        ASSERT_EQ(x.inputs, y.inputs) << "node " << id;
        ASSERT_EQ(x.input_shape, y.input_shape) << "node " << id;
        ASSERT_EQ(x.aux_shape, y.aux_shape) << "node " << id;
        ASSERT_EQ(x.output_shape, y.output_shape) << "node " << id;
      }
    }
  }
}

TEST(Rebatch, FuzzGraphsAreNotBatchOne) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed)
    EXPECT_FALSE(is_batch_one(testing::fuzz_graph(seed))) << seed;
}

}  // namespace
}  // namespace opsched
