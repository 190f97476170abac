// Tests of the DAG-of-samples structure: the vector-clock edge relation,
// prefix-closure, merging, serialization, and chain extraction
// (paper §4.1, Observations 4.1-4.2).
#include "dag/sample_dag.hpp"

#include <gtest/gtest.h>

namespace nucon {
namespace {

FdValue q(std::initializer_list<Pid> pids) {
  return FdValue::of_quorum(ProcessSet(pids));
}

TEST(SampleDag, EmptyDag) {
  const SampleDag dag(3);
  EXPECT_EQ(dag.total_nodes(), 0u);
  EXPECT_EQ(dag.total_edges(), 0u);
  EXPECT_EQ(dag.count_of(0), 0u);
  EXPECT_FALSE(dag.contains(NodeRef{0, 1}));
}

TEST(SampleDag, TakeSampleAppendsToOwnChain) {
  SampleDag dag(3);
  const NodeRef v1 = dag.take_sample(0, q({0}));
  EXPECT_EQ(v1, (NodeRef{0, 1}));
  const NodeRef v2 = dag.take_sample(0, q({0, 1}));
  EXPECT_EQ(v2, (NodeRef{0, 2}));
  EXPECT_EQ(dag.count_of(0), 2u);
  EXPECT_EQ(dag.node(v1).d, q({0}));
  EXPECT_EQ(dag.node(v2).d, q({0, 1}));
}

TEST(SampleDag, OwnSamplesFormAChain) {
  // Observation 4.2: later own samples are descendants of earlier ones.
  SampleDag dag(2);
  const NodeRef a = dag.take_sample(0, q({0}));
  const NodeRef b = dag.take_sample(0, q({0}));
  const NodeRef c = dag.take_sample(0, q({0}));
  EXPECT_TRUE(dag.has_edge(a, b));
  EXPECT_TRUE(dag.has_edge(b, c));
  EXPECT_TRUE(dag.has_edge(a, c));  // reachability = edge in this encoding
  EXPECT_FALSE(dag.has_edge(c, a));
  EXPECT_FALSE(dag.has_edge(b, a));
}

TEST(SampleDag, EdgesFromEveryKnownNode) {
  SampleDag dag(3);
  const NodeRef a = dag.take_sample(0, q({0}));
  const NodeRef b = dag.take_sample(1, q({1}));
  const NodeRef c = dag.take_sample(2, q({2}));
  EXPECT_TRUE(dag.has_edge(a, c));
  EXPECT_TRUE(dag.has_edge(b, c));
  EXPECT_TRUE(dag.has_edge(a, b));
  EXPECT_FALSE(dag.has_edge(c, a));
}

TEST(SampleDag, ConcurrentSamplesHaveNoEdge) {
  // Two processes sampling in different replicas, before any gossip.
  SampleDag dag_p(2);
  SampleDag dag_q(2);
  const NodeRef vp = dag_p.take_sample(0, q({0}));
  const NodeRef vq = dag_q.take_sample(1, q({1}));
  dag_p.merge_from(dag_q);
  EXPECT_TRUE(dag_p.contains(vp));
  EXPECT_TRUE(dag_p.contains(vq));
  EXPECT_FALSE(dag_p.has_edge(vp, vq));
  EXPECT_FALSE(dag_p.has_edge(vq, vp));
}

TEST(SampleDag, MergePreservesNodeData) {
  SampleDag a(2);
  a.take_sample(0, q({0}));
  SampleDag b(2);
  b.merge_from(a);
  EXPECT_EQ(b.node(NodeRef{0, 1}).d, q({0}));
  // Merging is idempotent and monotone (Observation 4.1).
  b.merge_from(a);
  EXPECT_EQ(b.total_nodes(), 1u);
}

TEST(SampleDag, GossipTransfersEdges) {
  SampleDag a(2);
  const NodeRef v1 = a.take_sample(0, q({0}));
  SampleDag b(2);
  b.merge_from(a);
  const NodeRef v2 = b.take_sample(1, q({1}));  // sees v1
  a.merge_from(b);
  EXPECT_TRUE(a.has_edge(v1, v2));
  const NodeRef v3 = a.take_sample(0, q({0}));
  EXPECT_TRUE(a.has_edge(v2, v3));
}

TEST(SampleDag, SerializeRoundTrip) {
  SampleDag a(3);
  a.take_sample(0, q({0, 1}));
  a.take_sample(1, q({1}));
  a.take_sample(0, q({0}));
  const auto decoded = SampleDag::deserialize(a.serialize());
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->n(), 3);
  EXPECT_EQ(decoded->total_nodes(), 3u);
  EXPECT_EQ(decoded->total_edges(), a.total_edges());
  EXPECT_EQ(decoded->node(NodeRef{0, 2}).d, q({0}));
  EXPECT_EQ(decoded->node(NodeRef{0, 2}).vc, a.node(NodeRef{0, 2}).vc);
}

TEST(SampleDag, SerializeRoundTripAtEveryProcessCount) {
  SampleDag a(kMaxProcesses);
  a.take_sample(kMaxProcesses - 1, q({0, kMaxProcesses - 1}));
  const auto decoded = SampleDag::deserialize(a.serialize());
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->n(), kMaxProcesses);
  EXPECT_EQ(decoded->node(NodeRef{kMaxProcesses - 1, 1}).d,
            q({0, kMaxProcesses - 1}));
  for (const std::int64_t bad : {std::int64_t{0}, std::int64_t{kMaxProcesses + 1}}) {
    ByteWriter w;
    w.svarint(bad);
    EXPECT_FALSE(SampleDag::deserialize(w.take())) << bad;
  }
}

TEST(SampleDag, DeserializeRejectsGarbage) {
  EXPECT_FALSE(SampleDag::deserialize(Bytes{}));
  EXPECT_FALSE(SampleDag::deserialize(Bytes{0xFF, 0xFF, 0xFF}));
  SampleDag a(2);
  a.take_sample(0, q({0}));
  Bytes buf = a.serialize();
  buf.pop_back();
  EXPECT_FALSE(SampleDag::deserialize(buf));
}

TEST(SampleDag, ConeContainsOnlyDescendants) {
  SampleDag dag(3);
  const NodeRef a = dag.take_sample(0, q({0}));
  const NodeRef b = dag.take_sample(1, q({1}));
  const NodeRef c = dag.take_sample(2, q({2}));
  const NodeRef d = dag.take_sample(0, q({0}));

  const auto cone = dag.cone_topo(b);
  EXPECT_EQ(cone.size(), 3u);  // b, c, d — not a
  EXPECT_EQ(cone.front(), b);
  for (const NodeRef& v : cone) {
    EXPECT_TRUE(dag.in_cone(b, v));
    EXPECT_NE(v, a);
  }
  (void)c;
  (void)d;
}

TEST(SampleDag, ConeToposortRespectsEdges) {
  SampleDag dag(3);
  for (int i = 0; i < 5; ++i) {
    dag.take_sample(static_cast<Pid>(i % 3), q({static_cast<Pid>(i % 3)}));
  }
  const NodeRef root{0, 1};
  const auto order = dag.cone_topo(root);
  for (std::size_t i = 0; i < order.size(); ++i) {
    for (std::size_t j = i + 1; j < order.size(); ++j) {
      EXPECT_FALSE(dag.has_edge(order[j], order[i]))
          << "edge goes backwards in topo order";
    }
  }
}

TEST(SampleDag, GreedyChainIsARealPath) {
  SampleDag dag(3);
  for (int i = 0; i < 9; ++i) {
    dag.take_sample(static_cast<Pid>(i % 3), q({static_cast<Pid>(i % 3)}));
  }
  const NodeRef root{0, 1};
  const auto chain = dag.greedy_chain(root);
  ASSERT_FALSE(chain.empty());
  EXPECT_EQ(chain.front(), root);
  for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
    EXPECT_TRUE(dag.has_edge(chain[i], chain[i + 1]))
        << "consecutive chain nodes must be DAG edges";
  }
}

TEST(SampleDag, GreedyChainOnLinearHistoryIsEverything) {
  // One process only: the chain must include every node.
  SampleDag dag(2);
  for (int i = 0; i < 6; ++i) dag.take_sample(0, q({0}));
  EXPECT_EQ(dag.greedy_chain(NodeRef{0, 1}).size(), 6u);
  EXPECT_EQ(dag.greedy_chain(NodeRef{0, 4}).size(), 3u);
}

TEST(SampleDag, TotalEdgesCountsPredecessors) {
  SampleDag dag(2);
  dag.take_sample(0, q({0}));  // 0 preds
  dag.take_sample(0, q({0}));  // 1 pred
  dag.take_sample(1, q({1}));  // 2 preds
  EXPECT_EQ(dag.total_edges(), 3u);
}

TEST(SampleDag, FrontierMatchesCounts) {
  SampleDag dag(3);
  dag.take_sample(2, q({2}));
  dag.take_sample(2, q({2}));
  dag.take_sample(0, q({0}));
  const auto f = dag.frontier();
  EXPECT_EQ(f, (std::vector<std::uint32_t>{1, 0, 2}));
}

}  // namespace
}  // namespace nucon
