#include "algo/transform.h"

#include <gtest/gtest.h>

#include "algo/connectivity.h"
#include "test_support.h"
#include "util/parallel.h"

namespace ringo {
namespace {

TEST(SubgraphTest, InducedEdgesOnly) {
  DirectedGraph g;
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  g.AddEdge(3, 1);
  const DirectedGraph s = Subgraph(g, {1, 2, 99});
  EXPECT_EQ(s.NumNodes(), 2);
  EXPECT_EQ(s.NumEdges(), 1);
  EXPECT_TRUE(s.HasEdge(1, 2));
}

TEST(SubgraphTest, UndirectedInduced) {
  UndirectedGraph g;
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  g.AddEdge(3, 3);
  const UndirectedGraph s = Subgraph(g, {2, 3});
  EXPECT_EQ(s.NumNodes(), 2);
  EXPECT_EQ(s.NumEdges(), 2);  // {2,3} and the self-loop {3,3}.
}

TEST(ReverseTest, FlipsAllEdges) {
  DirectedGraph g = testing::RandomDirected(30, 150, 3);
  const DirectedGraph r = Reverse(g);
  EXPECT_EQ(r.NumNodes(), g.NumNodes());
  EXPECT_EQ(r.NumEdges(), g.NumEdges());
  g.ForEachEdge([&](NodeId u, NodeId v) { EXPECT_TRUE(r.HasEdge(v, u)); });
  // Double reverse restores structure.
  EXPECT_TRUE(Reverse(r).SameStructure(g));
}

TEST(ToUndirectedTest, ReciprocalEdgesCollapse) {
  DirectedGraph g;
  g.AddEdge(1, 2);
  g.AddEdge(2, 1);
  g.AddEdge(2, 3);
  const UndirectedGraph u = ToUndirected(g);
  EXPECT_EQ(u.NumEdges(), 2);
  EXPECT_TRUE(u.HasEdge(1, 2));
}

// ToUndirected merges each node's out- and in-lists; the reference is the
// edge-by-edge build through AddEdge. Covers self-loops, reciprocal pairs
// and isolated nodes, at several thread counts.
TEST(ToUndirectedTest, MatchesEdgeByEdgeBuild) {
  for (const uint64_t seed : {3u, 77u, 2024u}) {
    DirectedGraph g = testing::RandomDirected(400, 3000, seed);
    for (NodeId u = 0; u < 40; ++u) {
      g.AddEdge(u, u);  // Self-loops.
      g.AddEdge(u, (u * 7 + 1) % 400);  // Reciprocal pairs.
      g.AddEdge((u * 7 + 1) % 400, u);
    }
    for (NodeId id = 5000; id < 5010; ++id) g.AddNode(id);  // Isolated.
    UndirectedGraph want;
    g.ForEachNode(
        [&](NodeId id, const DirectedGraph::NodeData&) { want.AddNode(id); });
    g.ForEachEdge([&](NodeId u, NodeId v) { want.AddEdge(u, v); });
    for (int threads : {1, 2, 4}) {
      const int prev = NumThreads();
      SetNumThreads(threads);
      const UndirectedGraph got = ToUndirected(g);
      SetNumThreads(prev);
      EXPECT_EQ(got.NumNodes(), want.NumNodes());
      EXPECT_EQ(got.NumEdges(), want.NumEdges());
      EXPECT_TRUE(got.SameStructure(want))
          << "seed=" << seed << " threads=" << threads;
      EXPECT_EQ(got.Degree(5003), 0);
    }
  }
}

TEST(ToDirectedTest, EveryEdgeBothWays) {
  UndirectedGraph u;
  u.AddEdge(1, 2);
  u.AddEdge(3, 3);
  const DirectedGraph d = ToDirected(u);
  EXPECT_TRUE(d.HasEdge(1, 2));
  EXPECT_TRUE(d.HasEdge(2, 1));
  EXPECT_TRUE(d.HasEdge(3, 3));
  EXPECT_EQ(d.NumEdges(), 3);
}

TEST(RemoveSelfLoopsTest, Directed) {
  DirectedGraph g;
  g.AddEdge(1, 1);
  g.AddEdge(1, 2);
  const DirectedGraph c = RemoveSelfLoops(g);
  EXPECT_EQ(c.NumEdges(), 1);
  EXPECT_EQ(c.NumNodes(), 2);
  EXPECT_FALSE(c.HasEdge(1, 1));
}

TEST(MaxComponentTest, ExtractsLargest) {
  DirectedGraph g;
  g.AddEdge(1, 2);
  g.AddEdge(2, 1);
  g.AddEdge(10, 11);
  g.AddEdge(11, 12);
  g.AddEdge(12, 10);
  g.AddEdge(12, 13);
  const DirectedGraph wcc = MaxWccSubgraph(g);
  EXPECT_EQ(wcc.NumNodes(), 4);  // {10, 11, 12, 13}.
  const DirectedGraph scc = MaxSccSubgraph(g);
  EXPECT_EQ(scc.NumNodes(), 3);  // {10, 11, 12}.
  EXPECT_TRUE(scc.HasEdge(12, 10));
}

TEST(SampleNodesTest, InducedSubgraphOfRightSize) {
  DirectedGraph g = testing::RandomDirected(50, 300, 3);
  const DirectedGraph s = SampleNodes(g, 20, 7);
  EXPECT_EQ(s.NumNodes(), 20);
  s.ForEachEdge([&](NodeId u, NodeId v) { EXPECT_TRUE(g.HasEdge(u, v)); });
  // Determinism.
  EXPECT_TRUE(SampleNodes(g, 20, 7).SameStructure(s));
  EXPECT_EQ(SampleNodes(g, 500, 7).NumNodes(), 50);
}

TEST(SampleEdgesTest, KeepsAllNodesAndKEdges) {
  DirectedGraph g = testing::RandomDirected(40, 250, 5);
  const DirectedGraph s = SampleEdges(g, 50, 9);
  EXPECT_EQ(s.NumNodes(), g.NumNodes());
  EXPECT_EQ(s.NumEdges(), 50);
  s.ForEachEdge([&](NodeId u, NodeId v) { EXPECT_TRUE(g.HasEdge(u, v)); });
  EXPECT_TRUE(SampleEdges(g, 50, 9).SameStructure(s));
}

TEST(GraphSetOpsTest, UnionMergesEverything) {
  DirectedGraph a, b;
  a.AddEdge(1, 2);
  a.AddNode(5);
  b.AddEdge(2, 3);
  b.AddEdge(1, 2);  // Shared edge counted once.
  const DirectedGraph u = GraphUnion(a, b);
  EXPECT_EQ(u.NumNodes(), 4);
  EXPECT_EQ(u.NumEdges(), 2);
  EXPECT_TRUE(u.HasEdge(1, 2));
  EXPECT_TRUE(u.HasEdge(2, 3));
  EXPECT_TRUE(u.HasNode(5));
}

TEST(GraphSetOpsTest, IntersectionKeepsCommon) {
  DirectedGraph a, b;
  a.AddEdge(1, 2);
  a.AddEdge(2, 3);
  b.AddEdge(1, 2);
  b.AddEdge(3, 2);
  b.AddNode(99);
  const DirectedGraph i = GraphIntersection(a, b);
  EXPECT_EQ(i.NumEdges(), 1);
  EXPECT_TRUE(i.HasEdge(1, 2));
  EXPECT_FALSE(i.HasNode(99));
  EXPECT_TRUE(i.HasNode(3)) << "node 3 is in both, even without edges";
}

TEST(GraphSetOpsTest, DifferenceRemovesSharedEdges) {
  DirectedGraph a, b;
  a.AddEdge(1, 2);
  a.AddEdge(2, 3);
  b.AddEdge(1, 2);
  const DirectedGraph d = GraphDifference(a, b);
  EXPECT_EQ(d.NumEdges(), 1);
  EXPECT_TRUE(d.HasEdge(2, 3));
  EXPECT_TRUE(d.HasNode(1)) << "nodes survive even when edges are removed";
}

TEST(GraphSetOpsTest, AlgebraicIdentities) {
  const DirectedGraph g = testing::RandomDirected(30, 120, 7);
  EXPECT_TRUE(GraphUnion(g, g).SameStructure(g));
  EXPECT_TRUE(GraphIntersection(g, g).SameStructure(g));
  EXPECT_EQ(GraphDifference(g, g).NumEdges(), 0);
  // (a ∖ b) ∪ (a ∩ b) == a, over a common node set.
  const DirectedGraph h = testing::RandomDirected(30, 120, 8);
  const DirectedGraph rebuilt =
      GraphUnion(GraphDifference(g, h), GraphIntersection(g, h));
  // Intersection may drop nodes absent from h; union with the difference
  // (which keeps all of g's nodes) restores them.
  EXPECT_TRUE(rebuilt.SameStructure(g));
}

TEST(EgonetTest, RadiusControlsMembership) {
  DirectedGraph g;
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  g.AddEdge(9, 0);  // In-neighbor of the center.
  const DirectedGraph r1 = Egonet(g, 0, 1);
  EXPECT_EQ(r1.NumNodes(), 3);  // {0, 1, 9} (undirected ball).
  EXPECT_TRUE(r1.HasEdge(0, 1));
  EXPECT_TRUE(r1.HasEdge(9, 0));
  const DirectedGraph r2 = Egonet(g, 0, 2);
  EXPECT_EQ(r2.NumNodes(), 4);
  const DirectedGraph out_only = Egonet(g, 0, 2, /*undirected=*/false);
  EXPECT_EQ(out_only.NumNodes(), 3);  // {0, 1, 2}; 9 not out-reachable.
  EXPECT_FALSE(out_only.HasNode(9));
}

TEST(EgonetTest, MissingCenterIsEmpty) {
  DirectedGraph g;
  g.AddEdge(0, 1);
  EXPECT_EQ(Egonet(g, 42, 2).NumNodes(), 0);
}

TEST(EgonetTest, RadiusZeroIsJustTheCenter) {
  DirectedGraph g;
  g.AddEdge(0, 1);
  g.AddEdge(0, 0);
  const DirectedGraph e = Egonet(g, 0, 0);
  EXPECT_EQ(e.NumNodes(), 1);
  EXPECT_TRUE(e.HasEdge(0, 0)) << "self-loop is induced";
}

TEST(RewireTest, PreservesDegreeSequences) {
  DirectedGraph g = testing::RandomDirected(50, 300, 7);
  const DirectedGraph r = RewireEdges(g, 1000, 3);
  EXPECT_EQ(r.NumNodes(), g.NumNodes());
  EXPECT_EQ(r.NumEdges(), g.NumEdges());
  for (NodeId id : g.SortedNodeIds()) {
    EXPECT_EQ(r.OutDegree(id), g.OutDegree(id)) << id;
    EXPECT_EQ(r.InDegree(id), g.InDegree(id)) << id;
  }
}

TEST(RewireTest, ActuallyChangesEdges) {
  DirectedGraph g = testing::RandomDirected(50, 300, 7);
  const DirectedGraph r = RewireEdges(g, 1000, 3);
  EXPECT_FALSE(r.SameStructure(g)) << "rewiring should alter the edge set";
}

TEST(RewireTest, DeterministicPerSeed) {
  DirectedGraph g = testing::RandomDirected(40, 200, 9);
  const DirectedGraph a = RewireEdges(g, 500, 11);
  const DirectedGraph b = RewireEdges(g, 500, 11);
  EXPECT_TRUE(a.SameStructure(b));
}

}  // namespace
}  // namespace ringo
