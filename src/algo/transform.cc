#include "algo/transform.h"

#include <algorithm>
#include <memory>
#include <span>

#include "algo/algo_view.h"
#include "algo/bfs.h"
#include "algo/bfs_engine.h"
#include "algo/connectivity.h"
#include "graph/undirected_fill.h"
#include "storage/flat_hash_map.h"
#include "util/rng.h"

namespace ringo {

DirectedGraph Subgraph(const DirectedGraph& g,
                       const std::vector<NodeId>& nodes) {
  FlatHashSet<NodeId> keep;
  keep.Reserve(static_cast<int64_t>(nodes.size()));
  DirectedGraph out;
  for (NodeId id : nodes) {
    if (g.HasNode(id)) {
      keep.Insert(id);
      out.AddNode(id);
    }
  }
  keep.ForEach([&](NodeId u) {
    for (NodeId v : g.GetNode(u)->out) {
      if (keep.Contains(v)) out.AddEdge(u, v);
    }
  });
  return out;
}

UndirectedGraph Subgraph(const UndirectedGraph& g,
                         const std::vector<NodeId>& nodes) {
  FlatHashSet<NodeId> keep;
  keep.Reserve(static_cast<int64_t>(nodes.size()));
  UndirectedGraph out;
  for (NodeId id : nodes) {
    if (g.HasNode(id)) {
      keep.Insert(id);
      out.AddNode(id);
    }
  }
  keep.ForEach([&](NodeId u) {
    for (NodeId v : g.GetNode(u)->nbrs) {
      if (u <= v && keep.Contains(v)) out.AddEdge(u, v);
    }
  });
  return out;
}

DirectedGraph Reverse(const DirectedGraph& g) {
  DirectedGraph out;
  out.ReserveNodes(g.NumNodes());
  g.ForEachNode([&](NodeId id, const DirectedGraph::NodeData&) {
    out.AddNode(id);
  });
  g.ForEachEdge([&](NodeId u, NodeId v) { out.AddEdge(v, u); });
  return out;
}

UndirectedGraph ToUndirected(const DirectedGraph& g) {
  UndirectedGraph out;
  out.ReserveNodes(g.NumNodes());
  const std::vector<NodeId> ids = g.NodeIds();
  for (NodeId id : ids) out.AddNode(id);
  // Neighbours of u = dedup(out(u) ∪ in(u)), merged per node.
  FillUndirectedFromRuns(
      ids,
      [&](NodeId id) {
        const DirectedGraph::NodeData* nd = g.GetNode(id);
        return std::pair(std::span<const NodeId>(nd->out),
                         std::span<const NodeId>(nd->in));
      },
      &out);
  return out;
}

DirectedGraph ToDirected(const UndirectedGraph& g) {
  DirectedGraph out;
  out.ReserveNodes(g.NumNodes());
  g.ForEachNode([&](NodeId id, const UndirectedGraph::NodeData&) {
    out.AddNode(id);
  });
  g.ForEachEdge([&](NodeId u, NodeId v) {
    out.AddEdge(u, v);
    if (u != v) out.AddEdge(v, u);
  });
  return out;
}

DirectedGraph RemoveSelfLoops(const DirectedGraph& g) {
  DirectedGraph out;
  out.ReserveNodes(g.NumNodes());
  g.ForEachNode([&](NodeId id, const DirectedGraph::NodeData&) {
    out.AddNode(id);
  });
  g.ForEachEdge([&](NodeId u, NodeId v) {
    if (u != v) out.AddEdge(u, v);
  });
  return out;
}

UndirectedGraph RemoveSelfLoops(const UndirectedGraph& g) {
  UndirectedGraph out;
  out.ReserveNodes(g.NumNodes());
  g.ForEachNode([&](NodeId id, const UndirectedGraph::NodeData&) {
    out.AddNode(id);
  });
  g.ForEachEdge([&](NodeId u, NodeId v) {
    if (u != v) out.AddEdge(u, v);
  });
  return out;
}

DirectedGraph MaxWccSubgraph(const DirectedGraph& g) {
  return Subgraph(g, LargestComponent(WeaklyConnectedComponents(g)));
}

UndirectedGraph MaxConnectedSubgraph(const UndirectedGraph& g) {
  return Subgraph(g, LargestComponent(ConnectedComponents(g)));
}

DirectedGraph MaxSccSubgraph(const DirectedGraph& g) {
  return Subgraph(g, LargestComponent(StronglyConnectedComponents(g)));
}

DirectedGraph SampleNodes(const DirectedGraph& g, int64_t k, uint64_t seed) {
  std::vector<NodeId> ids = g.SortedNodeIds();
  const int64_t n = static_cast<int64_t>(ids.size());
  const int64_t take = std::min(k, n);
  Rng rng(seed);
  for (int64_t i = 0; i < take; ++i) {
    std::swap(ids[i], ids[rng.UniformInt(i, n - 1)]);
  }
  ids.resize(std::max<int64_t>(take, 0));
  return Subgraph(g, ids);
}

DirectedGraph SampleEdges(const DirectedGraph& g, int64_t k, uint64_t seed) {
  std::vector<Edge> edges;
  edges.reserve(g.NumEdges());
  g.ForEachEdge([&](NodeId u, NodeId v) { edges.emplace_back(u, v); });
  std::sort(edges.begin(), edges.end());  // Hash order → deterministic.
  const int64_t m = static_cast<int64_t>(edges.size());
  const int64_t take = std::min(k, m);
  Rng rng(seed);
  for (int64_t i = 0; i < take; ++i) {
    std::swap(edges[i], edges[rng.UniformInt(i, m - 1)]);
  }
  DirectedGraph out;
  out.ReserveNodes(g.NumNodes());
  g.ForEachNode([&](NodeId id, const DirectedGraph::NodeData&) {
    out.AddNode(id);
  });
  for (int64_t i = 0; i < std::max<int64_t>(take, 0); ++i) {
    out.AddEdge(edges[i].first, edges[i].second);
  }
  return out;
}

DirectedGraph GraphUnion(const DirectedGraph& a, const DirectedGraph& b) {
  DirectedGraph out;
  out.ReserveNodes(a.NumNodes() + b.NumNodes());
  a.ForEachNode([&](NodeId id, const DirectedGraph::NodeData&) {
    out.AddNode(id);
  });
  b.ForEachNode([&](NodeId id, const DirectedGraph::NodeData&) {
    out.AddNode(id);
  });
  a.ForEachEdge([&](NodeId u, NodeId v) { out.AddEdge(u, v); });
  b.ForEachEdge([&](NodeId u, NodeId v) { out.AddEdge(u, v); });
  return out;
}

DirectedGraph GraphIntersection(const DirectedGraph& a,
                                const DirectedGraph& b) {
  DirectedGraph out;
  a.ForEachNode([&](NodeId id, const DirectedGraph::NodeData&) {
    if (b.HasNode(id)) out.AddNode(id);
  });
  a.ForEachEdge([&](NodeId u, NodeId v) {
    if (b.HasEdge(u, v)) out.AddEdge(u, v);
  });
  return out;
}

DirectedGraph GraphDifference(const DirectedGraph& a,
                              const DirectedGraph& b) {
  DirectedGraph out;
  out.ReserveNodes(a.NumNodes());
  a.ForEachNode([&](NodeId id, const DirectedGraph::NodeData&) {
    out.AddNode(id);
  });
  a.ForEachEdge([&](NodeId u, NodeId v) {
    if (!b.HasEdge(u, v)) out.AddEdge(u, v);
  });
  return out;
}

DirectedGraph Egonet(const DirectedGraph& g, NodeId center, int64_t radius,
                     bool undirected) {
  if (!g.HasNode(center)) return DirectedGraph{};
  // Run the dense engine directly: the ball is read straight off the dist
  // array instead of materializing the full (id, hops) pair list.
  const std::shared_ptr<const AlgoView> view = AlgoView::Of(g);
  const bfs::DenseBfs r = bfs::Run(
      *view, view->IndexOf(center), undirected ? BfsDir::kBoth : BfsDir::kOut);
  std::vector<NodeId> ball;
  const int64_t n = view->NumNodes();
  for (int64_t i = 0; i < n; ++i) {
    if (r.dist[i] >= 0 && r.dist[i] <= radius) ball.push_back(view->IdOf(i));
  }
  return Subgraph(g, ball);
}

DirectedGraph RewireEdges(const DirectedGraph& g, int64_t swaps,
                          uint64_t seed) {
  std::vector<Edge> edges;
  edges.reserve(g.NumEdges());
  g.ForEachEdge([&](NodeId u, NodeId v) { edges.emplace_back(u, v); });
  std::sort(edges.begin(), edges.end());  // Hash order → deterministic.
  FlatHashSet<Edge, PairHash> present;
  present.Reserve(static_cast<int64_t>(edges.size()));
  for (const Edge& e : edges) present.Insert(e);

  Rng rng(seed);
  const int64_t m = static_cast<int64_t>(edges.size());
  for (int64_t s = 0; s < swaps && m >= 2; ++s) {
    const int64_t a = rng.UniformInt(0, m - 1);
    const int64_t b = rng.UniformInt(0, m - 1);
    if (a == b) continue;
    const auto [u1, v1] = edges[a];
    const auto [u2, v2] = edges[b];
    // Proposed: u1→v2, u2→v1.
    if (u1 == v2 || u2 == v1) continue;  // Would create self-loops.
    if (present.Contains({u1, v2}) || present.Contains({u2, v1})) continue;
    present.Erase({u1, v1});
    present.Erase({u2, v2});
    present.Insert({u1, v2});
    present.Insert({u2, v1});
    edges[a] = {u1, v2};
    edges[b] = {u2, v1};
  }

  DirectedGraph out;
  out.ReserveNodes(g.NumNodes());
  g.ForEachNode([&](NodeId id, const DirectedGraph::NodeData&) {
    out.AddNode(id);
  });
  for (const Edge& e : edges) out.AddEdge(e.first, e.second);
  return out;
}

}  // namespace ringo
