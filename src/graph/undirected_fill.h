// Bulk adjacency fill shared by the two directed→undirected builds
// (TableToUndirectedGraph, ToUndirected): each node's neighbour vector is
// the sorted, deduplicated union of two sorted runs — its out- and
// in-neighbours — merged per node in parallel, instead of one sorted
// insert per edge.
#ifndef RINGO_GRAPH_UNDIRECTED_FILL_H_
#define RINGO_GRAPH_UNDIRECTED_FILL_H_

#include <algorithm>
#include <cstdint>
#include <ranges>
#include <vector>

#include "graph/undirected_graph.h"
#include "util/parallel.h"

namespace ringo {

// Replaces *out with the sorted union of the sorted ranges `a` and `b`,
// each value kept once.
template <typename RangeA, typename RangeB>
void MergeSortedUnique(const RangeA& a, const RangeB& b,
                       std::vector<NodeId>* out) {
  out->clear();
  out->reserve(std::ranges::size(a) + std::ranges::size(b));
  auto ia = std::ranges::begin(a);
  auto ib = std::ranges::begin(b);
  const auto ea = std::ranges::end(a);
  const auto eb = std::ranges::end(b);
  while (ia != ea || ib != eb) {
    const NodeId v = (ib == eb || (ia != ea && *ia <= *ib)) ? *ia++ : *ib++;
    if (out->empty() || out->back() != v) out->push_back(v);
  }
}

// Sets the adjacency of every node in `nodes` — each already added to `g`
// with an empty vector — to the merge of the two sorted runs returned by
// runs(id) as a pair of ranges, then registers the edge count: an edge
// {u, v} with u != v sits in two vectors, a self-loop in one. Each node's
// merge writes only its own vector, so the result is the same at every
// thread count.
template <typename RunsFn>
void FillUndirectedFromRuns(const std::vector<NodeId>& nodes, RunsFn runs,
                            UndirectedGraph* g) {
  UndirectedGraph::NodeTable& table = g->mutable_node_table();
  const int64_t nn = static_cast<int64_t>(nodes.size());
  std::vector<int64_t> half_edges(nn, 0);
  std::vector<int64_t> self_loops(nn, 0);
  ParallelForDynamic(0, nn, [&](int64_t i) {
    const NodeId id = nodes[i];
    std::vector<NodeId>& nbrs = table.Find(id)->nbrs;
    const auto [a, b] = runs(id);
    MergeSortedUnique(a, b, &nbrs);
    half_edges[i] = static_cast<int64_t>(nbrs.size());
    self_loops[i] = std::binary_search(nbrs.begin(), nbrs.end(), id) ? 1 : 0;
  });
  int64_t half = 0, loops = 0;
  for (int64_t i = 0; i < nn; ++i) {
    half += half_edges[i];
    loops += self_loops[i];
  }
  g->BumpEdgeCount((half - loops) / 2 + loops);
}

}  // namespace ringo

#endif  // RINGO_GRAPH_UNDIRECTED_FILL_H_
