// Reference computations for the benchmark's output checks, written with
// plain std containers and textbook algorithms. They share no code with
// the Ringo library beyond the NodeId/Edge typedefs, so a fault in a
// Ringo kernel cannot hide by also being in its check.
#ifndef PERFBENCH_MODELS_H_
#define PERFBENCH_MODELS_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "graph/graph_defs.h"

namespace perfbench {

using ringo::Edge;
using ringo::NodeId;

// A simple directed graph as sorted adjacency over dense indices; index i
// is the i-th smallest node id.
struct PlainGraph {
  std::vector<NodeId> ids;                // Ascending distinct node ids.
  std::vector<std::vector<int64_t>> out;  // Sorted, deduplicated.
  std::vector<std::vector<int64_t>> in;

  // Nodes are the endpoints of `edges`; duplicate edges collapse.
  static PlainGraph FromEdges(const std::vector<Edge>& edges);

  int64_t NumNodes() const { return static_cast<int64_t>(ids.size()); }
  int64_t NumEdges() const;
  // Dense index of `id`, or -1.
  int64_t IndexOf(NodeId id) const;
};

// Ascending distinct endpoints of `edges`: the dense order of PlainGraph.
std::vector<NodeId> SortedIds(const std::vector<Edge>& edges);

// Hop distances from dense index `src` following `out` (-1 = unreachable).
// `out[u]` is any iterable of dense indices (sorted vector, std::set, ...).
template <typename Adjacency>
std::vector<int64_t> PlainBfs(const std::vector<Adjacency>& out, int64_t src) {
  std::vector<int64_t> dist(out.size(), -1);
  std::deque<int64_t> frontier{src};
  dist[src] = 0;
  while (!frontier.empty()) {
    const int64_t u = frontier.front();
    frontier.pop_front();
    for (const int64_t v : out[u]) {
      if (dist[v] < 0) {
        dist[v] = dist[u] + 1;
        frontier.push_back(v);
      }
    }
  }
  return dist;
}

// Power-iteration PageRank with uniform teleport and dangling mass spread
// uniformly; stops after `max_iters` rounds, or earlier once the L1 change
// of a round drops below `tol` (tol <= 0: never). Dense scores.
std::vector<double> PlainPageRank(const PlainGraph& g, int max_iters,
                                  double tol, double damping = 0.85);

// Weakly connected components by union-find.
int64_t UnionFindComponents(const PlainGraph& g);

// Undirected neighbor lists (direction dropped, self-loops kept once).
std::vector<std::vector<int64_t>> Undirect(const PlainGraph& g);

// Triangles of the undirected graph by sorted-adjacency intersection
// (self-loops ignored).
int64_t IntersectTriangles(const std::vector<std::vector<int64_t>>& nbrs);

// Checks core numbers (dense order) against the core property: every node
// has at least core(v) neighbors with core >= core(v) (it lies in its
// core), and an independent bucket peeling yields the same numbers (it
// lies in no deeper core). A self-loop adds 1 to a node's degree. Returns
// "" when they hold, else a description of the first violation.
std::string CheckCoreNumbers(const std::vector<std::vector<int64_t>>& nbrs,
                             const std::vector<int64_t>& core);

// Relative-or-absolute closeness for floating-point checks.
bool Near(double a, double b, double tol);

}  // namespace perfbench

#endif  // PERFBENCH_MODELS_H_
