#include "models.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <utility>

namespace perfbench {

namespace {

void SortUnique(std::vector<int64_t>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

}  // namespace

std::vector<NodeId> SortedIds(const std::vector<Edge>& edges) {
  std::vector<NodeId> ids;
  ids.reserve(2 * edges.size());
  for (const Edge& e : edges) {
    ids.push_back(e.first);
    ids.push_back(e.second);
  }
  SortUnique(ids);
  return ids;
}

PlainGraph PlainGraph::FromEdges(const std::vector<Edge>& edges) {
  PlainGraph g;
  g.ids = SortedIds(edges);
  g.out.assign(g.ids.size(), {});
  g.in.assign(g.ids.size(), {});
  for (const Edge& e : edges) {
    const int64_t u = g.IndexOf(e.first);
    const int64_t v = g.IndexOf(e.second);
    g.out[u].push_back(v);
    g.in[v].push_back(u);
  }
  for (auto& a : g.out) SortUnique(a);
  for (auto& a : g.in) SortUnique(a);
  return g;
}

int64_t PlainGraph::NumEdges() const {
  int64_t m = 0;
  for (const auto& a : out) m += static_cast<int64_t>(a.size());
  return m;
}

int64_t PlainGraph::IndexOf(NodeId id) const {
  const auto it = std::lower_bound(ids.begin(), ids.end(), id);
  if (it == ids.end() || *it != id) return -1;
  return it - ids.begin();
}

std::vector<double> PlainPageRank(const PlainGraph& g, int max_iters,
                                  double tol, double damping) {
  const size_t n = g.ids.size();
  const double teleport = 1.0 / static_cast<double>(n);
  std::vector<double> pr(n, teleport), next(n);
  for (int iter = 0; iter < max_iters; ++iter) {
    double dangling = 0.0;
    for (size_t i = 0; i < n; ++i) {
      if (g.out[i].empty()) dangling += pr[i];
    }
    double delta = 0.0;
    for (size_t i = 0; i < n; ++i) {
      double acc = 0.0;
      for (const int64_t u : g.in[i]) {
        acc += pr[u] / static_cast<double>(g.out[u].size());
      }
      next[i] = (1.0 - damping) * teleport +
                damping * (acc + dangling * teleport);
      delta += std::abs(next[i] - pr[i]);
    }
    pr.swap(next);
    if (tol > 0 && delta < tol) break;
  }
  return pr;
}

int64_t UnionFindComponents(const PlainGraph& g) {
  std::vector<int64_t> parent(g.ids.size());
  std::iota(parent.begin(), parent.end(), 0);
  auto find = [&](int64_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  int64_t components = static_cast<int64_t>(g.ids.size());
  for (size_t u = 0; u < g.out.size(); ++u) {
    for (const int64_t v : g.out[u]) {
      const int64_t a = find(static_cast<int64_t>(u));
      const int64_t b = find(v);
      if (a != b) {
        parent[a] = b;
        --components;
      }
    }
  }
  return components;
}

std::vector<std::vector<int64_t>> Undirect(const PlainGraph& g) {
  std::vector<std::vector<int64_t>> nbrs(g.ids.size());
  for (size_t u = 0; u < g.out.size(); ++u) {
    for (const int64_t v : g.out[u]) {
      nbrs[u].push_back(v);
      nbrs[v].push_back(static_cast<int64_t>(u));
    }
  }
  for (auto& a : nbrs) SortUnique(a);
  return nbrs;
}

int64_t IntersectTriangles(const std::vector<std::vector<int64_t>>& nbrs) {
  // Orient each edge from the lower to the higher (degree, index) rank so
  // every triangle is counted once, at its lowest-ranked corner.
  const size_t n = nbrs.size();
  auto before = [&](int64_t a, int64_t b) {
    return nbrs[a].size() != nbrs[b].size() ? nbrs[a].size() < nbrs[b].size()
                                            : a < b;
  };
  std::vector<std::vector<int64_t>> fwd(n);
  for (size_t u = 0; u < n; ++u) {
    for (const int64_t v : nbrs[u]) {
      if (v != static_cast<int64_t>(u) && before(static_cast<int64_t>(u), v)) {
        fwd[u].push_back(v);
      }
    }
  }
  int64_t triangles = 0;
  for (size_t u = 0; u < n; ++u) {
    for (const int64_t v : fwd[u]) {
      const auto& a = fwd[u];
      const auto& b = fwd[v];
      size_t i = 0, j = 0;
      while (i < a.size() && j < b.size()) {
        if (a[i] < b[j]) {
          ++i;
        } else if (b[j] < a[i]) {
          ++j;
        } else {
          ++triangles;
          ++i;
          ++j;
        }
      }
    }
  }
  return triangles;
}

std::string CheckCoreNumbers(const std::vector<std::vector<int64_t>>& nbrs,
                             const std::vector<int64_t>& core) {
  const int64_t n = static_cast<int64_t>(nbrs.size());
  if (static_cast<int64_t>(core.size()) != n) return "core vector size";
  for (int64_t v = 0; v < n; ++v) {
    int64_t deeper = 0;
    for (const int64_t u : nbrs[v]) deeper += core[u] >= core[v] ? 1 : 0;
    if (deeper < core[v]) {
      return "node index " + std::to_string(v) + " has core " +
             std::to_string(core[v]) + " but only " + std::to_string(deeper) +
             " neighbors at that core or deeper";
    }
  }
  // Peel: repeatedly remove a node of least remaining degree; its core is
  // the highest such least degree seen so far.
  std::vector<int64_t> deg(n);
  std::set<std::pair<int64_t, int64_t>> queue;
  for (int64_t v = 0; v < n; ++v) {
    deg[v] = static_cast<int64_t>(nbrs[v].size());
    queue.insert({deg[v], v});
  }
  std::vector<bool> removed(n, false);
  int64_t level = 0;
  while (!queue.empty()) {
    const auto [d, v] = *queue.begin();
    queue.erase(queue.begin());
    removed[v] = true;
    level = std::max(level, d);
    if (core[v] != level) {
      return "node index " + std::to_string(v) + " has core " +
             std::to_string(core[v]) + ", peeling gives " +
             std::to_string(level);
    }
    for (const int64_t u : nbrs[v]) {
      if (u == v || removed[u]) continue;
      queue.erase({deg[u], u});
      queue.insert({--deg[u], u});
    }
  }
  return "";
}

bool Near(double a, double b, double tol) {
  return std::abs(a - b) <= tol * std::max(1.0, std::abs(b));
}

}  // namespace perfbench
