// Helpers the workloads share: handling Ringo results, building generated
// inputs, and reading the snapshot cache's counters.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "graph/graph_defs.h"
#include "table/table.h"
#include "util/metrics.h"
#include "util/result.h"

namespace perfbench {

// The value of a Ringo call that must succeed; a failed call ends the run
// with exit code 1 and no result line.
template <typename T>
T Must(ringo::Result<T> r, const char* what) {
  if (!r.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what,
                 r.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(r).value();
}

// An edge list as a (src:int, dst:int) table.
inline ringo::TablePtr EdgeTable(const std::vector<ringo::Edge>& edges) {
  using namespace ringo;
  TablePtr t = Table::Create(
      Schema({{"src", ColumnType::kInt}, {"dst", ColumnType::kInt}}));
  const int64_t n = static_cast<int64_t>(edges.size());
  for (int c = 0; c < 2; ++c) t->mutable_column(c).Resize(n);
  for (int64_t i = 0; i < n; ++i) {
    t->mutable_column(0).SetInt(i, edges[i].first);
    t->mutable_column(1).SetInt(i, edges[i].second);
  }
  t->SealAppendedRows(n).Abort("EdgeTable");
  return t;
}

// The snapshot cache's counters (algo/algo_view.h), counted from this
// object's construction.
class AlgoViewCounters {
 public:
  AlgoViewCounters() {
    for (int i = 0; i < kN; ++i) start_[i] = ringo::metrics::CounterValue(kNames[i]);
  }

  // Adds algo_view.{hit,build,delta_apply,stale_patch,compact} and the
  // share of snapshot requests answered from the cache.
  void AddTo(Report* report) const {
    int64_t d[kN];
    for (int i = 0; i < kN; ++i) {
      d[i] = ringo::metrics::CounterValue(kNames[i]) - start_[i];
      report->Add(std::string("algo_view.") + (kNames[i] + 10),
                  static_cast<double>(d[i]), "count");
    }
    // stale_patch counts a subset of delta_apply, not a request of its own.
    const double requests = static_cast<double>(d[0] + d[1] + d[2] + d[4]);
    report->Add("algo_view.hit_ratio",
                requests > 0 ? static_cast<double>(d[0]) / requests : 0.0,
                "ratio");
  }

 private:
  static constexpr int kN = 5;
  static constexpr const char* kNames[kN] = {
      "algo_view/hit", "algo_view/build", "algo_view/delta_apply",
      "algo_view/stale_patch", "algo_view/compact"};
  int64_t start_[kN];
};

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
