// stream_ingest: freshness, the latency from an update to an answer that
// sees it.
//
// One writer applies edge batches of 1% of the edges to a LiveJournalSim
// graph (ApplyEdgeBatch). After each batch it refreshes the snapshot
// (AlgoView::Of) and answers a BFS from a rotating source; the three calls
// together are one update-to-query latency. A batch inserts fresh pairs
// and deletes the pairs inserted kWindow batches before, so the graph
// keeps its size. The run has two phases of equal length:
//
//   hotspot  both endpoints of every insert from a hot 1% of the nodes, so
//            patches stay small and refreshes patch forward;
//   uniform  endpoints from all nodes, so the patched share crosses the
//            compaction threshold and refreshes rebuild.
//
// Every kCheckEvery-th BFS answer and the graph's edge set at the end of
// each phase are kept as digests. After the run the batches are replayed
// onto a std::set model of base +/- batches: the edge set must equal the
// model's, and each kept BFS answer a plain BFS on the model.
#include <algorithm>
#include <cstdio>
#include <deque>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "algo/algo_view.h"
#include "algo/bfs_engine.h"
#include "common.h"
#include "inputs.h"
#include "core/conversion.h"
#include "gen/graph_gen.h"
#include "models.h"
#include "util/metrics.h"

namespace perfbench {
namespace {

using namespace ringo;

constexpr double kGraphScale = 1.0;     // LiveJournalSim: ~1M edges.
constexpr double kBatchFraction = 0.01; // Inserts per batch, share of edges.
constexpr int kWindow = 4;              // Batches an insert stays.
constexpr double kHotFraction = 0.01;
constexpr int kSources = 64;
constexpr int kCheckEvery = 32;
constexpr int kSetupRepeats = 5;

// The edge set of base +/- batches as one std::set of out-neighbors per
// node. Batches only pair existing nodes, so the node set is the base's.
class EdgeSetModel {
 public:
  explicit EdgeSetModel(std::vector<Edge> edges)
      : ids_(SortedIds(edges)), out_(ids_.size()) {
    // Inserted in order, each node's tree is allocated in one run, which
    // keeps later walks over it in cache.
    std::sort(edges.begin(), edges.end());
    for (const Edge& e : edges) Insert(e);
  }

  void Insert(const Edge& e) { out_[Index(e.first)].insert(Index(e.second)); }
  void Erase(const Edge& e) { out_[Index(e.first)].erase(Index(e.second)); }

  EdgeSetDigest Digest() const {
    EdgeSetDigest d;
    for (size_t u = 0; u < out_.size(); ++u) {
      for (const int64_t v : out_[u]) d.Add(ids_[u], ids_[v]);
    }
    return d;
  }

  // Hop distances by ascending-id index (-1 = unreachable).
  std::vector<int64_t> Bfs(NodeId src) const {
    return PlainBfs(out_, Index(src));
  }

 private:
  int64_t Index(NodeId id) const {
    return std::lower_bound(ids_.begin(), ids_.end(), id) - ids_.begin();
  }

  std::vector<NodeId> ids_;
  std::vector<std::set<int64_t>> out_;
};

// The batches of a run, drawn from one seed: each inserts fresh pairs of
// nodes from the phase's pool and deletes the inserts of kWindow batches
// before. Two streams with the same seed and pools give the same batches,
// so the checks can replay them after the run.
class BatchStream {
 public:
  BatchStream(uint64_t seed, int64_t inserts_per_batch)
      : rng_(seed), inserts_per_batch_(inserts_per_batch) {}

  void Next(const std::vector<NodeId>& pool, std::vector<Edge>* inserts,
            std::vector<Edge>* deletes) {
    std::uniform_int_distribution<size_t> pick(0, pool.size() - 1);
    inserts->clear();
    while (static_cast<int64_t>(inserts->size()) < inserts_per_batch_) {
      const Edge e{pool[pick(rng_)], pool[pick(rng_)]};
      if (e.first != e.second) inserts->push_back(e);
    }
    deletes->clear();
    if (static_cast<int>(window_.size()) == kWindow) {
      *deletes = std::move(window_.front());
      window_.pop_front();
    }
    window_.push_back(*inserts);
  }

 private:
  std::mt19937_64 rng_;
  int64_t inserts_per_batch_;
  std::deque<std::vector<Edge>> window_;  // Inserts of the last batches.
};

struct PhaseStats {
  std::vector<double> total_ms, apply_ms, refresh_ms, bfs_ms, delta_fraction;
  int64_t batches = 0;
  int64_t compactions = 0;
  EdgeSetDigest edges_at_end;
};

// A BFS answer kept for the check after the run.
struct KeptBfs {
  int64_t batch_no;
  NodeId src;
  SeqDigest dist;  // Distances by ascending node id.
};

SeqDigest DistDigest(const std::vector<int64_t>& dist) {
  SeqDigest d;
  for (const int64_t x : dist) d.Add(x);
  return d;
}

}  // namespace

void RunStreamIngest(const Options& opts, Report* report) {
  const std::vector<Edge> edges = gen::LiveJournalSimEdges(kGraphScale,
                                                           opts.seed);
  const TablePtr edge_table = EdgeTable(edges);

  std::vector<double> setup_s;
  std::unique_ptr<DirectedGraph> g;
  for (int i = 0; i < kSetupRepeats; ++i) {
    g.reset();
    setup_s.push_back(1e-3 * TimeMs([&] {
      g = std::make_unique<DirectedGraph>(
          Must(TableToGraph(*edge_table, "src", "dst"), "TableToGraph"));
      AlgoView::Of(*g);
    }));
  }
  report->Add("setup_s", Median(setup_s), "s");

  const std::vector<NodeId> ids = SortedIds(edges);
  std::mt19937_64 rng(opts.seed ^ 0x1D6E57);
  std::vector<NodeId> hot = ids;
  std::shuffle(hot.begin(), hot.end(), rng);
  hot.resize(std::max<size_t>(2, static_cast<size_t>(kHotFraction *
                                                     ids.size())));
  std::vector<NodeId> sources;
  {
    std::uniform_int_distribution<size_t> pick(0, edges.size() - 1);
    while (static_cast<int>(sources.size()) < kSources) {
      sources.push_back(edges[pick(rng)].first);
    }
  }
  const int64_t inserts_per_batch = static_cast<int64_t>(
      kBatchFraction * static_cast<double>(edges.size()));
  const uint64_t batch_seed = opts.seed * 7919 + 17;
  const std::vector<NodeId>* pools[2] = {&hot, &ids};

  const AlgoViewCounters view_counters;
  const double cpu0 = ProcessCpuSeconds();
  const Clock::time_point run_start = Clock::now();

  BatchStream stream(batch_seed, inserts_per_batch);
  std::vector<Edge> inserts, deletes;
  std::vector<KeptBfs> kept;
  PhaseStats phases[2];
  int64_t batch_no = 0;
  double busy_ms = 0;
  for (int phase = 0; phase < 2; ++phase) {
    PhaseStats& st = phases[phase];
    const int64_t compact0 = metrics::CounterValue("algo_view/compact");
    const Clock::time_point phase_start = Clock::now();
    while (st.batches == 0 || SecondsSince(phase_start) < opts.seconds / 2) {
      stream.Next(*pools[phase], &inserts, &deletes);
      const NodeId src = sources[batch_no % kSources];
      std::shared_ptr<const AlgoView> view;
      bfs::DenseBfs answer;
      const Clock::time_point t0 = Clock::now();
      const double apply = TimeMs(
          [&] { g->ApplyEdgeBatch(std::move(inserts), std::move(deletes)); });
      const double refresh = TimeMs([&] { view = AlgoView::Of(*g); });
      const double bfs_ms = TimeMs([&] {
        answer = bfs::Run(*view, view->IndexOf(src), BfsDir::kOut);
      });
      const double total = MsSince(t0);
      ++report->attempted;
      ++st.batches;
      // The first kWindow batches delete nothing yet; they fill the window
      // and are not timed.
      if (batch_no >= kWindow) {
        busy_ms += total;
        st.total_ms.push_back(total);
        st.apply_ms.push_back(apply);
        st.refresh_ms.push_back(refresh);
        st.bfs_ms.push_back(bfs_ms);
        st.delta_fraction.push_back(view->DeltaFraction());
      }

      if (opts.inject_fault && batch_no == 0) answer.dist[0] += 1;
      if (batch_no % kCheckEvery == 0) {
        bool ids_ok = view->NumNodes() == static_cast<int64_t>(ids.size());
        for (int64_t i = 0; ids_ok && i < view->NumNodes(); ++i) {
          ids_ok = view->IdOf(i) == ids[i];
        }
        if (!ids_ok) {
          report->Wrong("snapshot node ids after batch " +
                        std::to_string(batch_no) + " differ from the base's");
        }
        kept.push_back({batch_no, src, DistDigest(answer.dist)});
      }
      ++batch_no;
    }
    st.compactions = metrics::CounterValue("algo_view/compact") - compact0;
    g->ForEachEdge([&](NodeId s, NodeId d) { st.edges_at_end.Add(s, d); });
  }
  const double wall_s = SecondsSince(run_start);
  const double cpu_s = ProcessCpuSeconds() - cpu0;

  report->Add("peak_rss_mb", PeakRssMb(), "MB");

  // Checks: replay the batches onto the model.
  const Clock::time_point check_start = Clock::now();
  {
    EdgeSetModel model(edges);
    BatchStream replay(batch_seed, inserts_per_batch);
    size_t next_kept = 0;
    int64_t replayed = 0;
    for (int phase = 0; phase < 2; ++phase) {
      for (int64_t b = 0; b < phases[phase].batches; ++b, ++replayed) {
        replay.Next(*pools[phase], &inserts, &deletes);
        // Inserts first, then deletes, as ApplyEdgeBatch documents. Sorted,
        // the updates walk the model in order, which keeps the replay fast.
        std::sort(inserts.begin(), inserts.end());
        std::sort(deletes.begin(), deletes.end());
        for (const Edge& e : inserts) model.Insert(e);
        for (const Edge& e : deletes) model.Erase(e);
        if (next_kept < kept.size() && kept[next_kept].batch_no == replayed) {
          const KeptBfs& k = kept[next_kept++];
          if (!(DistDigest(model.Bfs(k.src)) == k.dist)) {
            report->Wrong("BFS from " + std::to_string(k.src) +
                          " after batch " + std::to_string(k.batch_no) +
                          " differs from the model");
          }
        }
      }
      if (!(model.Digest() == phases[phase].edges_at_end)) {
        report->Wrong(std::string("edge set after the ") +
                      (phase == 0 ? "hotspot" : "uniform") +
                      " phase differs from base +/- batches");
      }
    }
  }
  const double check_s = SecondsSince(check_start);

  report->Add("answer_p50_ms", Median(phases[0].total_ms), "ms");
  report->Add("slow_answer_ms", Median(phases[1].total_ms), "ms");
  // The answer rate of a writer alternating one hotspot and one uniform
  // batch, from the two medians (a mean would follow the stragglers).
  report->Add("answers_per_s",
              2e3 / (Median(phases[0].total_ms) + Median(phases[1].total_ms)),
              "1/s");
  if (opts.trace) {
    view_counters.AddTo(report);
    const char* names[2] = {"hotspot", "uniform"};
    for (int p = 0; p < 2; ++p) {
      const std::string n = names[p];
      report->Add("graph.apply_batch_ms_p50." + n, Median(phases[p].apply_ms),
                  "ms");
      report->Add("algo.view_refresh_ms_p50." + n,
                  Median(phases[p].refresh_ms), "ms");
      report->Add("algo.bfs_ms_p50." + n, Median(phases[p].bfs_ms), "ms");
      report->Add("algo_view.compact." + n,
                  static_cast<double>(phases[p].compactions), "count");
    }
    report->Add("algo_view.delta_fraction", Median(phases[0].delta_fraction),
                "ratio");
    report->Add("graph.bytes", static_cast<double>(g->MemoryUsageBytes()),
                "bytes");
    report->Add("algo_view.bytes",
                static_cast<double>(AlgoView::Of(*g)->MemoryUsageBytes()),
                "bytes");
    report->Add("process.cpu_per_wall", cpu_s / wall_s, "ratio");
  }
  std::fprintf(stderr,
               "stream_ingest: graph %zu nodes / %zu edge samples; %zu hotspot + "
               "%zu uniform timed batches of %lld inserts (+ as many "
               "deletes), %lld hot nodes; program busy %.0f ms of %.0f ms; "
               "checks %.1f s\n",
               ids.size(), edges.size(), phases[0].total_ms.size(),
               phases[1].total_ms.size(),
               static_cast<long long>(inserts_per_batch),
               static_cast<long long>(hot.size()), busy_ms, 1e3 * wall_s,
               check_s);
}

}  // namespace perfbench
