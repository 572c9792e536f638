// serve_readwrite: many users' small queries and one writer sharing the
// cores.
//
// A serve::Engine with default options serves a BFS / PageRank / table
// top-k / script mix over a LiveJournalSim graph; its session table (the
// base graph's node table: NodeId, InDeg, OutDeg) is mapped from an .rtb
// file written at set-up. A writer thread toggles one batch of 1% of the
// edges in and out at a fixed rate, so the graph has exactly two states;
// every answer is checked against the state its snapshot_stamp names, from
// results computed up front with the models in models.h.
//
//   phase 1  open loop: one sender submits at a fixed offered rate; each
//            query is timed from its *due* time (send lateness included);
//   phase 2  closed loop: nproc - 1 clients, each waiting for its answer
//            before sending the next.
#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "algo/algo_view.h"
#include "common.h"
#include "inputs.h"
#include "core/conversion.h"
#include "gen/graph_gen.h"
#include "models.h"
#include "serve/engine.h"
#include "serve/session.h"
#include "table/table_io.h"
#include "util/metrics.h"

namespace perfbench {
namespace {

using namespace ringo;
using serve::Query;
using serve::QueryKind;
using serve::QueryResult;

constexpr double kGraphScale = 1.0;      // LiveJournalSim: ~1M edges.
constexpr double kBatchFraction = 0.01;  // Toggled batch: 1% of the edges.
constexpr double kOfferedQps = 150.0;    // Phase 1 offered rate.
constexpr double kOpenShare = 0.6;       // Share of the run in phase 1.
constexpr double kQpsWindowS = 0.5;      // Phase 2 throughput window.
constexpr double kLatencyWindowS = 1.0;  // Phase 1 latency window.
constexpr double kWriterHz = 10.0;       // Batch toggles per second.
constexpr int kSources = 64;             // Distinct BFS sources.
constexpr int kPageRankIters = 5;
constexpr int64_t kTopK = 100;
constexpr int kSetupRepeats = 5;
// Relative query weights: bfs, pagerank, table_topk, script. Top-k and
// script queries are the fast ones; keeping them at 35% puts the median
// inside the BFS latencies rather than on the edge between two kinds, and
// PageRank's 5% puts the 99th percentile inside the PageRank latencies.
constexpr double kMix[4] = {0.60, 0.05, 0.20, 0.15};
constexpr QueryKind kKinds[4] = {QueryKind::kBfs, QueryKind::kPageRank,
                                 QueryKind::kTableTopK, QueryKind::kScript};
constexpr const char* kScript =
    "project(top_k(group_by(t, \"OutDeg\", count(\"n\")), \"n\", 10), "
    "\"n\")";

// The expected (rows, checksum) of every distinct query, per graph state.
struct Expected {
  int64_t rows = 0;
  double checksum = 0;
};

// A drawn query: its kind and, for BFS, the source's slot.
struct Drawn {
  int kind = 0;
  int source = 0;
};

class QueryDrawer {
 public:
  explicit QueryDrawer(uint64_t seed)
      : rng_(seed), kind_(std::begin(kMix), std::end(kMix)),
        source_(0, kSources - 1) {}
  Drawn Next() { return {kind_(rng_), source_(rng_)}; }

 private:
  std::mt19937_64 rng_;
  std::discrete_distribution<int> kind_;
  std::uniform_int_distribution<int> source_;
};

// One answered query, for checking and statistics.
struct Answer {
  Drawn drawn;
  QueryResult result;
  double due_ms = 0;   // Phase 1: from due time to completion.
  double late_ms = 0;  // Phase 1: send time minus due time.
  double done_s = 0;   // Phase 2: completion, from the phase's start.
  uint64_t live_stamp = 0;
};

// The live state the serving side runs against.
struct Served {
  std::unique_ptr<DirectedGraph> graph;
  std::unique_ptr<serve::Session> session;
};

// Writes the edge table, maps it back and builds the base graph and its
// first snapshot; writes the node table and maps it as the session table.
Served SetUp(const TablePtr& edges, const std::string& dir) {
  Served s;
  SaveTableBin(*edges, dir + "/serve_edges.rtb").Abort("SaveTableBin");
  const TablePtr mapped =
      Must(LoadTableBin(dir + "/serve_edges.rtb"), "LoadTableBin");
  s.graph = std::make_unique<DirectedGraph>(
      Must(TableToGraph(*mapped, "src", "dst"), "TableToGraph"));
  AlgoView::Of(*s.graph);
  SaveTableBin(*GraphToNodeTable(*s.graph, mapped->pool()),
               dir + "/serve_nodes.rtb")
      .Abort("SaveTableBin");
  s.session = std::make_unique<serve::Session>(
      Must(serve::Session::WithTableFile("perfbench", s.graph.get(), Schema(),
                                         dir + "/serve_nodes.rtb"),
           "Session::WithTableFile"));
  return s;
}

}  // namespace

void RunServeReadWrite(const Options& opts, Report* report) {
  const std::vector<Edge> edges = gen::LiveJournalSimEdges(kGraphScale,
                                                           opts.seed);
  const TablePtr edge_table = EdgeTable(edges);

  std::vector<double> setup_s;
  Served served;
  for (int i = 0; i < kSetupRepeats; ++i) {
    served = Served{};
    setup_s.push_back(
        1e-3 * TimeMs([&] { served = SetUp(edge_table, opts.workdir); }));
  }
  report->Add("setup_s", Median(setup_s), "s");
  DirectedGraph& g = *served.graph;

  // Inputs: the toggled batch (absent pairs of existing nodes) and the BFS
  // sources (nodes with out-edges).
  std::mt19937_64 rng(opts.seed ^ 0x5E77E);
  const std::vector<NodeId> ids = SortedIds(edges);
  std::vector<Edge> batch;
  std::vector<NodeId> sources;
  {
    std::vector<Edge> present = edges;
    std::sort(present.begin(), present.end());
    std::set<Edge> drawn;
    const size_t batch_size = static_cast<size_t>(
        kBatchFraction * static_cast<double>(edges.size()));
    std::uniform_int_distribution<size_t> node(0, ids.size() - 1);
    while (batch.size() < batch_size) {
      const Edge e{ids[node(rng)], ids[node(rng)]};
      if (e.first != e.second &&
          !std::binary_search(present.begin(), present.end(), e) &&
          drawn.insert(e).second) {
        batch.push_back(e);
      }
    }
    std::vector<NodeId> with_out;
    for (const Edge& e : present) {
      if (with_out.empty() || with_out.back() != e.first) {
        with_out.push_back(e.first);
      }
    }
    std::uniform_int_distribution<size_t> pick(0, with_out.size() - 1);
    while (static_cast<int>(sources.size()) < kSources) {
      sources.push_back(with_out[pick(rng)]);
    }
  }
  auto make_query = [&](const Drawn& d) {
    Query q;
    q.kind = kKinds[d.kind];
    q.source = sources[d.source];
    q.iters = kPageRankIters;
    q.column = "InDeg";
    q.k = kTopK;
    q.script = kScript;
    return q;
  };

  // Writer: toggles the batch at a fixed rate, recording which state every
  // mutation stamp names.
  std::mutex stamp_mu;
  std::map<uint64_t, int> stamp_state{{g.MutationStamp(), 0}};
  std::vector<double> apply_ms;
  bool stop_writer = false;
  std::condition_variable writer_cv;
  std::thread writer([&] {
    int state = 0;
    const Clock::time_point start = Clock::now();
    for (int64_t i = 1;; ++i) {
      std::unique_lock<std::mutex> lk(stamp_mu);
      const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(i / kWriterHz));
      if (writer_cv.wait_until(lk, due, [&] { return stop_writer; })) return;
      lk.unlock();
      const double ms = TimeMs([&] {
        if (state == 0) {
          g.ApplyEdgeBatch(batch, {});
        } else {
          g.ApplyEdgeBatch({}, batch);
        }
      });
      state ^= 1;
      lk.lock();
      apply_ms.push_back(ms);
      stamp_state[g.MutationStamp()] = state;
    }
  });

  const AlgoViewCounters view_counters;
  const double cpu_start = ProcessCpuSeconds();
  const Clock::time_point serve_start = Clock::now();

  serve::Engine engine;
  const double open_s = kOpenShare * opts.seconds;
  const double closed_s_planned = opts.seconds - open_s;

  // Phase 1: open loop. The sender hands each future to a harvester so
  // answers are collected as they complete.
  std::vector<Answer> open_answers;
  {
    struct Pending {
      Drawn drawn;
      double late_ms;
      std::future<QueryResult> fut;
    };
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Pending> pending;
    bool done = false;
    std::thread harvester([&] {
      for (;;) {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return done || !pending.empty(); });
        if (pending.empty()) return;
        Pending p = std::move(pending.front());
        pending.pop_front();
        lk.unlock();
        Answer a;
        a.drawn = p.drawn;
        a.result = p.fut.get();
        a.late_ms = p.late_ms;
        // The engine times from its own submission; add the send lateness.
        a.due_ms = p.late_ms + a.result.latency_ms;
        a.live_stamp = g.MutationStamp();
        open_answers.push_back(std::move(a));
      }
    });
    QueryDrawer drawer(opts.seed * 31 + 1);
    const int64_t total = static_cast<int64_t>(kOfferedQps * open_s);
    const Clock::time_point start = Clock::now();
    for (int64_t i = 0; i < total; ++i) {
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(i / kOfferedQps));
      std::this_thread::sleep_until(due);
      const Drawn d = drawer.Next();
      const double late = 1e3 * std::chrono::duration<double>(
                                    Clock::now() - due).count();
      std::future<QueryResult> f = engine.Submit(*served.session,
                                                 make_query(d));
      std::lock_guard<std::mutex> lk(mu);
      pending.push_back({d, late, std::move(f)});
      cv.notify_one();
    }
    {
      std::lock_guard<std::mutex> lk(mu);
      done = true;
    }
    cv.notify_one();
    harvester.join();
  }

  // Phase 2: closed loop, nproc - 1 clients.
  const int clients =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()) - 1);
  std::vector<std::vector<Answer>> closed_answers(clients);
  const double cpu2 = ProcessCpuSeconds();
  const Clock::time_point closed_start = Clock::now();
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        QueryDrawer drawer(opts.seed * 131 + 7 + c);
        while (SecondsSince(closed_start) < closed_s_planned) {
          Answer a;
          a.drawn = drawer.Next();
          a.result = engine.Submit(*served.session, make_query(a.drawn)).get();
          a.live_stamp = g.MutationStamp();
          a.done_s = SecondsSince(closed_start);
          closed_answers[c].push_back(std::move(a));
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  const double closed_s = SecondsSince(closed_start);
  const double closed_cpu_s = ProcessCpuSeconds() - cpu2;
  engine.Shutdown();
  {
    std::lock_guard<std::mutex> lk(stamp_mu);
    stop_writer = true;
  }
  writer_cv.notify_one();
  writer.join();
  const double serve_wall_s = SecondsSince(serve_start);
  const double serve_cpu_s = ProcessCpuSeconds() - cpu_start;

  report->Add("peak_rss_mb", PeakRssMb(), "MB");

  // Models for both graph states, and the expected (rows, checksum) of
  // every distinct query in each.
  std::vector<Edge> with_batch = edges;
  with_batch.insert(with_batch.end(), batch.begin(), batch.end());
  const PlainGraph states[2] = {PlainGraph::FromEdges(edges),
                                PlainGraph::FromEdges(with_batch)};
  const PlainGraph& base = states[0];
  Expected expected[2][4 + kSources];  // [state][kind, or 4 + source slot].
  for (int s = 0; s < 2; ++s) {
    const PlainGraph& m = states[s];
    for (int k = 0; k < kSources; ++k) {
      const std::vector<int64_t> dist = PlainBfs(m.out, m.IndexOf(sources[k]));
      Expected& e = expected[s][4 + k];
      for (const int64_t d : dist) {
        if (d >= 0) {
          ++e.rows;
          e.checksum += static_cast<double>(d);
        }
      }
    }
    const std::vector<double> pr = PlainPageRank(m, kPageRankIters, 0.0);
    expected[s][1].rows = m.NumNodes();
    for (size_t i = 0; i < pr.size(); ++i) {
      expected[s][1].checksum += pr[i] * static_cast<double>(i + 1);
    }
    // The session table holds the base graph's degrees in every state.
    std::vector<int64_t> in_deg;
    std::map<int64_t, int64_t> out_deg_hist;
    for (int64_t i = 0; i < base.NumNodes(); ++i) {
      in_deg.push_back(static_cast<int64_t>(base.in[i].size()));
      ++out_deg_hist[static_cast<int64_t>(base.out[i].size())];
    }
    std::sort(in_deg.rbegin(), in_deg.rend());
    expected[s][2].rows = kTopK;
    for (int64_t i = 0; i < kTopK; ++i) {
      expected[s][2].checksum += static_cast<double>(in_deg[i]);
    }
    std::vector<int64_t> counts;
    for (const auto& [deg, c] : out_deg_hist) counts.push_back(c);
    std::sort(counts.rbegin(), counts.rend());
    expected[s][3].rows = 10;
    for (int i = 0; i < 10; ++i) {
      expected[s][3].checksum += static_cast<double>(counts[i]);
    }
  }

  // Check every answer against the state its snapshot stamp names.
  if (opts.inject_fault && !open_answers.empty()) {
    open_answers[0].result.checksum += 1;
  }
  int64_t closed_ok = 0;
  auto check = [&](const Answer& a) -> bool {
    ++report->attempted;
    const QueryResult& r = a.result;
    if (!r.status.ok()) {
      // Shed, past its deadline, or refused: failed, not wrong.
      if (report->failed++ == 0) {
        std::fprintf(stderr, "first failed %s query: %s\n",
                     serve::QueryKindName(r.kind),
                     r.status.ToString().c_str());
      }
      return false;
    }
    const auto it = stamp_state.find(r.snapshot_stamp);
    if (it == stamp_state.end()) {
      report->Wrong("answer at unknown snapshot stamp " +
                    std::to_string(r.snapshot_stamp));
      return false;
    }
    const int slot = a.drawn.kind == 0 ? 4 + a.drawn.source : a.drawn.kind;
    const Expected& e = expected[it->second][slot];
    if (r.rows != e.rows || !Near(r.checksum, e.checksum, 1e-9)) {
      report->Wrong(std::string(serve::QueryKindName(r.kind)) +
                    " answer (rows " + std::to_string(r.rows) + ", checksum " +
                    std::to_string(r.checksum) + ") differs from the model's (" +
                    std::to_string(e.rows) + ", " + std::to_string(e.checksum) +
                    ") in state " + std::to_string(it->second));
      return false;
    }
    return true;
  };
  // Phase 1 latency is taken per window of kLatencyWindowS of due times,
  // then the median over windows: a stall of the shared host moves a
  // window or two, while a stall the program makes (the writer toggles
  // kWriterHz times a second) shows in every window.
  const size_t per_window =
      static_cast<size_t>(kOfferedQps * kLatencyWindowS);
  std::vector<std::vector<double>> window_due(
      (open_answers.size() + per_window - 1) / per_window);
  std::vector<double> due_ms, late_ms, queue_ms, lag;
  std::vector<double> run_ms[4], kind_due_ms[4];
  for (size_t i = 0; i < open_answers.size(); ++i) {
    const Answer& a = open_answers[i];
    late_ms.push_back(a.late_ms);
    if (!check(a)) continue;
    due_ms.push_back(a.due_ms);
    window_due[i / per_window].push_back(a.due_ms);
    kind_due_ms[a.drawn.kind].push_back(a.due_ms);
    queue_ms.push_back(a.result.queue_ms);
    run_ms[a.drawn.kind].push_back(a.result.run_ms);
    lag.push_back(static_cast<double>(a.live_stamp - a.result.snapshot_stamp));
  }
  // Closed-loop throughput: answers per window of kQpsWindowS, median over
  // the whole windows, so a short stall of the machine moves one window.
  const int windows = std::max(1, static_cast<int>(closed_s / kQpsWindowS));
  std::vector<double> window_ok(windows, 0.0);
  for (const auto& answers : closed_answers) {
    for (const Answer& a : answers) {
      if (!check(a)) continue;
      ++closed_ok;
      const int w = static_cast<int>(a.done_s / kQpsWindowS);
      if (w < windows) window_ok[w] += 1;
    }
  }
  for (double& w : window_ok) w /= std::min(kQpsWindowS, closed_s);

  std::vector<double> window_p50;
  for (const std::vector<double>& w : window_due) {
    if (!w.empty()) window_p50.push_back(Median(w));
  }
  report->Add("answer_p50_ms", Median(window_p50), "ms");
  // The slow answer is the median latency of the heaviest kind, PageRank.
  // High percentiles of the whole mix sit where queueing starts and jump
  // with every slowdown of a shared host (the p90 read 8.6 to 19.3 ms over
  // five runs); the whole run's 99th is a per-layer metric.
  report->Add("slow_answer_ms", Median(kind_due_ms[1]), "ms");
  report->Add("answers_per_s", Median(window_ok), "1/s");
  if (opts.trace) {
    view_counters.AddTo(report);
    report->Add("serve.due_ms_p99", Quantile(due_ms, 0.99), "ms");
    report->Add("serve.queue_ms_p50", Median(queue_ms), "ms");
    report->Add("serve.queue_ms_p99", Quantile(queue_ms, 0.99), "ms");
    const char* names[4] = {"bfs", "pagerank", "table_topk", "script"};
    for (int k = 0; k < 4; ++k) {
      report->Add(std::string("serve.run_ms_p50.") + names[k],
                  Median(run_ms[k]), "ms");
    }
    report->Add("serve.stamp_lag_p50", Median(lag), "stamps");
    report->Add("serve.gen_late_ms_p99", Quantile(late_ms, 0.99), "ms");
    report->Add("graph.apply_batch_ms_p50", Median(apply_ms), "ms");
    report->Add("graph.bytes", static_cast<double>(g.MemoryUsageBytes()),
                "bytes");
    report->Add("algo_view.bytes",
                static_cast<double>(AlgoView::Of(g)->MemoryUsageBytes()),
                "bytes");
    report->Add("process.cpu_per_wall", serve_cpu_s / serve_wall_s, "ratio");
    report->Add("process.cpu_ms_per_query",
                closed_ok > 0 ? 1e3 * closed_cpu_s / closed_ok : 0.0, "ms");
  }
  std::fprintf(stderr,
               "serve_readwrite: graph %lld nodes / %lld edges; %zu open-loop "
               "queries at %.0f qps, %lld closed-loop answers from %d "
               "clients, %zu toggles of a %zu-edge batch\n",
               static_cast<long long>(base.NumNodes()),
               static_cast<long long>(base.NumEdges()), open_answers.size(),
               kOfferedQps, static_cast<long long>(closed_ok), clients,
               apply_ms.size(), batch.size());
}

}  // namespace perfbench
