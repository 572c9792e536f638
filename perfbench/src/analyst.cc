// analyst_session: one analyst working through the paper's §4.1 loop.
//
// Set-up writes a generated StackOverflow-shaped posts table to TSV (the
// timed set-up is that write, repeated kSetupRepeats times). Each session
// then
//   1. loads the posts TSV (Ringo::LoadTableTSV);
//   2. runs the experts pipeline once per tag as a query script:
//      select tag -> question/answer -> join -> graph -> pagerank -> top_k;
//   3. on the all-tags answerer -> asker graph, through the Ringo API and
//      the algo modules: PageRank, WCC, ToUndirected, triangles, k-core,
//      with results back in tables (TableFromMap, GroupByAggregate, TopK).
// Sessions repeat until the run's time is used. The first session's
// answers are kept; after the run they are checked against the models in
// models.h, built from the generated table. Later sessions must reproduce
// the first bit for bit.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "algo/algo_view.h"
#include "algo/connectivity.h"
#include "algo/kcore.h"
#include "algo/transform.h"
#include "algo/triangles.h"
#include "common.h"
#include "inputs.h"
#include "core/engine.h"
#include "gen/stackoverflow_gen.h"
#include "models.h"
#include "query/executor.h"
#include "query/parser.h"
#include "query/planner.h"
#include "query/query.h"

namespace perfbench {
namespace {

using namespace ringo;

// Input size: ~2.8 rows per question (question + ~1.8 answers).
constexpr int64_t kQuestions = 500'000;
constexpr int64_t kUsers = 100'000;
constexpr int kScriptPageRankIters = 10;
constexpr int64_t kTopK = 20;
constexpr int kSetupRepeats = 5;

Schema PostsSchema() {
  return Schema({{"PostId", ColumnType::kInt},
                 {"Type", ColumnType::kString},
                 {"UserId", ColumnType::kInt},
                 {"Tag", ColumnType::kString},
                 {"AcceptedAnswerId", ColumnType::kInt},
                 {"ParentId", ColumnType::kInt},
                 {"Time", ColumnType::kInt}});
}

std::string ExpertsScript(const std::string& tag, bool edges_only) {
  std::string s = "tagged = select(posts, \"Tag = " + tag + "\")\n";
  s += "q = select(tagged, \"Type = question\")\n";
  s += "a = select(tagged, \"Type = answer\")\n";
  s += "g = graph(join(q, a, \"AcceptedAnswerId\", \"PostId\"), "
       "\"UserId-1\", \"UserId-2\")\n";
  if (edges_only) return s + "edges(g)\n";
  return s + "top_k(pagerank(g, " + std::to_string(kScriptPageRankIters) +
         "), \"Score\", " + std::to_string(kTopK) + ")\n";
}

// The posts table copied out into plain vectors. Strings are kept as their
// index in a caller-given word list (-1 for any other text), which keeps
// the model small and compares them by text, not by pool id.
struct PlainPosts {
  std::vector<int64_t> post, user, accepted, parent, time;
  std::vector<int8_t> type, tag;

  static PlainPosts From(const Table& t, const std::vector<std::string>& tags) {
    PlainPosts p;
    const int64_t n = t.NumRows();
    auto ints = [&](int c, std::vector<int64_t>* out) {
      out->resize(n);
      for (int64_t r = 0; r < n; ++r) (*out)[r] = t.column(c).GetInt(r);
    };
    auto words = [&](int c, const std::vector<std::string>& list,
                     std::vector<int8_t>* out) {
      out->resize(n);
      for (int64_t r = 0; r < n; ++r) {
        const std::string_view s = t.pool()->Get(t.column(c).GetStr(r));
        const auto it = std::find(list.begin(), list.end(), s);
        (*out)[r] = it == list.end() ? -1 : static_cast<int8_t>(it - list.begin());
      }
    };
    ints(0, &p.post);
    words(1, {"question", "answer"}, &p.type);
    ints(2, &p.user);
    words(3, tags, &p.tag);
    ints(4, &p.accepted);
    ints(5, &p.parent);
    ints(6, &p.time);
    return p;
  }

  static constexpr int8_t kQuestion = 0, kAnswer = 1;

  // (asker, accepted answerer) pairs of the questions with tag `want_tag`
  // (an index into the word list).
  std::vector<Edge> AcceptedPairs(int8_t want_tag) const {
    std::unordered_map<int64_t, size_t> answer_row;
    for (size_t r = 0; r < post.size(); ++r) {
      if (type[r] == kAnswer && tag[r] == want_tag) answer_row[post[r]] = r;
    }
    std::set<Edge> pairs;
    for (size_t r = 0; r < post.size(); ++r) {
      if (type[r] != kQuestion || tag[r] != want_tag) continue;
      const auto it = answer_row.find(accepted[r]);
      if (it != answer_row.end()) pairs.insert({user[r], user[it->second]});
    }
    return {pairs.begin(), pairs.end()};
  }

  // (answerer, asker) pairs over every answer.
  std::vector<Edge> AnswerPairs() const {
    std::unordered_map<int64_t, size_t> question_row;
    for (size_t r = 0; r < post.size(); ++r) {
      if (type[r] == kQuestion) question_row[post[r]] = r;
    }
    std::set<Edge> pairs;
    for (size_t r = 0; r < post.size(); ++r) {
      if (type[r] != kAnswer) continue;
      const auto it = question_row.find(parent[r]);
      if (it != question_row.end()) pairs.insert({user[r], user[it->second]});
    }
    return {pairs.begin(), pairs.end()};
  }
};

// Fingerprint of each column of a posts table: its cells in row order,
// strings by their text.
std::vector<SeqDigest> ColumnDigests(const Table& t) {
  std::vector<SeqDigest> d(t.num_columns());
  for (int c = 0; c < t.num_columns(); ++c) {
    const Column& col = t.column(c);
    for (int64_t r = 0; r < t.NumRows(); ++r) {
      if (col.type() == ColumnType::kString) {
        d[c].Add(static_cast<uint64_t>(
            std::hash<std::string_view>{}(t.pool()->Get(col.GetStr(r)))));
      } else {
        d[c].Add(col.GetInt(r));
      }
    }
  }
  return d;
}

// Checks a (NodeId, Score) top-k table against model scores: each row's
// score is the model's score of that node, and the scores are the k
// largest model scores in descending order. "" when it holds.
std::string CheckTopK(const Table& top, const PlainGraph& model,
                      const std::vector<double>& scores, int64_t k) {
  std::vector<double> best = scores;
  std::sort(best.rbegin(), best.rend());
  best.resize(std::min<size_t>(best.size(), k));
  if (top.NumRows() != static_cast<int64_t>(best.size())) {
    return "top-k has " + std::to_string(top.NumRows()) + " rows, want " +
           std::to_string(best.size());
  }
  for (int64_t r = 0; r < top.NumRows(); ++r) {
    const NodeId id = top.column(0).GetInt(r);
    const double s = top.column(1).GetFloat(r);
    const int64_t i = model.IndexOf(id);
    if (i < 0) return "top-k node " + std::to_string(id) + " not in graph";
    if (!Near(s, scores[i], 1e-9) || !Near(s, best[r], 1e-9)) {
      return "top-k row " + std::to_string(r) + " score mismatch";
    }
  }
  return "";
}

// Everything a session answers, kept to compare later sessions with the
// first (checked) one.
struct SessionAnswers {
  std::vector<std::vector<double>> tag_topk;  // Per tag: ids and scores.
  std::vector<double> all_tags;               // Digest of step 3.
};

// The first session's answers, kept for the checks after the run.
struct FirstSession {
  std::vector<SeqDigest> posts;  // The loaded table, per column.
  std::vector<TablePtr> tag_top;  // Per tag: the (NodeId, Score) top-k.
  EdgeSetDigest graph;            // The all-tags graph.
  NodeValues pr;
  ComponentLabels wcc;
  NodeInts core;
  int64_t triangles = 0;
  TablePtr top_users, comp_sizes, core_hist, latest_posts;
};

std::vector<double> TableCells(const Table& t) {
  std::vector<double> v;
  for (int c = 0; c < t.num_columns(); ++c) {
    for (int64_t r = 0; r < t.NumRows(); ++r) {
      v.push_back(t.column(c).type() == ColumnType::kFloat
                      ? t.column(c).GetFloat(r)
                      : static_cast<double>(t.column(c).GetInt(r)));
    }
  }
  return v;
}

}  // namespace

void RunAnalystSession(const Options& opts, Report* report) {
  Ringo ringo;
  gen::StackOverflowConfig cfg;
  cfg.num_users = kUsers;
  cfg.num_questions = kQuestions;
  cfg.seed = opts.seed;
  const std::vector<std::string>& tags = cfg.tags;
  const std::string tsv = opts.workdir + "/posts.tsv";

  int64_t posts_rows = 0;
  {
    const TablePtr generated = gen::GenerateStackOverflowPosts(cfg);
    posts_rows = generated->NumRows();
    std::vector<double> setup_s;
    for (int i = 0; i < kSetupRepeats; ++i) {
      setup_s.push_back(1e-3 * TimeMs([&] {
        ringo.SaveTableTSV(*generated, tsv).Abort("SaveTableTSV");
      }));
    }
    report->Add("setup_s", Median(setup_s), "s");
  }

  std::map<std::string, std::vector<double>> ms;  // Per-layer samples.
  std::vector<std::vector<double>> tag_ms(tags.size());
  std::vector<double> session_ms, answers_per_s, cpu_per_wall;
  SessionAnswers first_answers;
  FirstSession first;
  const Clock::time_point run_start = Clock::now();
  int sessions = 0;
  while (sessions == 0 || SecondsSince(run_start) < opts.seconds) {
    ++sessions;
    const bool keep = sessions == 1;
    SessionAnswers got;
    int64_t answers = 0;
    const double cpu0 = ProcessCpuSeconds();
    const Clock::time_point session_start = Clock::now();
    // Fingerprinting the first session's answers is not part of the
    // session: its wall and CPU time are taken out of the session's
    // figures.
    double check_ms = 0, check_cpu_s = 0;
    auto checking = [&](auto&& fn) {
      const double c0 = ProcessCpuSeconds();
      check_ms += TimeMs(fn);
      check_cpu_s += ProcessCpuSeconds() - c0;
    };

    // 1. Load.
    TablePtr posts;
    ms["table.load_tsv_ms"].push_back(TimeMs([&] {
      posts = Must(ringo.LoadTableTSV(PostsSchema(), tsv), "LoadTableTSV");
    }));
    ++answers;
    if (keep) checking([&] { first.posts = ColumnDigests(*posts); });

    // 2. Experts pipeline per tag, as query scripts.
    query::RunOptions run_opts;
    run_opts.pool = ringo.pool();
    run_opts.bindings["posts"] = posts;
    double parse_ms = 0, plan_ms = 0, exec_ms = 0;
    for (size_t t = 0; t < tags.size(); ++t) {
      const std::string script = ExpertsScript(tags[t], false);
      TablePtr top;
      const Clock::time_point t0 = Clock::now();
      if (opts.trace) {
        // The staged pipeline RunScript runs, timed stage by stage.
        query::Script ast;
        query::Plan plan;
        parse_ms += TimeMs([&] { ast = Must(query::Parse(script), "Parse"); });
        plan_ms += TimeMs([&] {
          plan = Must(query::PlanScript(ast, {{"posts", posts->schema()}}),
                      "PlanScript");
          query::FusePlan(&plan);
        });
        query::ExecOptions exec_opts;
        exec_opts.pool = run_opts.pool;
        exec_opts.bindings = run_opts.bindings;
        exec_ms += TimeMs([&] {
          top = Must(query::ExecutePlan(plan, exec_opts), "ExecutePlan").table;
        });
      } else {
        top = Must(query::RunScript(script, run_opts), "RunScript").table;
      }
      tag_ms[t].push_back(MsSince(t0));
      ++answers;
      if (top == nullptr) {
        report->Wrong("experts script for " + tags[t] + " returned no table");
        continue;
      }
      if (opts.inject_fault && t == 0 && top->NumRows() > 0) {
        top->mutable_column(1).SetFloat(0, top->column(1).GetFloat(0) + 1e-6);
      }
      got.tag_topk.push_back(TableCells(*top));
      if (keep) first.tag_top.push_back(top);
    }
    const double n_tags = static_cast<double>(tags.size());
    ms["query.parse_ms"].push_back(parse_ms / n_tags);
    ms["query.plan_ms"].push_back(plan_ms / n_tags);
    ms["query.exec_ms"].push_back(exec_ms / n_tags);

    // 3. All-tags graph through the Ringo API and the algo modules.
    TablePtr questions, answers_t, joined;
    ms["table.select_ms"].push_back(TimeMs([&] {
      questions = Must(ringo.Select(posts, "Type = question"), "Select");
      answers_t = Must(ringo.Select(posts, "Type = answer"), "Select");
    }));
    ms["table.join_ms"].push_back(TimeMs([&] {
      joined = Must(ringo.Join(answers_t, questions, "ParentId", "PostId"),
                    "Join");
    }));
    DirectedGraph g;
    const double to_graph_ms = TimeMs([&] {
      g = Must(ringo.ToGraph(joined, "UserId-1", "UserId-2"), "ToGraph");
    });
    ms["core.to_graph_ms"].push_back(to_graph_ms);
    ms["core.to_graph_edges_per_s"].push_back(
        static_cast<double>(joined->NumRows()) / (1e-3 * to_graph_ms));
    std::shared_ptr<const AlgoView> view;
    ms["algo.view_build_ms"].push_back(TimeMs([&] { view = AlgoView::Of(g); }));
    NodeValues pr;
    ms["algo.pagerank_ms"].push_back(
        TimeMs([&] { pr = Must(ringo.GetPageRank(g), "GetPageRank"); }));
    ComponentLabels wcc;
    ms["algo.wcc_ms"].push_back(
        TimeMs([&] { wcc = WeaklyConnectedComponents(g); }));
    UndirectedGraph ug;
    ms["algo.to_undirected_ms"].push_back(
        TimeMs([&] { ug = ToUndirected(g); }));
    int64_t triangles = 0;
    ms["algo.triangles_ms"].push_back(
        TimeMs([&] { triangles = ParallelTriangleCount(ug); }));
    NodeInts core;
    ms["algo.kcore_ms"].push_back(TimeMs([&] { core = CoreNumbers(ug); }));
    TablePtr pr_t, wcc_t, core_t;
    ms["core.to_table_ms"].push_back(TimeMs([&] {
      pr_t = ringo.TableFromMap(pr, "User", "Scr");
      wcc_t = ringo.TableFromMap(wcc, "User", "Comp");
      core_t = ringo.TableFromMap(core, "User", "Core");
    }));
    TablePtr comp_sizes, core_hist;
    ms["table.group_by_ms"].push_back(TimeMs([&] {
      comp_sizes = Must(wcc_t->GroupByAggregate(
                            {"Comp"}, {{"User", AggFn::kCount, "Size"}}),
                        "GroupByAggregate");
      core_hist = Must(core_t->GroupByAggregate(
                           {"Core"}, {{"User", AggFn::kCount, "Users"}}),
                       "GroupByAggregate");
    }));
    // The latest posts come from a top-k over the whole posts table; the
    // other two rank the small per-user and per-component tables.
    TablePtr top_users, top_comps, latest_posts;
    ms["table.top_k_ms"].push_back(TimeMs([&] {
      top_users = Must(pr_t->TopK("Scr", kTopK), "TopK");
      top_comps = Must(comp_sizes->TopK("Size", kTopK), "TopK");
      latest_posts = Must(posts->TopK("Time", kTopK), "TopK");
    }));
    answers += 13;  // Two selects, join, graph, view, five kernels, tables.
    const double session = MsSince(session_start) - check_ms;
    session_ms.push_back(session);
    answers_per_s.push_back(static_cast<double>(answers) / (1e-3 * session));
    cpu_per_wall.push_back((ProcessCpuSeconds() - cpu0 - check_cpu_s) /
                           (1e-3 * session));
    report->attempted += answers;

    got.all_tags = TableCells(*top_users);
    for (const TablePtr& t : {comp_sizes, core_hist, top_comps}) {
      const std::vector<double> cells = TableCells(*t);
      got.all_tags.insert(got.all_tags.end(), cells.begin(), cells.end());
    }
    for (int64_t r = 0; r < latest_posts->NumRows(); ++r) {
      got.all_tags.push_back(static_cast<double>(latest_posts->column(0).GetInt(r)));
    }
    got.all_tags.push_back(static_cast<double>(triangles));
    got.all_tags.push_back(static_cast<double>(g.NumEdges()));

    if (keep) {
      checking([&] {
        g.ForEachEdge([&](NodeId s, NodeId d) { first.graph.Add(s, d); });
      });
      first.pr = std::move(pr);
      first.wcc = std::move(wcc);
      first.core = std::move(core);
      first.triangles = triangles;
      first.top_users = top_users;
      first.comp_sizes = comp_sizes;
      first.core_hist = core_hist;
      first.latest_posts = latest_posts;
      first_answers = got;
      // Later sessions repeat the same work; how many fit in the run
      // depends on speed, so memory is read over the first one.
      report->Add("peak_rss_mb", PeakRssMb(), "MB");
      ms["table.bytes"].push_back(
          static_cast<double>(posts->MemoryUsageBytes()));
      ms["graph.bytes"].push_back(static_cast<double>(g.MemoryUsageBytes()));
      ms["algo_view.bytes"].push_back(
          static_cast<double>(view->MemoryUsageBytes()));
    } else if (got.tag_topk != first_answers.tag_topk ||
               got.all_tags != first_answers.all_tags) {
      report->Wrong("session " + std::to_string(sessions) +
                    " answers differ from the first session's");
    }
  }

  // A script's answer time: per tag, the median over sessions; then the
  // mean over tags, which differ in size.
  double answer_ms = 0;
  for (const std::vector<double>& v : tag_ms) answer_ms += Median(v);
  report->Add("answer_p50_ms", answer_ms / static_cast<double>(tags.size()),
              "ms");
  report->Add("slow_answer_ms", Median(session_ms), "ms");
  report->Add("answers_per_s", Median(answers_per_s), "1/s");
  if (opts.trace) {
    for (const auto& [name, v] : ms) {
      const bool bytes = name.find(".bytes") != std::string::npos;
      const bool rate = name.find("per_s") != std::string::npos;
      report->Add(name, Median(v), bytes ? "bytes" : rate ? "1/s" : "ms");
    }
    report->Add("process.cpu_per_wall", Median(cpu_per_wall), "ratio");
  }

  // Checks of the first session's answers. The models come from the
  // generated table, made again from the same seed.
  const TablePtr generated = gen::GenerateStackOverflowPosts(cfg);
  if (!(ColumnDigests(*generated) == first.posts)) {
    report->Wrong("loaded posts table differs from the generated one");
  }
  const PlainPosts plain = PlainPosts::From(*generated, tags);
  for (size_t t = 0; t < first.tag_top.size(); ++t) {
    const PlainGraph model = PlainGraph::FromEdges(
        plain.AcceptedPairs(static_cast<int8_t>(t)));
    const std::vector<double> scores =
        PlainPageRank(model, kScriptPageRankIters, 0.0);
    const std::string why = CheckTopK(*first.tag_top[t], model, scores, kTopK);
    if (!why.empty()) report->Wrong("experts " + tags[t] + ": " + why);
  }

  const std::vector<Edge> all_pairs = plain.AnswerPairs();
  EdgeSetDigest want_graph;
  for (const Edge& e : all_pairs) want_graph.Add(e.first, e.second);
  if (!(first.graph == want_graph)) {
    report->Wrong("all-tags graph differs from the answerer->asker pairs");
  }
  const PlainGraph all_model = PlainGraph::FromEdges(all_pairs);
  const std::vector<double> scores = PlainPageRank(all_model, 100, 1e-10);
  bool pr_ok = first.pr.size() == all_model.ids.size();
  for (size_t i = 0; pr_ok && i < first.pr.size(); ++i) {
    pr_ok = first.pr[i].first == all_model.ids[i] &&
            Near(first.pr[i].second, scores[i], 1e-9);
  }
  if (!pr_ok) report->Wrong("all-tags PageRank differs from the model");
  const std::string top_why =
      CheckTopK(*first.top_users, all_model, scores, kTopK);
  if (!top_why.empty()) report->Wrong("all-tags top-k: " + top_why);

  std::set<int64_t> labels;
  for (const auto& [id, c] : first.wcc) labels.insert(c);
  const int64_t components = UnionFindComponents(all_model);
  if (static_cast<int64_t>(labels.size()) != components ||
      first.comp_sizes->NumRows() != components) {
    report->Wrong("WCC count " + std::to_string(labels.size()) +
                  ", union-find gives " + std::to_string(components));
  }
  const auto nbrs = Undirect(all_model);
  const int64_t want_tri = IntersectTriangles(nbrs);
  if (first.triangles != want_tri) {
    report->Wrong("triangles " + std::to_string(first.triangles) + ", want " +
                  std::to_string(want_tri));
  }
  std::vector<int64_t> core_dense;
  bool core_ids_ok = first.core.size() == all_model.ids.size();
  for (size_t i = 0; core_ids_ok && i < first.core.size(); ++i) {
    core_ids_ok = first.core[i].first == all_model.ids[i];
    core_dense.push_back(first.core[i].second);
  }
  const std::string core_why =
      core_ids_ok ? CheckCoreNumbers(nbrs, core_dense) : "node ids differ";
  if (!core_why.empty()) report->Wrong("k-core: " + core_why);
  std::map<int64_t, int64_t> hist;
  for (const int64_t c : core_dense) ++hist[c];
  std::map<int64_t, int64_t> got_hist;
  for (int64_t r = 0; r < first.core_hist->NumRows(); ++r) {
    got_hist[first.core_hist->column(0).GetInt(r)] =
        first.core_hist->column(1).GetInt(r);
  }
  if (got_hist != hist) report->Wrong("k-core histogram table differs");

  // The latest posts: the k largest times, each on a real post.
  std::map<int64_t, int64_t> time_of;
  for (size_t r = 0; r < plain.post.size(); ++r) {
    time_of[plain.post[r]] = plain.time[r];
  }
  std::vector<int64_t> times = plain.time;
  std::sort(times.rbegin(), times.rend());
  const Table& latest = *first.latest_posts;
  const int time_col = Must(latest.schema().FindColumn("Time"), "FindColumn");
  bool latest_ok = latest.NumRows() == kTopK;
  for (int64_t r = 0; latest_ok && r < latest.NumRows(); ++r) {
    const auto it = time_of.find(latest.column(0).GetInt(r));
    latest_ok = it != time_of.end() &&
                it->second == latest.column(time_col).GetInt(r) &&
                it->second == times[r];
  }
  if (!latest_ok) report->Wrong("latest-posts top-k differs from the model");

  // Each tag's graph, exported as an edge table, against its pairs; on the
  // posts table loaded once more.
  query::RunOptions run_opts;
  run_opts.pool = ringo.pool();
  run_opts.bindings["posts"] =
      Must(ringo.LoadTableTSV(PostsSchema(), tsv), "LoadTableTSV");
  for (size_t t = 0; t < tags.size(); ++t) {
    const TablePtr edges =
        Must(query::RunScript(ExpertsScript(tags[t], true), run_opts),
             "RunScript")
            .table;
    std::vector<Edge> e;
    for (int64_t r = 0; r < edges->NumRows(); ++r) {
      e.push_back({edges->column(0).GetInt(r), edges->column(1).GetInt(r)});
    }
    std::sort(e.begin(), e.end());
    if (e != plain.AcceptedPairs(static_cast<int8_t>(t))) {
      report->Wrong("experts graph for " + tags[t]);
    }
  }

  std::fprintf(stderr,
               "analyst_session: %d sessions, %lld posts rows, all-tags graph "
               "%lld nodes / %lld edges\n",
               sessions, static_cast<long long>(posts_rows),
               static_cast<long long>(all_model.NumNodes()),
               static_cast<long long>(all_model.NumEdges()));
}

}  // namespace perfbench
