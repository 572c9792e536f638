// End-to-end benchmark for Ringo. One binary, three workloads:
//
//   analyst_session  one analyst loading a posts table and running the
//                    paper's §4.1 experts loop plus graph analytics;
//   serve_readwrite  a serve::Engine answering an open-loop, then a
//                    closed-loop query mix while a writer toggles a batch;
//   stream_ingest    a writer applying edge batches, each followed by a
//                    snapshot refresh and a BFS (update-to-query latency).
//
// Usage:
//   ringo_perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//                   [--workdir DIR] [--inject-fault]
//
// The last line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// holding every metric the workload measured: its end-to-end metrics, and
// with --trace 1 its per-layer metrics too. run.py picks the ones
// BENCHMARK.json lists for the mode. A wrong answer makes the exit code 1.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common.h"

namespace perfbench {
namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "ringo_perfbench: %s\nusage: ringo_perfbench --workload "
               "{analyst_session|serve_readwrite|stream_ingest} [--seed N] "
               "[--seconds S] [--trace 0|1] [--workdir DIR] "
               "[--inject-fault]\n",
               why);
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  o.workdir = ".bench_build/work";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::stoull(value());
    } else if (a == "--seconds") {
      o.seconds = std::stod(value());
    } else if (a == "--trace") {
      o.trace = value() != "0";
    } else if (a == "--workdir") {
      o.workdir = value();
    } else if (a == "--inject-fault") {
      o.inject_fault = true;
    } else {
      Usage(("unknown argument " + a).c_str());
    }
  }
  if (o.workload.empty()) Usage("--workload is required");
  if (!(o.seconds > 0 && o.seconds <= 600)) Usage("--seconds out of range");
  return o;
}

void PrintJson(const Report& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out += i == 0 ? "" : ", ";
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options opts = ParseArgs(argc, argv);
  std::filesystem::create_directories(opts.workdir);

  Report report;
  if (opts.workload == "analyst_session") {
    RunAnalystSession(opts, &report);
  } else if (opts.workload == "serve_readwrite") {
    RunServeReadWrite(opts, &report);
  } else if (opts.workload == "stream_ingest") {
    RunStreamIngest(opts, &report);
  } else {
    Usage(("unknown workload " + opts.workload).c_str());
  }
  for (const std::string& e : report.errors) {
    std::fprintf(stderr, "WRONG ANSWER: %s\n", e.c_str());
  }
  std::fprintf(stderr, "%s: metrics\n", opts.workload.c_str());
  for (const Metric& m : report.metrics) {
    std::fprintf(stderr, "  %-36s %14.4f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  PrintJson(report);
  return report.correct ? 0 : 1;
}
