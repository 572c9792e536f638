// Shared plumbing for the end-to-end benchmark: options, timing, order
// statistics, process resource readings, and the metric/outcome records
// every workload fills in. Nothing here calls into Ringo.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
  // Directory for the files a workload writes and reads back (TSV, .rtb).
  std::string workdir;
  // Self-test of the output checks: corrupt one program answer before it
  // is checked, so the run must report a failure.
  bool inject_fault = false;
};

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double MsSince(Clock::time_point t0) { return 1e3 * SecondsSince(t0); }

// Times one call; returns its wall time in milliseconds.
template <typename Fn>
double TimeMs(Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  return MsSince(t0);
}

// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// User + system CPU seconds of this process (all threads).
inline double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

// Peak resident set of this process so far. Workloads read it when the
// program's measured work ends, before they build the models the output
// checks need, so the figure is the program's and not the checks'.
inline double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

// splitmix64's finalizer: a strong mix of 64 bits.
inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Fingerprint of a set of distinct edges, whatever the order they are
// added in: their number and the sum of their mixed hashes. Two sets
// that differ compare equal only by a 64-bit hash collision.
struct EdgeSetDigest {
  uint64_t count = 0;
  uint64_t sum = 0;

  void Add(int64_t src, int64_t dst) {
    ++count;
    sum += Mix64(Mix64(static_cast<uint64_t>(src)) + static_cast<uint64_t>(dst));
  }
  bool operator==(const EdgeSetDigest&) const = default;
};

// Fingerprint of a sequence of values, in order.
struct SeqDigest {
  uint64_t count = 0;
  uint64_t hash = 0;

  void Add(uint64_t v) {
    ++count;
    hash = Mix64(hash + Mix64(v));
  }
  void Add(int64_t v) { Add(static_cast<uint64_t>(v)); }
  bool operator==(const SeqDigest&) const = default;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// What one run reports: its metrics, and its operations attempted and
// failed. A wrong answer is a failed operation that also clears `correct`.
struct Report {
  std::vector<Metric> metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
  bool correct = true;
  std::vector<std::string> errors;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  // Records a wrong answer (one failed operation).
  void Wrong(std::string what) {
    ++failed;
    correct = false;
    if (errors.size() < 20) errors.push_back(std::move(what));
  }
};

// Workload entry points (analyst.cc, serve_rw.cc, ingest.cc).
void RunAnalystSession(const Options& opts, Report* report);
void RunServeReadWrite(const Options& opts, Report* report);
void RunStreamIngest(const Options& opts, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
