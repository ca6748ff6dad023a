// Shared pieces of the perfbench binary: run context, summary statistics,
// the metric report and a seeded shuffle. See README.md for the workloads and
// the meaning of every metric.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Everything one invocation is asked to do.
struct Context {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test hook: corrupt one expected program output so the correctness
  /// gate must count failures.
  bool corrupt_expected = false;
  /// Self-test hook (sweep): make one backend of one fuzz model fail its
  /// reference run with a non-budget error, which the gate must count.
  bool inject_fuzz_error = false;
  std::string root = ".";      // repository checkout (reads models/*.rcpn)
  std::string work_dir = ".";  // working files: checkpoints, the span file
  unsigned threads = 1;        // host hardware threads
  Tracer* tracer = nullptr;
};

/// Operation accounting for the correctness gate: every checked simulation
/// or farm job is attempted; a mismatch is failed and excluded from rates.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

// -- summary statistics -------------------------------------------------------

double median(std::vector<double> v);
/// Linear-interpolated percentile, p in [0, 100].
double percentile(std::vector<double> v, double p);

/// Quartiles as Python's statistics.quantiles(v, n=4) gives them (the
/// default "exclusive" method), so printed spreads match the acceptance check.
struct Quartiles {
  double q1 = 0.0, q2 = 0.0, q3 = 0.0;
  std::size_t n = 0;
};
Quartiles quartiles(std::vector<double> v);

/// Host noise on a shared machine (mostly neighbours contending for caches and
/// memory) only ever slows a run down, and it can cover most of a run.
/// Repeated timings are therefore summarized by their fast-side decile: the
/// 10th percentile of times, the 90th of rates. A real slowdown moves every
/// repeat, so it moves these too.
inline double fast_time(const std::vector<double>& t) { return percentile(t, 10.0); }
inline double fast_rate(const std::vector<double>& r) { return percentile(r, 90.0); }

/// Host peak resident set size of this process, in MB.
double peak_rss_mb();

// -- metrics ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Ordered metric set; the last stdout line renders one of these.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  /// Also print `name`'s per-repeat spread (median, quartiles, count) so a
  /// bound can be read off measured noise instead of guessed.
  void add_with_spread(const std::string& name, double value, const std::string& unit,
                       const std::vector<double>& per_repeat);
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// Print the human-readable metric table.
void print_report(const char* title, const Report& r);

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string result_json(const Outcome& o, const Report& r);

// -- seeded input generation ---------------------------------------------------

/// splitmix64: the only randomness source; everything derives from --seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }

 private:
  std::uint64_t s_;
};

// -- workloads (one entry point each) ------------------------------------------

/// `kernels`: Fig 10's six programs on StrongArm and XScale, compiled and
/// generated backends, interleaved repeats.
int run_kernels_workload(Context& ctx, Outcome& outcome, Report& e2e, Report& layers);

/// `sweep`: thousands of short, distinct SimFarm jobs.
int run_sweep_workload(Context& ctx, Outcome& outcome, Report& e2e, Report& layers);

}  // namespace perfbench
