#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

Quartiles quartiles(std::vector<double> v) {
  Quartiles q;
  q.n = v.size();
  if (v.empty()) return q;
  std::sort(v.begin(), v.end());
  if (v.size() == 1) {
    q.q1 = q.q2 = q.q3 = v[0];
    return q;
  }
  const long ld = static_cast<long>(v.size());
  const long m = ld + 1;
  double out[3];
  for (long i = 1; i < 4; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    out[i - 1] = (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
                  v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
                 4.0;
  }
  q.q1 = out[0];
  q.q2 = out[1];
  q.q3 = out[2];
  return q;
}

double peak_rss_mb() {
  struct rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void Report::add(const std::string& name, double value, const std::string& unit) {
  if (!std::isfinite(value))
    throw std::runtime_error("metric " + name + " is not finite");
  metrics_.push_back(Metric{name, value, unit});
}

void Report::add_with_spread(const std::string& name, double value, const std::string& unit,
                             const std::vector<double>& per_repeat) {
  add(name, value, unit);
  const Quartiles q = quartiles(per_repeat);
  const double iqr_share = q.q2 != 0.0 ? (q.q3 - q.q1) / q.q2 : 0.0;
  std::printf("  spread %-22s median %-12.6g q1 %-12.6g q3 %-12.6g iqr/median %.4f (n=%zu repeats)\n",
              name.c_str(), q.q2, q.q1, q.q3, iqr_share, q.n);
}

void print_report(const char* title, const Report& r) {
  std::printf("\n%s\n", title);
  for (const Metric& m : r.metrics())
    std::printf("  %-44s %.10g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

std::string result_json(const Outcome& o, const Report& r) {
  std::string out = "{\"correct\": ";
  out += o.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(o.attempted);
  out += ", \"failed\": " + std::to_string(o.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : r.metrics()) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    if (!first) out += ", ";
    first = false;
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
