#include "farm/report.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "core/options_signature.hpp"

namespace rcpn::farm {
namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string fmt3(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

/// Nearest-rank percentile of an ascending-sorted vector (q in [0,1]).
double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const std::size_t rank = static_cast<std::size_t>(q * (sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

}  // namespace

std::size_t FarmReport::count(JobStatus status) const {
  std::size_t n = 0;
  for (const JobRecord& j : jobs)
    if (j.result.status == status) ++n;
  return n;
}

FarmAggregate FarmReport::aggregate() const {
  FarmAggregate a;
  a.jobs = jobs.size();
  std::vector<double> wall_ms;
  for (const JobRecord& j : jobs) {
    switch (j.result.status) {
      case JobStatus::ok: ++a.ok; break;
      case JobStatus::failed: ++a.failed; break;
      case JobStatus::timeout: ++a.timeout; break;
    }
    if (j.result.cached) ++a.cached;
    if (j.result.status == JobStatus::ok) {
      a.total_cycles += j.result.stats.cycles;
      a.total_retired += j.result.retired;
      // Percentiles over executed-and-successful jobs only: cached results
      // carry no wall time, and failure/timeout latencies are not simulation
      // cost. An empty sample set (all cached, all failed, no jobs) yields
      // 0.0 percentiles with wall_samples == 0 flagging the degenerate case.
      if (!j.result.cached) wall_ms.push_back(j.result.wall_seconds * 1e3);
    }
  }
  std::sort(wall_ms.begin(), wall_ms.end());
  a.wall_samples = wall_ms.size();
  a.wall_ms_p50 = percentile(wall_ms, 0.50);
  a.wall_ms_p95 = percentile(wall_ms, 0.95);
  a.wall_ms_max = wall_ms.empty() ? 0.0 : wall_ms.back();
  return a;
}

std::string FarmReport::render_json(bool include_timing) const {
  const FarmAggregate a = aggregate();
  std::ostringstream out;
  out << "{\n  \"schema\": \"rcpn-farm-report/3\",\n";
  if (include_timing) {
    out << "  \"workers\": " << workers << ",\n";
    out << "  \"wall_seconds\": " << wall_seconds << ",\n";
  }
  out << "  \"aggregate\": {\"jobs\": " << a.jobs << ", \"ok\": " << a.ok
      << ", \"failed\": " << a.failed << ", \"timeout\": " << a.timeout;
  out << ", \"total_cycles\": " << a.total_cycles
      << ", \"total_retired\": " << a.total_retired;
  if (include_timing) {
    out << ", \"cached\": " << a.cached << ", \"wall_samples\": " << a.wall_samples
        << ", \"wall_ms_p50\": " << fmt3(a.wall_ms_p50)
        << ", \"wall_ms_p95\": " << fmt3(a.wall_ms_p95)
        << ", \"wall_ms_max\": " << fmt3(a.wall_ms_max);
  }
  out << "},\n";
  if (include_timing) {
    const FarmTelemetry& t = telemetry;
    out << "  \"telemetry\": {\"executed\": " << t.executed
        << ", \"cache_hits\": " << t.cache_hits << ", \"timeouts\": " << t.timeouts
        << ", \"queue_wait_ms_mean\": " << fmt3(t.queue_wait_ms_mean)
        << ", \"queue_wait_ms_max\": " << fmt3(t.queue_wait_ms_max)
        << ", \"workers\": [";
    for (std::size_t i = 0; i < t.workers.size(); ++i) {
      const WorkerTelemetry& w = t.workers[i];
      out << (i == 0 ? "" : ", ") << "{\"jobs\": " << w.jobs
          << ", \"busy_seconds\": " << fmt3(w.busy_seconds) << "}";
    }
    out << "]},\n";
  }
  out << "  \"jobs\": [";
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobRecord& j = jobs[i];
    const JobSpec& s = j.spec;
    const JobResult& r = j.result;
    out << (i == 0 ? "\n" : ",\n") << "    {\"machine\": \"" << json_escape(s.machine)
        << "\", \"executor\": \"" << executor_name(s.executor) << "\", \"backend\": \""
        << backend_name(s.options.backend) << "\", \"options\": \""
        << json_escape(core::options_bits_desc(core::options_bits(s.options)))
        << "\", \"seed\": " << s.seed << ", \"cycle_budget\": " << s.cycle_budget
        << ", \"hash\": \"" << hex64(j.hash) << "\", \"status\": \""
        << job_status_name(r.status) << "\"";
    if (!r.error.empty()) out << ", \"error\": \"" << json_escape(r.error) << "\"";
    if (r.status == JobStatus::ok) {
      out << ", \"digest\": \"" << hex64(r.digest) << "\", \"retired\": " << r.retired
          << ", \"cycles\": " << r.stats.cycles << ", \"fetched\": " << r.stats.fetched
          << ", \"squashed\": " << r.stats.squashed
          << ", \"reservations\": " << r.stats.reservations
          << ", \"firings\": " << r.stats.firings;
    }
    if (s.executor == ExecutorKind::subprocess) out << ", \"exit_code\": " << r.exit_code;
    if (include_timing) {
      out << ", \"wall_ms\": " << fmt3(r.wall_seconds * 1e3)
          << ", \"cached\": " << (r.cached ? "true" : "false");
    }
    out << "}";
  }
  out << "\n  ]\n}\n";
  return out.str();
}

}  // namespace rcpn::farm
