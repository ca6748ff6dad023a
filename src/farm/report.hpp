// FarmReport: the machine-readable outcome of one SimFarm::run().
//
// Per job it records the spec (as submitted), the canonical hash and the
// result (status, stats, trace digest, wall time, failure reason); the
// aggregate rolls those up into counts, total simulated work and wall-time
// percentiles. to_json() emits the full report under the
// "rcpn-farm-report/4" schema; stable_json() strips every field that
// legitimately varies between runs of the same grid (wall times, worker
// count, cache-hit flags) so two reports from the same grid compare equal
// byte-for-byte exactly when the *simulations* behaved identically — the
// N-worker-vs-1-worker determinism check in tests and `rcpn_farm --verify`
// is a string comparison of stable_json() outputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "farm/job.hpp"

namespace rcpn::farm {

struct JobRecord {
  JobSpec spec;
  std::uint64_t hash = 0;
  JobResult result;
};

struct FarmAggregate {
  std::size_t jobs = 0;
  std::size_t ok = 0;
  std::size_t failed = 0;
  std::size_t timeout = 0;
  std::size_t cached = 0;
  std::uint64_t total_cycles = 0;   // over ok jobs
  std::uint64_t total_retired = 0;  // over ok jobs
  /// Wall-time percentiles over *executed, successful* jobs only: cached
  /// results have no wall time of their own, and failed/timed-out jobs would
  /// skew the distribution with abort latencies. wall_samples says how many
  /// jobs the percentiles summarize — 0 means every percentile is 0.0 by
  /// definition (empty grid, all-cached or all-failed), not "instant".
  std::size_t wall_samples = 0;
  double wall_ms_p50 = 0.0;
  double wall_ms_p95 = 0.0;
  double wall_ms_max = 0.0;
};

/// One worker thread's execution counters.
struct WorkerTelemetry {
  std::size_t jobs = 0;  // jobs this worker executed (cache hits excluded)
  double busy_seconds = 0.0;
};

/// Run-wide scheduling telemetry, emitted only in the timing report —
/// stable_json() stays byte-identical across worker counts and machine load.
struct FarmTelemetry {
  std::size_t executed = 0;    // jobs that actually ran (non-cached)
  std::size_t cache_hits = 0;  // jobs satisfied from the result cache
  std::size_t timeouts = 0;    // jobs whose result is `timeout`, either executor
  /// Always 0: workers share one job cursor and never steal. Kept only
  /// because perfbench/src/sweep.cpp reads it; to_json() omits it.
  std::size_t steals = 0;
  /// Queue wait: submission (run start) -> job pickup, over executed and
  /// cache-served jobs.
  double queue_wait_ms_mean = 0.0;
  double queue_wait_ms_max = 0.0;
  std::vector<WorkerTelemetry> workers;  // one per worker thread
};

struct FarmReport {
  std::vector<JobRecord> jobs;  // submission order, independent of scheduling
  unsigned workers = 1;
  double wall_seconds = 0.0;
  FarmTelemetry telemetry;

  FarmAggregate aggregate() const;
  std::size_t count(JobStatus status) const;

  /// Full JSON report (schema "rcpn-farm-report/4"): metadata, aggregate,
  /// telemetry, one object per job. Hashes and digests are 16-digit hex
  /// strings.
  std::string to_json() const { return render_json(true); }

  /// Timing-independent subset: drops wall times/percentiles, the worker
  /// count, the telemetry block and per-job cached flags (which depend on
  /// scheduling when duplicate-hash jobs race the cache). Equal
  /// stable_json() == identical simulation outcomes.
  std::string stable_json() const { return render_json(false); }

 private:
  std::string render_json(bool include_timing) const;
};

}  // namespace rcpn::farm
