// SimFarm: the batch-simulation engine.
//
// run(jobs) starts the worker threads and joins them. Each worker takes the
// next job index from one atomic cursor, hashes that job, checks the result
// cache, executes it through the function its spec's executor names
// (farm/executor.hpp) and commits the result; the report lists jobs in
// submission order regardless of which worker ran them when. Invariants:
//
//  * A failing job never fails the farm. Both executors turn exceptions into
//    failed results and enforce the job's wall-clock timeout themselves: an
//    in-process job stops at the first chunk boundary past its deadline, a
//    subprocess child is SIGKILLed. Either comes back `timeout`, and the rest
//    of the grid completes.
//  * Successful results enter a bounded LRU cache keyed by job_hash(); the
//    cache persists across run() calls on the same farm, so re-running an
//    identical grid does zero simulation work.
//
// In-process code that never returns from a single cycle cannot be stopped;
// use the subprocess executor for untrusted models.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "farm/job.hpp"
#include "farm/report.hpp"

namespace rcpn::farm {

struct FarmOptions {
  /// Worker thread count; 0 = std::thread::hardware_concurrency().
  unsigned workers = 0;
  /// Timeout for jobs whose spec leaves timeout_ms at 0.
  std::uint64_t default_timeout_ms = 30000;
  /// Result-cache capacity in entries; 0 disables caching.
  std::size_t cache_entries = 256;
  /// Directory holding the gen_fs_<machine> binaries for the subprocess
  /// executor; empty = directory of the current executable.
  std::string bin_dir;
  /// Progress callback, invoked with the farm-wide progress lock held (calls
  /// are serialized): (completed count, total, job index, its result).
  std::function<void(std::size_t, std::size_t, std::size_t, const JobResult&)>
      on_job_done;
};

class SimFarm {
 public:
  explicit SimFarm(FarmOptions options = {});
  ~SimFarm();
  SimFarm(const SimFarm&) = delete;
  SimFarm& operator=(const SimFarm&) = delete;

  /// Run the grid to completion. Not reentrant: one run() at a time.
  FarmReport run(std::vector<JobSpec> jobs);

  /// Jobs actually simulated (cache misses), cumulative over run() calls.
  std::uint64_t executed() const;
  /// Jobs served from the result cache, cumulative over run() calls.
  std::uint64_t cache_hits() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Directory of the running executable (via /proc/self/exe) — the default
/// search path for sibling gen_fs_* binaries.
std::string default_bin_dir();

}  // namespace rcpn::farm
