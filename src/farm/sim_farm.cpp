#include "farm/sim_farm.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>

#include "farm/executor.hpp"
#include "farm/result_cache.hpp"

namespace rcpn::farm {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One worker's counters, written by that worker alone and merged into the
/// FarmTelemetry once every worker has joined.
struct WorkerTally {
  WorkerTelemetry telemetry;
  std::size_t cache_hits = 0;
  std::size_t timeouts = 0;
  double queue_wait_ms_sum = 0.0;
  double queue_wait_ms_max = 0.0;
};

}  // namespace

std::string default_bin_dir() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return ".";
  buf[n] = '\0';
  const std::string path(buf);
  const std::size_t slash = path.rfind('/');
  return slash == std::string::npos ? "." : path.substr(0, slash);
}

struct SimFarm::Impl {
  FarmOptions opts;
  std::string bin_dir;
  ResultCache cache;
  std::atomic<std::uint64_t> executed{0};
  std::atomic<std::uint64_t> hits{0};

  explicit Impl(FarmOptions o)
      : opts(std::move(o)),
        bin_dir(opts.bin_dir.empty() ? default_bin_dir() : opts.bin_dir),
        cache(opts.cache_entries) {}

  JobResult execute(const JobSpec& spec) const {
    const std::uint64_t timeout_ms =
        spec.timeout_ms != 0 ? spec.timeout_ms : opts.default_timeout_ms;
    return spec.executor == ExecutorKind::subprocess
               ? run_subprocess(spec, timeout_ms, bin_dir)
               : run_in_process(spec, timeout_ms);
  }

  FarmReport run(std::vector<JobSpec> jobs) {
    const auto t0 = Clock::now();
    const unsigned hw = std::thread::hardware_concurrency();
    const unsigned nw =
        std::max(1u, opts.workers != 0 ? opts.workers : (hw != 0 ? hw : 4u));
    const std::size_t n = jobs.size();

    FarmReport report;
    report.workers = nw;
    report.jobs.resize(n);
    for (std::size_t i = 0; i < n; ++i) report.jobs[i].spec = std::move(jobs[i]);

    std::atomic<std::size_t> cursor{0};
    std::mutex progress_mu;
    std::size_t done = 0;        // guarded by progress_mu
    std::exception_ptr escaped;  // guarded by progress_mu
    const auto work = [&](WorkerTally& tally) {
      try {
        for (std::size_t j = cursor++; j < n; j = cursor++) {
          // Queue wait: run start -> pickup.
          const double wait_ms = seconds_since(t0) * 1e3;
          tally.queue_wait_ms_sum += wait_ms;
          tally.queue_wait_ms_max = std::max(tally.queue_wait_ms_max, wait_ms);

          JobRecord& rec = report.jobs[j];
          rec.hash = job_hash(rec.spec);
          if (cache.lookup(rec.hash, rec.result)) {
            ++tally.cache_hits;
          } else {
            const auto exec_t0 = Clock::now();
            rec.result = execute(rec.spec);
            ++tally.telemetry.jobs;
            tally.telemetry.busy_seconds += seconds_since(exec_t0);
            if (rec.result.status == JobStatus::ok) cache.insert(rec.hash, rec.result);
          }
          if (rec.result.status == JobStatus::timeout) ++tally.timeouts;
          if (opts.on_job_done) {
            std::lock_guard<std::mutex> lock(progress_mu);
            opts.on_job_done(++done, n, j, rec.result);
          }
        }
      } catch (...) {
        // The executors never throw, but the progress callback, hashing or
        // the cache can: run() rethrows it once every worker has joined.
        std::lock_guard<std::mutex> lock(progress_mu);
        if (!escaped) escaped = std::current_exception();
      }
    };

    std::vector<WorkerTally> tallies(nw);
    std::vector<std::thread> threads;
    threads.reserve(nw);
    try {
      for (WorkerTally& tally : tallies) threads.emplace_back(work, std::ref(tally));
    } catch (const std::system_error&) {
      // Out of threads: the workers already running drain the whole grid.
      if (threads.empty()) throw;
    }
    for (std::thread& t : threads) t.join();
    if (escaped) std::rethrow_exception(escaped);
    report.wall_seconds = seconds_since(t0);

    FarmTelemetry& t = report.telemetry;
    double queue_wait_ms_sum = 0.0;
    for (const WorkerTally& w : tallies) {
      t.executed += w.telemetry.jobs;
      t.cache_hits += w.cache_hits;
      t.timeouts += w.timeouts;
      queue_wait_ms_sum += w.queue_wait_ms_sum;
      t.queue_wait_ms_max = std::max(t.queue_wait_ms_max, w.queue_wait_ms_max);
      t.workers.push_back(w.telemetry);
    }
    const std::size_t picked = t.executed + t.cache_hits;
    t.queue_wait_ms_mean =
        picked == 0 ? 0.0 : queue_wait_ms_sum / static_cast<double>(picked);
    executed += t.executed;
    hits += t.cache_hits;
    return report;
  }
};

SimFarm::SimFarm(FarmOptions options) : impl_(std::make_unique<Impl>(std::move(options))) {}
SimFarm::~SimFarm() = default;

FarmReport SimFarm::run(std::vector<JobSpec> jobs) { return impl_->run(std::move(jobs)); }

std::uint64_t SimFarm::executed() const {
  return impl_->executed.load(std::memory_order_relaxed);
}

std::uint64_t SimFarm::cache_hits() const {
  return impl_->hits.load(std::memory_order_relaxed);
}

}  // namespace rcpn::farm
