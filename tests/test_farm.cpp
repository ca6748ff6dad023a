// SimFarm: job identity hashing, scheduling-independent determinism, fault
// injection (throwing, hanging and timed-out jobs), the result cache, and
// subprocess executor parity with in-process runs.
#include <gtest/gtest.h>

#include <csignal>
#include <sys/stat.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "farm/executor.hpp"
#include "farm/job.hpp"
#include "farm/report.hpp"
#include "farm/sim_farm.hpp"
#include "machines/fuzz_model.hpp"
#include "machines/golden_runner.hpp"

using namespace rcpn;

namespace {

farm::JobSpec golden_spec(const std::string& machine, std::uint64_t seed = 0) {
  farm::JobSpec spec;
  spec.machine = machine;
  spec.options.backend = core::Backend::compiled;
  spec.seed = seed;
  return spec;
}

farm::JobSpec fuzz_spec(std::uint64_t seed, std::uint64_t budget = 4000) {
  farm::JobSpec spec;
  spec.machine = "fuzz";
  spec.options.backend = core::Backend::compiled;
  spec.seed = seed;
  spec.cycle_budget = budget;
  return spec;
}

/// The mixed in-process grid the determinism and cache tests share: every
/// golden machine plus two fuzz topologies, under two schedule variants.
std::vector<farm::JobSpec> mixed_grid() {
  std::vector<farm::JobSpec> jobs;
  for (const std::string& key : machines::golden_machine_keys()) {
    jobs.push_back(golden_spec(key));
    farm::JobSpec ablated = golden_spec(key, 1);
    ablated.options.force_two_list_all = true;
    jobs.push_back(ablated);
  }
  jobs.push_back(fuzz_spec(7));
  jobs.push_back(fuzz_spec(11));
  return jobs;
}

farm::FarmReport run_fresh(const std::vector<farm::JobSpec>& jobs, unsigned workers,
                           std::uint64_t timeout_ms = 30000) {
  farm::FarmOptions fo;
  fo.workers = workers;
  fo.default_timeout_ms = timeout_ms;
  farm::SimFarm sim_farm(std::move(fo));
  return sim_farm.run(jobs);
}

}  // namespace

// -- job identity -------------------------------------------------------------

TEST(FarmJob, KeyCoversIdentityFieldsOnly) {
  const farm::JobSpec base = golden_spec("fig2");
  const std::uint64_t h = farm::job_hash(base);

  // timeout_ms is a runtime knob, not identity: same hash.
  farm::JobSpec timed = base;
  timed.timeout_ms = 1234;
  EXPECT_EQ(farm::job_hash(timed), h);

  // Every identity field changes the hash.
  farm::JobSpec other = base;
  other.machine = "fig5";
  EXPECT_NE(farm::job_hash(other), h);
  other = base;
  other.seed = 1;
  EXPECT_NE(farm::job_hash(other), h);
  other = base;
  other.executor = farm::ExecutorKind::subprocess;
  EXPECT_NE(farm::job_hash(other), h);
  other = base;
  other.options.backend = core::Backend::interpreted;
  EXPECT_NE(farm::job_hash(other), h);
  other = base;
  other.options.force_two_list_all = true;
  EXPECT_NE(farm::job_hash(other), h);
  other = base;
  other.options.deadlock_limit = 5;
  EXPECT_NE(farm::job_hash(other), h);

  // Golden machines run their fixed workload to completion — no executor
  // honors a cycle budget for them, so a budget must not split the identity
  // of what is provably the same simulation.
  other = base;
  other.cycle_budget = 999;
  EXPECT_EQ(farm::job_hash(other), h);
}

TEST(FarmJob, KeyIsStableAcrossCalls) {
  const farm::JobSpec spec = fuzz_spec(42);
  EXPECT_EQ(farm::job_key(spec), farm::job_key(spec));
  EXPECT_EQ(farm::job_hash(spec), farm::job_hash(spec));
  EXPECT_NE(farm::job_key(spec).find("machine=fuzz"), std::string::npos);
  EXPECT_NE(farm::job_key(spec).find("seed=42"), std::string::npos);
}

// -- determinism --------------------------------------------------------------

TEST(FarmDeterminism, OneWorkerAndFourWorkersProduceIdenticalStableReports) {
  const std::vector<farm::JobSpec> jobs = mixed_grid();
  const farm::FarmReport serial = run_fresh(jobs, 1);
  const farm::FarmReport parallel = run_fresh(jobs, 4);

  ASSERT_EQ(serial.jobs.size(), jobs.size());
  EXPECT_EQ(serial.count(farm::JobStatus::ok), jobs.size());
  EXPECT_EQ(parallel.count(farm::JobStatus::ok), jobs.size());
  EXPECT_EQ(serial.stable_json(), parallel.stable_json());

  // Submission order is preserved regardless of which worker ran what.
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(parallel.jobs[i].spec.machine, jobs[i].machine) << "job " << i;
    EXPECT_EQ(parallel.jobs[i].hash, farm::job_hash(jobs[i])) << "job " << i;
  }
}

// -- fault injection ----------------------------------------------------------

TEST(FarmFaults, ThrowingJobFailsWithoutFailingTheFarm) {
  std::vector<farm::JobSpec> jobs = {golden_spec("fig2")};
  farm::JobSpec thrower;
  thrower.machine = farm::kThrowJobKey;
  jobs.push_back(thrower);
  jobs.push_back(golden_spec("fig5"));

  const farm::FarmReport report = run_fresh(jobs, 2);
  ASSERT_EQ(report.jobs.size(), 3u);
  EXPECT_EQ(report.jobs[0].result.status, farm::JobStatus::ok);
  EXPECT_EQ(report.jobs[1].result.status, farm::JobStatus::failed);
  EXPECT_NE(report.jobs[1].result.error.find("injected"), std::string::npos)
      << report.jobs[1].result.error;
  EXPECT_EQ(report.jobs[2].result.status, farm::JobStatus::ok);
}

TEST(FarmFaults, HangingJobTimesOutWhileTheRestOfTheGridCompletes) {
  std::vector<farm::JobSpec> jobs;
  farm::JobSpec hang;
  hang.machine = farm::kHangJobKey;
  hang.timeout_ms = 200;
  jobs.push_back(hang);
  for (const std::string& key : machines::golden_machine_keys())
    jobs.push_back(golden_spec(key));

  const farm::FarmReport report = run_fresh(jobs, 2);
  ASSERT_EQ(report.jobs.size(), machines::golden_machine_keys().size() + 1);
  EXPECT_EQ(report.jobs[0].result.status, farm::JobStatus::timeout);
  EXPECT_NE(report.jobs[0].result.error.find("timed out"), std::string::npos)
      << report.jobs[0].result.error;
  for (std::size_t i = 1; i < report.jobs.size(); ++i)
    EXPECT_EQ(report.jobs[i].result.status, farm::JobStatus::ok)
        << report.jobs[i].spec.machine;
}

TEST(FarmFaults, UnknownMachineKeyFailsTheJobNotTheFarm) {
  const farm::FarmReport report =
      run_fresh({golden_spec("no_such_machine"), golden_spec("fig2")}, 2);
  ASSERT_EQ(report.jobs.size(), 2u);
  EXPECT_EQ(report.jobs[0].result.status, farm::JobStatus::failed);
  EXPECT_FALSE(report.jobs[0].result.error.empty());
  EXPECT_EQ(report.jobs[1].result.status, farm::JobStatus::ok);
}

// fuzz-177 never drains. With its deadlock watchdog raised past a 2*10^7
// cycle budget it simulates for seconds; a 100 ms timeout must stop it at a
// chunk boundary, free the only worker for the next job, and leave no thread
// behind for ~SimFarm to wait on.
TEST(FarmFaults, TimedOutJobStopsAtAChunkBoundaryAndFreesItsWorker) {
  farm::JobSpec stuck;
  stuck.machine = "fuzz-177";
  stuck.options = machines::fuzz_options_for(177, core::Backend::compiled);
  stuck.cycle_budget = 20'000'000;
  stuck.options.deadlock_limit = 2 * stuck.cycle_budget;
  stuck.timeout_ms = 100;

  const auto t0 = std::chrono::steady_clock::now();
  farm::FarmReport report;
  {
    farm::FarmOptions fo;
    fo.workers = 1;
    farm::SimFarm sim_farm(std::move(fo));
    report = sim_farm.run({stuck, golden_spec("fig2")});
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  ASSERT_EQ(report.jobs.size(), 2u);
  const farm::JobResult& r = report.jobs[0].result;
  ASSERT_EQ(r.status, farm::JobStatus::timeout) << r.error;
  const std::size_t at = r.error.find(" at cycle ");
  ASSERT_NE(at, std::string::npos) << r.error;
  const std::uint64_t cycle = std::stoull(r.error.substr(at + 10));
  EXPECT_GT(cycle, 0u) << r.error;
  EXPECT_LT(cycle, stuck.cycle_budget) << r.error;
  EXPECT_EQ(report.jobs[1].result.status, farm::JobStatus::ok)
      << report.jobs[1].result.error;
  EXPECT_EQ(report.telemetry.timeouts, 1u);
  EXPECT_LT(seconds, 1.0);
}

// A timeout too large for the steady clock is no deadline, not an instant
// one: the job runs to its natural end (fuzz-177 fails to drain).
TEST(FarmFaults, TimeoutBeyondTheClockRangeMeansNoDeadline) {
  farm::JobSpec spec;
  spec.machine = "fuzz-177";
  spec.options = machines::fuzz_options_for(177, core::Backend::compiled);
  spec.cycle_budget = 200'000;
  spec.options.deadlock_limit = 2 * spec.cycle_budget;
  spec.timeout_ms = std::numeric_limits<std::uint64_t>::max();
  const farm::FarmReport report = run_fresh({spec}, 1);
  ASSERT_EQ(report.jobs.size(), 1u);
  EXPECT_EQ(report.jobs[0].result.status, farm::JobStatus::failed);
  EXPECT_NE(report.jobs[0].result.error.find("model did not drain"), std::string::npos)
      << report.jobs[0].result.error;
}

// Fuzz keys are exactly the names machines::fuzz_model_name prints; anything
// else — trailing text, a sign, a leading zero, a seed past 32 bits — is an
// unknown machine, never a silently truncated or wrapped seed.
TEST(FarmFaults, MalformedFuzzKeysFailTheJob) {
  std::vector<farm::JobSpec> jobs;
  for (const char* key : {"fuzz-12x", "fuzz-4294967308", "fuzz-", "fuzz--3", "fuzz-+3",
                          "fuzz-012", "fuzz-12 "}) {
    farm::JobSpec spec = fuzz_spec(0);
    spec.machine = key;
    jobs.push_back(spec);
  }
  jobs.push_back(fuzz_spec(std::uint64_t(1) << 32 | 12));  // "fuzz", seed past 32 bits
  farm::JobSpec good = fuzz_spec(0);
  good.machine = "fuzz-12";
  jobs.push_back(good);

  const farm::FarmReport report = run_fresh(jobs, 2);
  ASSERT_EQ(report.jobs.size(), jobs.size());
  for (std::size_t i = 0; i + 1 < jobs.size(); ++i) {
    const farm::JobRecord& j = report.jobs[i];
    EXPECT_EQ(j.result.status, farm::JobStatus::failed)
        << "'" << j.spec.machine << "' seed " << j.spec.seed;
    EXPECT_NE(j.result.error.find("unknown"), std::string::npos) << j.result.error;
  }
  EXPECT_EQ(report.jobs.back().result.status, farm::JobStatus::ok)
      << report.jobs.back().result.error;
}

// -- result cache -------------------------------------------------------------

TEST(FarmCache, RerunningTheSameGridDoesZeroSimulationWork) {
  const std::vector<farm::JobSpec> jobs = mixed_grid();
  farm::SimFarm sim_farm;
  const farm::FarmReport first = sim_farm.run(jobs);
  ASSERT_EQ(first.count(farm::JobStatus::ok), jobs.size());
  const std::uint64_t executed_after_first = sim_farm.executed();
  EXPECT_EQ(executed_after_first, jobs.size());
  EXPECT_EQ(sim_farm.cache_hits(), 0u);

  const farm::FarmReport second = sim_farm.run(jobs);
  EXPECT_EQ(sim_farm.executed(), executed_after_first);  // zero new work
  EXPECT_EQ(sim_farm.cache_hits(), jobs.size());
  for (const farm::JobRecord& job : second.jobs) {
    EXPECT_TRUE(job.result.cached) << job.spec.machine;
    EXPECT_EQ(job.result.status, farm::JobStatus::ok) << job.spec.machine;
  }
  EXPECT_EQ(first.stable_json(), second.stable_json());
}

TEST(FarmCache, FailedJobsAreNotCached) {
  farm::JobSpec thrower;
  thrower.machine = farm::kThrowJobKey;
  farm::SimFarm sim_farm;
  sim_farm.run({thrower});
  const farm::FarmReport again = sim_farm.run({thrower});
  ASSERT_EQ(again.jobs.size(), 1u);
  EXPECT_FALSE(again.jobs[0].result.cached);
  EXPECT_EQ(sim_farm.executed(), 2u);
  EXPECT_EQ(sim_farm.cache_hits(), 0u);
}

// Regression: two fuzz jobs differing only in cycle-budget truncation are
// different simulations and must never share a cache entry — before the
// budget was canonicalized into the job key, the truncated job could be
// served the cached full-run result.
TEST(FarmCache, CycleBudgetTruncationIsPartOfTheCacheIdentity) {
  const unsigned seed = 7;
  core::EngineOptions opts;
  opts.backend = core::Backend::compiled;
  const machines::GoldenRunResult full = machines::golden_run_fuzz(seed, opts);
  const std::uint64_t n = full.stats.cycles;
  ASSERT_GT(n, 1u);

  const farm::JobSpec full_spec = fuzz_spec(seed, 0);
  const farm::JobSpec cut_spec = fuzz_spec(seed, n / 2);
  EXPECT_NE(farm::job_hash(full_spec), farm::job_hash(cut_spec));

  farm::SimFarm sim_farm;
  const farm::FarmReport first = sim_farm.run({full_spec});
  ASSERT_EQ(first.jobs[0].result.status, farm::JobStatus::ok)
      << first.jobs[0].result.error;

  // The truncated job must actually execute (no stale hit on the full-run
  // entry) and must not reproduce the full run's result: halving the budget
  // wedges the drain loop at the cap.
  const farm::FarmReport second = sim_farm.run({cut_spec});
  EXPECT_FALSE(second.jobs[0].result.cached);
  EXPECT_EQ(sim_farm.cache_hits(), 0u);
  EXPECT_EQ(second.jobs[0].result.status, farm::JobStatus::failed);
  EXPECT_NE(second.jobs[0].result.error.find("did not drain"), std::string::npos)
      << second.jobs[0].result.error;
}

// The flip side of budget canonicalization: budget values the execution
// cannot distinguish map to one identity (and one cache entry).
TEST(FarmCache, EquivalentBudgetsShareOneCacheEntry) {
  // fuzz: budget 0 means "the default drain cap" — same simulation as
  // spelling the cap out.
  EXPECT_EQ(farm::job_hash(fuzz_spec(3, 0)),
            farm::job_hash(fuzz_spec(3, machines::kFuzzDrainCap)));
  // golden machines ignore budgets entirely.
  farm::JobSpec budgeted = golden_spec("fig5");
  budgeted.cycle_budget = 12345;
  EXPECT_EQ(farm::job_hash(budgeted), farm::job_hash(golden_spec("fig5")));

  farm::SimFarm sim_farm;
  const farm::FarmReport first = sim_farm.run({fuzz_spec(3, 0)});
  ASSERT_EQ(first.jobs[0].result.status, farm::JobStatus::ok)
      << first.jobs[0].result.error;
  const farm::FarmReport again = sim_farm.run({fuzz_spec(3, machines::kFuzzDrainCap)});
  EXPECT_TRUE(again.jobs[0].result.cached);
  EXPECT_EQ(sim_farm.cache_hits(), 1u);
}

// -- report JSON --------------------------------------------------------------

TEST(FarmReportJson, CarriesSchemaAndPerJobIdentity) {
  const farm::FarmReport report = run_fresh({golden_spec("fig2")}, 1);
  const std::string json = report.to_json();
  EXPECT_NE(json.find("rcpn-farm-report/3"), std::string::npos);
  EXPECT_NE(json.find("\"machine\": \"fig2\""), std::string::npos);
  EXPECT_NE(json.find("\"status\": \"ok\""), std::string::npos);
  EXPECT_NE(json.find("\"digest\""), std::string::npos);
  // Timing-dependent blocks ride in to_json() only; the stable subset used
  // for N-vs-1-worker determinism comparison must not leak any of them.
  EXPECT_NE(json.find("\"telemetry\""), std::string::npos);
  EXPECT_NE(json.find("\"queue_wait_ms_mean\""), std::string::npos);
  EXPECT_NE(json.find("\"wall_ms_p95\""), std::string::npos);
  EXPECT_EQ(json.find("steal"), std::string::npos);  // dropped in schema /3
  const std::string stable = report.stable_json();
  EXPECT_EQ(stable.find("wall_ms"), std::string::npos);
  EXPECT_EQ(stable.find("\"workers\""), std::string::npos);
  EXPECT_EQ(stable.find("\"cached\""), std::string::npos);
  EXPECT_EQ(stable.find("\"telemetry\""), std::string::npos);
}

// -- aggregate percentiles ----------------------------------------------------

namespace {

/// A hand-built ok record with a pinned wall time, for percentile pinning.
farm::JobRecord ok_record(double wall_ms, bool cached = false) {
  farm::JobRecord rec;
  rec.spec = golden_spec("fig2");
  rec.result.status = farm::JobStatus::ok;
  rec.result.cached = cached;
  rec.result.wall_seconds = wall_ms * 1e-3;
  return rec;
}

}  // namespace

TEST(FarmAggregate, EmptyReportHasZeroSamplesAndZeroPercentiles) {
  const farm::FarmReport report;
  const farm::FarmAggregate a = report.aggregate();
  EXPECT_EQ(a.jobs, 0u);
  EXPECT_EQ(a.wall_samples, 0u);
  EXPECT_EQ(a.wall_ms_p50, 0.0);
  EXPECT_EQ(a.wall_ms_p95, 0.0);
  EXPECT_EQ(a.wall_ms_max, 0.0);
}

TEST(FarmAggregate, FailedAndCachedJobsContributeNoWallSamples) {
  farm::FarmReport report;
  farm::JobRecord failed;
  failed.spec = golden_spec("fig2");
  failed.result.status = farm::JobStatus::failed;
  failed.result.wall_seconds = 5.0;  // failure latency is not simulation cost
  report.jobs.push_back(failed);
  farm::JobRecord timed_out = failed;
  timed_out.result.status = farm::JobStatus::timeout;
  report.jobs.push_back(timed_out);
  report.jobs.push_back(ok_record(7.0, /*cached=*/true));

  const farm::FarmAggregate a = report.aggregate();
  EXPECT_EQ(a.jobs, 3u);
  EXPECT_EQ(a.failed, 1u);
  EXPECT_EQ(a.timeout, 1u);
  EXPECT_EQ(a.cached, 1u);
  EXPECT_EQ(a.wall_samples, 0u);
  EXPECT_EQ(a.wall_ms_p50, 0.0);
  EXPECT_EQ(a.wall_ms_p95, 0.0);
  EXPECT_EQ(a.wall_ms_max, 0.0);
}

TEST(FarmAggregate, NearestRankPercentilesArePinned) {
  farm::FarmReport report;
  for (int ms = 10; ms >= 1; --ms)  // reverse order: aggregate() must sort
    report.jobs.push_back(ok_record(static_cast<double>(ms)));
  const farm::FarmAggregate a = report.aggregate();
  EXPECT_EQ(a.wall_samples, 10u);
  // Nearest-rank over sorted {1..10}: p50 -> index 5 (6ms), p95 -> index 9.
  EXPECT_DOUBLE_EQ(a.wall_ms_p50, 6.0);
  EXPECT_DOUBLE_EQ(a.wall_ms_p95, 10.0);
  EXPECT_DOUBLE_EQ(a.wall_ms_max, 10.0);
}

// -- telemetry ----------------------------------------------------------------

TEST(FarmTelemetry, CountsExecutionsStealsAndWorkerSlots) {
  const std::vector<farm::JobSpec> jobs = mixed_grid();
  const farm::FarmReport report = run_fresh(jobs, 3);
  const farm::FarmTelemetry& t = report.telemetry;
  EXPECT_EQ(t.executed + t.cache_hits, jobs.size());
  EXPECT_EQ(t.cache_hits, 0u);  // fresh farm, nothing cached
  EXPECT_EQ(t.timeouts, 0u);
  EXPECT_EQ(t.steals, 0u);  // one shared job cursor: nothing to steal
  ASSERT_EQ(t.workers.size(), 3u);
  std::size_t per_worker_jobs = 0;
  for (const farm::WorkerTelemetry& w : t.workers) {
    per_worker_jobs += w.jobs;
    EXPECT_GE(w.busy_seconds, 0.0);
  }
  EXPECT_EQ(per_worker_jobs, t.executed);
  EXPECT_GE(t.queue_wait_ms_max, t.queue_wait_ms_mean);
}

TEST(FarmTelemetry, CacheHitsAreCountedPerRun) {
  const std::vector<farm::JobSpec> jobs = mixed_grid();
  farm::SimFarm sim_farm;
  const farm::FarmReport first = sim_farm.run(jobs);
  EXPECT_EQ(first.telemetry.executed, jobs.size());
  EXPECT_EQ(first.telemetry.cache_hits, 0u);
  const farm::FarmReport second = sim_farm.run(jobs);
  EXPECT_EQ(second.telemetry.executed, 0u);
  EXPECT_EQ(second.telemetry.cache_hits, jobs.size());
}

// -- progress callback --------------------------------------------------------

TEST(FarmProgress, CallbackSeesEveryJobExactlyOnce) {
  const std::vector<farm::JobSpec> jobs = mixed_grid();
  std::vector<int> seen(jobs.size(), 0);
  std::atomic<std::size_t> calls{0};
  farm::FarmOptions fo;
  fo.workers = 4;
  fo.on_job_done = [&](std::size_t done, std::size_t total, std::size_t index,
                       const farm::JobResult&) {
    ASSERT_LT(index, seen.size());
    ++seen[index];
    EXPECT_LE(done, total);
    ++calls;
  };
  farm::SimFarm sim_farm(std::move(fo));
  sim_farm.run(jobs);
  EXPECT_EQ(calls.load(), jobs.size());
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], 1) << "job " << i;
}

// An exception escaping a worker (here from the progress callback) must
// reach run()'s caller once the workers have joined, not end the process.
TEST(FarmProgress, ThrowingCallbackIsRethrownByRun) {
  farm::FarmOptions fo;
  fo.workers = 2;
  fo.on_job_done = [](std::size_t, std::size_t, std::size_t, const farm::JobResult&) {
    throw std::runtime_error("callback failed");
  };
  farm::SimFarm sim_farm(std::move(fo));
  EXPECT_THROW(sim_farm.run({golden_spec("fig2"), golden_spec("fig5")}), std::runtime_error);
}

// -- subprocess executor ------------------------------------------------------

namespace {
void noop_signal_handler(int) {}
}  // namespace

// Regression: the capture loop's blocking syscalls (poll/read, and the
// post-EOF waitpid — which by construction blocks until the exact moment the
// child's SIGCHLD arrives) must retry on EINTR. A no-SA_RESTART handler plus
// a 1ms interval timer keeps interrupting them; before the retry fix, a
// perfectly healthy child was reported as spawn_failed (waitpid EINTR) or
// with a truncated capture (read EINTR treated as EOF).
TEST(FarmSubprocess, CaptureSurvivesSignalInterruptions) {
  char tmpl[] = "/tmp/rcpn_eintr_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  const std::string script = dir + "/gen_fs_eintrtest";
  {
    // A fake gen_fs_* binary: dribbles a valid golden trace (so reads happen
    // mid-run), closes stdout, then lingers so the parent sits in waitpid
    // while timer signals land.
    std::ofstream out(script);
    out << "#!/bin/sh\n"
           "printf '# eintrtest golden cycle-stamped retire trace: cycle pc(hex) seq\\n'\n"
           "i=0\n"
           "while [ $i -lt 40 ]; do\n"
           "  printf '%d 0 %d\\n' $((i+1)) $i\n"
           "  i=$((i+1))\n"
           "  if [ $((i % 10)) -eq 0 ]; then sleep 0.02; fi\n"
           "done\n"
           "printf '# stats cycles=50 retired=40 fetched=40 squashed=0 "
           "reservations=0 firings=80\\n'\n"
           "exec >&- 2>&-\n"
           "sleep 0.25\n";
  }
  ASSERT_EQ(::chmod(script.c_str(), 0755), 0);

  struct sigaction sa{}, old_alrm{}, old_chld{};
  sa.sa_handler = &noop_signal_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // deliberately no SA_RESTART
  ASSERT_EQ(::sigaction(SIGALRM, &sa, &old_alrm), 0);
  ASSERT_EQ(::sigaction(SIGCHLD, &sa, &old_chld), 0);
  itimerval timer{};
  timer.it_interval.tv_usec = 1000;
  timer.it_value.tv_usec = 1000;
  itimerval old_timer{};
  ASSERT_EQ(::setitimer(ITIMER_REAL, &timer, &old_timer), 0);

  farm::JobSpec spec;
  spec.machine = "eintrtest";
  spec.options.backend = core::Backend::generated;  // no extra CLI flags
  const farm::JobResult result = farm::run_subprocess(spec, 10000, dir);

  ::setitimer(ITIMER_REAL, &old_timer, nullptr);
  ::sigaction(SIGALRM, &old_alrm, nullptr);
  ::sigaction(SIGCHLD, &old_chld, nullptr);
  std::remove(script.c_str());
  ::rmdir(dir.c_str());

  ASSERT_EQ(result.status, farm::JobStatus::ok) << result.error;
  EXPECT_EQ(result.retired, 40u);
  EXPECT_EQ(result.stats.cycles, 50u);
  EXPECT_EQ(result.exit_code, 0);
}

// Regression: a child killed mid-fprintf — its final trace line cut off
// without a newline — must degrade to a failed job carrying the output tail,
// and the rest of the grid must keep running. Before the subprocess
// executor was exception-contained, anything thrown past it would
// std::terminate the whole farm.
TEST(FarmSubprocess, ChildKilledMidLineFailsTheJobNotTheGrid) {
  char tmpl[] = "/tmp/rcpn_midkill_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  const std::string script = dir + "/gen_fs_midkill";
  {
    // A fake gen_fs_* binary that dies by SIGKILL in the middle of writing a
    // trace line (no newline, no stats record).
    std::ofstream out(script);
    out << "#!/bin/sh\n"
           "printf '# midkill golden cycle-stamped retire trace: cycle pc(hex) seq\\n'\n"
           "printf '1 0 0\\n2 4 1\\n'\n"
           "printf '3 8 '\n"
           "kill -9 $$\n";
  }
  ASSERT_EQ(::chmod(script.c_str(), 0755), 0);

  farm::JobSpec victim;
  victim.machine = "midkill";
  victim.options.backend = core::Backend::generated;
  victim.executor = farm::ExecutorKind::subprocess;

  farm::FarmOptions fo;
  fo.workers = 2;
  fo.bin_dir = dir;
  farm::SimFarm sim_farm(std::move(fo));
  // The in-process fig2 job rides along: the farm must complete it normally
  // around the dying child.
  const farm::FarmReport report = sim_farm.run({victim, golden_spec("fig2")});

  std::remove(script.c_str());
  ::rmdir(dir.c_str());

  ASSERT_EQ(report.jobs.size(), 2u);
  EXPECT_EQ(report.jobs[0].result.status, farm::JobStatus::failed);
  EXPECT_EQ(report.jobs[0].result.exit_code, 128 + SIGKILL);
  // The failure carries the tail of what the child managed to write,
  // including the torn final line.
  EXPECT_NE(report.jobs[0].result.error.find("3 8"), std::string::npos)
      << report.jobs[0].result.error;
  EXPECT_EQ(report.jobs[1].result.status, farm::JobStatus::ok)
      << report.jobs[1].result.error;
}

// A child SIGKILLed at its deadline is a `timeout` result, and the farm's
// telemetry counts it like an in-process timeout.
TEST(FarmSubprocess, KilledChildIsCountedAsATimeout) {
  char tmpl[] = "/tmp/rcpn_sleeper_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  const std::string script = dir + "/gen_fs_sleeper";
  std::ofstream(script) << "#!/bin/sh\nexec sleep 5\n";
  ASSERT_EQ(::chmod(script.c_str(), 0755), 0);

  farm::JobSpec spec;
  spec.machine = "sleeper";
  spec.options.backend = core::Backend::generated;
  spec.executor = farm::ExecutorKind::subprocess;
  spec.timeout_ms = 100;
  farm::FarmOptions fo;
  fo.workers = 1;
  fo.bin_dir = dir;
  farm::SimFarm sim_farm(std::move(fo));
  const farm::FarmReport report = sim_farm.run({spec});

  std::remove(script.c_str());
  ::rmdir(dir.c_str());

  ASSERT_EQ(report.jobs.size(), 1u);
  EXPECT_EQ(report.jobs[0].result.status, farm::JobStatus::timeout)
      << report.jobs[0].result.error;
  EXPECT_EQ(report.telemetry.timeouts, 1u);
  EXPECT_EQ(report.aggregate().timeout, 1u);
}

// -- resume-from-checkpoint jobs ----------------------------------------------

// A JobSpec with resume_checkpoint set runs the tail of the checkpointed run;
// the result (trace prefix + remainder) must carry the straight run's digest.
// The snapshot is written by the interpreted engine and resumed under the
// spec's compiled backend — backend is not checkpoint identity.
TEST(FarmResume, InProcessResumeMatchesStraightRunDigest) {
  const std::string path = "/tmp/rcpn_farm_resume_run.ckpt";
  {
    core::EngineOptions wo;
    wo.backend = core::Backend::interpreted;
    auto writer = machines::make_golden_session("fig5", wo);
    writer->advance(7);
    std::ofstream(path, std::ios::binary) << machines::write_checkpoint(*writer);
  }

  farm::JobSpec spec = golden_spec("fig5");
  spec.resume_checkpoint = path;
  const farm::JobResult r = farm::run_in_process(spec, 30000);
  std::remove(path.c_str());

  ASSERT_EQ(r.status, farm::JobStatus::ok) << r.error;
  const machines::GoldenRunResult direct =
      machines::run_golden_machine_full("fig5", spec.options);
  EXPECT_EQ(r.digest, farm::trace_digest(direct.trace));
  EXPECT_EQ(r.retired, direct.trace.size());
  EXPECT_EQ(r.stats.cycles, direct.stats.cycles);
}

// The checkpoint's identity is its content (like .rcpn description jobs):
// editing the file must miss the cache, and a job without a checkpoint has
// no ckpt field at all.
TEST(FarmResume, CheckpointContentIsPartOfTheJobIdentity) {
  const std::string path = "/tmp/rcpn_farm_resume_key.ckpt";
  farm::JobSpec spec = golden_spec("fig5");
  spec.resume_checkpoint = path;

  std::ofstream(path) << "rcpn-ckpt/1\nA\n";
  const std::uint64_t h1 = farm::job_hash(spec);
  EXPECT_NE(farm::job_key(spec).find(";ckpt="), std::string::npos);
  std::ofstream(path) << "rcpn-ckpt/1\nB\n";
  EXPECT_NE(farm::job_hash(spec), h1);

  std::remove(path.c_str());
  EXPECT_NE(farm::job_key(spec).find("ckpt=missing"), std::string::npos);
  EXPECT_EQ(farm::job_key(golden_spec("fig5")).find(";ckpt="), std::string::npos);
}

TEST(FarmResume, UnreadableCheckpointFailsTheJobNotTheFarm) {
  farm::JobSpec spec = golden_spec("fig5");
  spec.resume_checkpoint = "/nonexistent/resume.ckpt";
  const farm::FarmReport report = run_fresh({spec}, 1);
  ASSERT_EQ(report.jobs.size(), 1u);
  EXPECT_EQ(report.jobs[0].result.status, farm::JobStatus::failed);
  EXPECT_NE(report.jobs[0].result.error.find("cannot read checkpoint"),
            std::string::npos)
      << report.jobs[0].result.error;
}

// The generic fuzz artifact CLI has no --restore; silently dropping the flag
// would run (and cache) the wrong simulation, so the subprocess executor
// refuses fuzz resume jobs loudly.
TEST(FarmResume, SubprocessFuzzResumeIsRefusedLoudly) {
  farm::JobSpec spec = fuzz_spec(3);
  spec.executor = farm::ExecutorKind::subprocess;
  spec.resume_checkpoint = "/tmp/whatever.ckpt";
  const farm::JobResult r = farm::run_subprocess(spec, 1000, "/nonexistent");
  EXPECT_EQ(r.status, farm::JobStatus::failed);
  EXPECT_NE(r.error.find("use in-process"), std::string::npos) << r.error;
}

// A checkpoint names a compiled-in machine key, not a description: resuming
// a described model must be a loud failure, not a silent straight run.
TEST(FarmResume, DescriptionResumeIsRefused) {
  farm::JobSpec spec = golden_spec("/tmp/any_model.rcpn");
  spec.resume_checkpoint = "/tmp/whatever.ckpt";
  const farm::JobResult r = farm::run_in_process(spec, 1000);
  EXPECT_EQ(r.status, farm::JobStatus::failed);
  EXPECT_NE(r.error.find("cannot resume"), std::string::npos) << r.error;
}

#ifdef RCPN_HAVE_FS_BINARIES

TEST(FarmSubprocess, FreestandingDigestsMatchInProcessForEveryMachine) {
  std::vector<farm::JobSpec> jobs;
  for (const std::string& key : machines::golden_machine_keys()) {
    jobs.push_back(golden_spec(key));  // in-process, compiled backend
    farm::JobSpec sub = golden_spec(key);
    sub.executor = farm::ExecutorKind::subprocess;
    sub.options.backend = core::Backend::generated;  // the stamped fast path
    jobs.push_back(sub);
  }

  farm::FarmOptions fo;
  fo.workers = 4;
  fo.bin_dir = RCPN_BIN_DIR;
  farm::SimFarm sim_farm(std::move(fo));
  const farm::FarmReport report = sim_farm.run(jobs);

  ASSERT_EQ(report.jobs.size(), jobs.size());
  for (std::size_t i = 0; i + 1 < report.jobs.size(); i += 2) {
    const farm::JobRecord& in_proc = report.jobs[i];
    const farm::JobRecord& sub = report.jobs[i + 1];
    ASSERT_EQ(in_proc.result.status, farm::JobStatus::ok)
        << in_proc.spec.machine << ": " << in_proc.result.error;
    ASSERT_EQ(sub.result.status, farm::JobStatus::ok)
        << sub.spec.machine << ": " << sub.result.error;
    EXPECT_EQ(sub.result.digest, in_proc.result.digest) << sub.spec.machine;
    EXPECT_EQ(sub.result.retired, in_proc.result.retired) << sub.spec.machine;
    EXPECT_EQ(sub.result.stats.cycles, in_proc.result.stats.cycles)
        << sub.spec.machine;
  }
}

// Golden resume jobs under the subprocess executor pass --restore to the
// freestanding binary; the checkpoint written by this linked build's
// interpreted engine restores in the child and the digest matches the
// straight run.
TEST(FarmResume, SubprocessGoldenResumeRestoresInTheFreestandingChild) {
  const std::string path = "/tmp/rcpn_farm_resume_sub.ckpt";
  {
    core::EngineOptions wo;
    wo.backend = core::Backend::interpreted;
    auto writer = machines::make_golden_session("fig5", wo);
    writer->advance(7);
    std::ofstream(path, std::ios::binary) << machines::write_checkpoint(*writer);
  }

  farm::JobSpec spec = golden_spec("fig5");
  spec.executor = farm::ExecutorKind::subprocess;
  spec.options.backend = core::Backend::generated;
  spec.resume_checkpoint = path;
  farm::FarmOptions fo;
  fo.bin_dir = RCPN_BIN_DIR;
  farm::SimFarm sim_farm(std::move(fo));
  const farm::FarmReport report = sim_farm.run({spec});
  std::remove(path.c_str());

  ASSERT_EQ(report.jobs.size(), 1u);
  ASSERT_EQ(report.jobs[0].result.status, farm::JobStatus::ok)
      << report.jobs[0].result.error;
  core::EngineOptions direct_opts;
  direct_opts.backend = core::Backend::compiled;
  const machines::GoldenRunResult direct =
      machines::run_golden_machine_full("fig5", direct_opts);
  EXPECT_EQ(report.jobs[0].result.digest, farm::trace_digest(direct.trace));
  EXPECT_EQ(report.jobs[0].result.retired, direct.trace.size());
}

// The subprocess side of TimeoutBeyondTheClockRangeMeansNoDeadline: the
// child is not killed at once but runs to completion.
TEST(FarmSubprocess, TimeoutBeyondTheClockRangeMeansNoDeadline) {
  farm::JobSpec spec = golden_spec("fig2");
  spec.executor = farm::ExecutorKind::subprocess;
  spec.options.backend = core::Backend::generated;
  spec.timeout_ms = std::numeric_limits<std::uint64_t>::max();
  farm::FarmOptions fo;
  fo.bin_dir = RCPN_BIN_DIR;
  farm::SimFarm sim_farm(std::move(fo));
  const farm::FarmReport report = sim_farm.run({spec});
  ASSERT_EQ(report.jobs.size(), 1u);
  EXPECT_EQ(report.jobs[0].result.status, farm::JobStatus::ok)
      << report.jobs[0].result.error;
}

TEST(FarmSubprocess, MissingBinaryFailsTheJobWithExitCode127) {
  farm::JobSpec spec = golden_spec("no_such_binary");
  spec.executor = farm::ExecutorKind::subprocess;
  spec.options.backend = core::Backend::generated;
  farm::FarmOptions fo;
  fo.bin_dir = RCPN_BIN_DIR;
  farm::SimFarm sim_farm(std::move(fo));
  const farm::FarmReport report = sim_farm.run({spec});
  ASSERT_EQ(report.jobs.size(), 1u);
  EXPECT_EQ(report.jobs[0].result.status, farm::JobStatus::failed);
  EXPECT_EQ(report.jobs[0].result.exit_code, 127);
}

#endif  // RCPN_HAVE_FS_BINARIES

// -- serialized model descriptions (.rcpn jobs) -------------------------------

#ifdef RCPN_MODELS_DIR
TEST(FarmDescription, RcpnJobRunsInProcessAndMatchesTheDirectRun) {
  const farm::JobSpec spec = golden_spec(std::string(RCPN_MODELS_DIR) + "/fig5.rcpn");
  const farm::JobResult r = farm::run_in_process(spec, 30000);
  ASSERT_EQ(r.status, farm::JobStatus::ok) << r.error;
  const machines::GoldenRunResult direct =
      machines::run_golden_machine_full("fig5", spec.options);
  EXPECT_EQ(r.digest, farm::trace_digest(direct.trace));
  EXPECT_EQ(r.retired, direct.trace.size());
}

TEST(FarmDescription, JobKeyFoldsTheFileContentNotJustThePath) {
  const std::string path = "/tmp/rcpn_farm_desc_test.rcpn";
  const farm::JobSpec spec = golden_spec(path);

  std::ofstream(path) << "rcpn-model/1\nmodel A\n";
  const std::uint64_t h1 = farm::job_hash(spec);
  // Same path, different content: editing a description must miss the cache.
  std::ofstream(path) << "rcpn-model/1\nmodel B\n";
  const std::uint64_t h2 = farm::job_hash(spec);
  EXPECT_NE(h1, h2);

  std::remove(path.c_str());
  const std::uint64_t h3 = farm::job_hash(spec);
  EXPECT_NE(h3, h1);
  EXPECT_NE(h3, h2);
  EXPECT_NE(farm::job_key(spec).find("desc=missing"), std::string::npos);
}

TEST(FarmDescription, SubprocessExecutorRejectsDescriptionJobs) {
  const farm::JobSpec spec = golden_spec(std::string(RCPN_MODELS_DIR) + "/fig2.rcpn");
  const farm::JobResult r = farm::run_subprocess(spec, 1000, "/nonexistent");
  EXPECT_EQ(r.status, farm::JobStatus::failed);
  EXPECT_NE(r.error.find("in-process"), std::string::npos) << r.error;
}
#endif  // RCPN_MODELS_DIR
