// rcpn_farm — sweep-grid driver for farm::SimFarm.
//
// Builds a job grid (machines x schedule variants x seeds x executors), runs
// it on a pool of worker threads sharing one job cursor, prints per-job
// progress and the aggregate, and optionally writes the machine-readable
// FarmReport JSON.
//
//   rcpn_farm                          default grid, hardware_concurrency workers
//   rcpn_farm --verify                 run the grid serially AND in parallel,
//                                      require identical stable reports, print
//                                      the speedup
//   rcpn_farm --inject-hang --inject-throw
//                                      add one hanging and one throwing job;
//                                      the farm must report them as
//                                      timeout/failed while the rest succeed
//   rcpn_farm --json FILE              write the full report JSON
//
// Grid knobs: --machines a,b,c  --variants default,twolist,linear,nostateref
// --seeds N  --executors in_process,subprocess  --cycles N (fuzz budget)
// --workers N  --timeout-ms N  --bin-dir DIR  --quiet
//
// --progress prints a once-per-second heartbeat line to stderr (done/total,
// percentage, elapsed) — the machine-parseable liveness signal for CI logs
// that would otherwise sit silent for the whole sweep. Combines with --quiet
// (heartbeat only, no per-job lines).
//
// The default seed count honours REPRO_SCALE (the repo-wide CI scaling knob):
// seeds = max(1, round(4 * REPRO_SCALE)).
//
// Exit status: 0 iff every non-injected job is ok, every injected job failed
// the way it was meant to (hang -> timeout, throw -> failed), and --verify
// (if given) found the serial and parallel reports identical.
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "farm/sim_farm.hpp"
#include "machines/golden_runner.hpp"

using namespace rcpn;

namespace {

struct CliOptions {
  std::vector<std::string> machines;   // default: the five golden keys
  std::vector<std::string> variants = {"default", "twolist"};
  std::vector<std::string> executors = {"in_process", "subprocess"};
  std::size_t seeds = 0;               // 0 = REPRO_SCALE-scaled default (4)
  std::uint64_t cycle_budget = 0;      // fuzz machines only
  unsigned workers = 0;                // 0 = hardware_concurrency
  std::uint64_t timeout_ms = 30000;
  std::string json_path;
  std::string bin_dir;
  bool inject_hang = false;
  bool inject_throw = false;
  bool verify = false;
  bool quiet = false;
  bool progress = false;
};

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    const std::string item = s.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

std::size_t scaled_default_seeds() {
  double scale = 1.0;
  if (const char* env = std::getenv("REPRO_SCALE")) {
    const double v = std::atof(env);
    if (v > 0.0) scale = v;
  }
  const long n = std::lround(4.0 * scale);
  return static_cast<std::size_t>(n < 1 ? 1 : n);
}

[[noreturn]] void usage_error(const char* msg) {
  std::fprintf(stderr,
               "rcpn_farm: %s\n"
               "usage: rcpn_farm [--machines a,b,...] [--variants "
               "default,twolist,linear,nostateref]\n"
               "                 [--executors in_process,subprocess] [--seeds N] "
               "[--cycles N]\n"
               "                 [--workers N] [--timeout-ms N] [--bin-dir DIR] "
               "[--json FILE]\n"
               "                 [--inject-hang] [--inject-throw] [--verify] "
               "[--quiet] [--progress]\n",
               msg);
  std::exit(2);
}

CliOptions parse_cli(int argc, char** argv) {
  CliOptions cli;
  const auto value = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage_error("missing value for flag");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--machines") cli.machines = split_csv(value(i));
    else if (a == "--variants") cli.variants = split_csv(value(i));
    else if (a == "--executors") cli.executors = split_csv(value(i));
    else if (a == "--seeds") cli.seeds = std::strtoull(value(i), nullptr, 10);
    else if (a == "--cycles") cli.cycle_budget = std::strtoull(value(i), nullptr, 10);
    else if (a == "--workers")
      cli.workers = static_cast<unsigned>(std::strtoul(value(i), nullptr, 10));
    else if (a == "--timeout-ms") cli.timeout_ms = std::strtoull(value(i), nullptr, 10);
    else if (a == "--json") cli.json_path = value(i);
    else if (a == "--bin-dir") cli.bin_dir = value(i);
    else if (a == "--inject-hang") cli.inject_hang = true;
    else if (a == "--inject-throw") cli.inject_throw = true;
    else if (a == "--verify") cli.verify = true;
    else if (a == "--quiet") cli.quiet = true;
    else if (a == "--progress") cli.progress = true;
    else usage_error(("unknown flag '" + a + "'").c_str());
  }
  if (cli.machines.empty()) cli.machines = machines::golden_machine_keys();
  if (cli.seeds == 0) cli.seeds = scaled_default_seeds();
  if (cli.variants.empty() || cli.executors.empty())
    usage_error("--variants/--executors must name at least one entry");
  return cli;
}

/// Apply a named schedule variant. The default variant runs the generated
/// backend in subprocess jobs (the freestanding binaries are stamped for the
/// default schedule) and the compiled backend in-process (this binary links
/// no registered generated engines); every ablation variant changes the
/// schedule, so both executors fall back to the compiled backend for it.
core::EngineOptions variant_options(const std::string& variant,
                                    farm::ExecutorKind executor) {
  core::EngineOptions options;
  options.backend = variant == "default" && executor == farm::ExecutorKind::subprocess
                        ? core::Backend::generated
                        : core::Backend::compiled;
  if (variant == "default") return options;
  if (variant == "twolist") options.force_two_list_all = true;
  else if (variant == "linear") options.linear_search = true;
  else if (variant == "nostateref") options.two_list_state_refs = false;
  else usage_error(("unknown variant '" + variant + "'").c_str());
  return options;
}

farm::ExecutorKind executor_kind(const std::string& name) {
  if (name == "in_process") return farm::ExecutorKind::in_process;
  if (name == "subprocess") return farm::ExecutorKind::subprocess;
  usage_error(("unknown executor '" + name + "'").c_str());
}

std::vector<farm::JobSpec> build_grid(const CliOptions& cli) {
  std::vector<farm::JobSpec> jobs;
  for (const std::string& machine : cli.machines)
    for (const std::string& variant : cli.variants)
      for (const std::string& executor : cli.executors)
        for (std::uint64_t seed = 0; seed < cli.seeds; ++seed) {
          farm::JobSpec spec;
          spec.machine = machine;
          spec.executor = executor_kind(executor);
          spec.options = variant_options(variant, spec.executor);
          spec.seed = seed;
          spec.cycle_budget = cli.cycle_budget;
          spec.timeout_ms = cli.timeout_ms;
          jobs.push_back(std::move(spec));
        }
  if (cli.inject_throw) {
    farm::JobSpec spec;
    spec.machine = farm::kThrowJobKey;
    spec.timeout_ms = cli.timeout_ms;
    jobs.push_back(std::move(spec));
  }
  if (cli.inject_hang) {
    farm::JobSpec spec;
    spec.machine = farm::kHangJobKey;
    spec.timeout_ms = 300;  // short fuse: the job sleeps out its own deadline
    jobs.push_back(std::move(spec));
  }
  return jobs;
}

farm::FarmReport run_grid(const CliOptions& cli, const std::vector<farm::JobSpec>& jobs,
                          unsigned workers) {
  farm::FarmOptions fo;
  fo.workers = workers;
  fo.default_timeout_ms = cli.timeout_ms;
  fo.bin_dir = cli.bin_dir;
  auto done_count = std::make_shared<std::atomic<std::size_t>>(0);
  if (!cli.quiet || cli.progress) {
    const bool per_job = !cli.quiet;
    fo.on_job_done = [&jobs, done_count, per_job](std::size_t done, std::size_t total,
                                                  std::size_t index,
                                                  const farm::JobResult& result) {
      done_count->store(done, std::memory_order_relaxed);
      if (!per_job) return;
      const farm::JobSpec& spec = jobs[index];
      std::printf("[%3zu/%zu] %-7s %-14s %-11s seed=%llu %s%.1fms%s%s\n", done, total,
                  farm::job_status_name(result.status), spec.machine.c_str(),
                  farm::executor_name(spec.executor),
                  static_cast<unsigned long long>(spec.seed),
                  result.cached ? "(cached) " : "", result.wall_seconds * 1e3,
                  result.error.empty() ? "" : " — ", result.error.c_str());
      std::fflush(stdout);
    };
  }
  farm::SimFarm sim_farm(std::move(fo));

  // --progress: a once-per-second heartbeat on stderr, independent of the
  // per-job lines — CI liveness without per-job log volume.
  std::atomic<bool> heartbeat_stop{false};
  std::thread heartbeat;
  if (cli.progress) {
    const std::size_t total = jobs.size();
    heartbeat = std::thread([&heartbeat_stop, done_count, total]() {
      const auto t0 = std::chrono::steady_clock::now();
      while (!heartbeat_stop.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1000));
        const std::size_t done = done_count->load(std::memory_order_relaxed);
        const double elapsed =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                .count();
        std::fprintf(stderr, "progress: %zu/%zu jobs (%.0f%%) elapsed=%.1fs\n",
                     done, total,
                     total == 0 ? 100.0 : 100.0 * static_cast<double>(done) /
                                              static_cast<double>(total),
                     elapsed);
      }
    });
  }
  farm::FarmReport report = sim_farm.run(jobs);
  if (heartbeat.joinable()) {
    heartbeat_stop.store(true, std::memory_order_relaxed);
    heartbeat.join();
    std::fprintf(stderr, "progress: %zu/%zu jobs (100%%) done\n", jobs.size(),
                 jobs.size());
  }
  return report;
}

void print_aggregate(const farm::FarmReport& report) {
  const farm::FarmAggregate a = report.aggregate();
  std::printf(
      "\n%zu jobs on %u workers in %.2fs: %zu ok, %zu failed, %zu timeout, "
      "%zu cached\n"
      "total simulated: %llu cycles, %llu retired; per-job wall ms "
      "p50=%.1f p95=%.1f max=%.1f (%zu samples)\n",
      a.jobs, report.workers, report.wall_seconds, a.ok, a.failed, a.timeout, a.cached,
      static_cast<unsigned long long>(a.total_cycles),
      static_cast<unsigned long long>(a.total_retired), a.wall_ms_p50, a.wall_ms_p95,
      a.wall_ms_max, a.wall_samples);

  const farm::FarmTelemetry& t = report.telemetry;
  double busy = 0.0;
  for (const farm::WorkerTelemetry& w : t.workers) busy += w.busy_seconds;
  const double capacity = report.wall_seconds * static_cast<double>(t.workers.size());
  std::printf(
      "telemetry: %zu executed, %zu cache hits, %zu timeouts\n"
      "           utilization %.0f%% (busy %.2fs / capacity %.2fs), queue wait "
      "mean=%.1fms max=%.1fms\n",
      t.executed, t.cache_hits, t.timeouts,
      capacity > 0.0 ? 100.0 * busy / capacity : 0.0, busy, capacity,
      t.queue_wait_ms_mean, t.queue_wait_ms_max);
}

/// First line where the two texts differ, for the --verify failure message.
void print_first_diff(const std::string& a, const std::string& b) {
  std::size_t pos_a = 0, pos_b = 0;
  for (int line = 1;; ++line) {
    const std::size_t end_a = a.find('\n', pos_a);
    const std::size_t end_b = b.find('\n', pos_b);
    const std::string la = a.substr(pos_a, end_a - pos_a);
    const std::string lb = b.substr(pos_b, end_b - pos_b);
    if (la != lb) {
      std::fprintf(stderr, "first divergence at line %d:\n  serial:   %s\n  parallel: %s\n",
                   line, la.c_str(), lb.c_str());
      return;
    }
    if (end_a == std::string::npos || end_b == std::string::npos) return;
    pos_a = end_a + 1;
    pos_b = end_b + 1;
  }
}

/// A job's outcome is as intended: injected fault keys must fail their
/// designated way; everything else must succeed.
bool outcome_expected(const farm::JobRecord& job) {
  if (job.spec.machine == farm::kHangJobKey)
    return job.result.status == farm::JobStatus::timeout;
  if (job.spec.machine == farm::kThrowJobKey)
    return job.result.status == farm::JobStatus::failed;
  return job.result.status == farm::JobStatus::ok;
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions cli = parse_cli(argc, argv);
  const std::vector<farm::JobSpec> jobs = build_grid(cli);
  std::printf("rcpn_farm: %zu jobs (%zu machines x %zu variants x %zu executors x "
              "%zu seeds%s%s)\n",
              jobs.size(), cli.machines.size(), cli.variants.size(),
              cli.executors.size(), cli.seeds, cli.inject_throw ? " + throw" : "",
              cli.inject_hang ? " + hang" : "");

  // The serial baseline runs FIRST so the parallel run is not the one paying
  // the cold-start costs (binary page-ins, allocator warm-up) — the speedup
  // comparison is then work-vs-work.
  farm::FarmReport serial;
  if (cli.verify) {
    std::printf("--verify: serial baseline on 1 worker...\n");
    CliOptions serial_cli = cli;
    serial_cli.quiet = true;
    serial = run_grid(serial_cli, jobs, 1);
  }

  farm::FarmReport report = run_grid(cli, jobs, cli.workers);
  print_aggregate(report);

  bool ok = true;
  for (const farm::JobRecord& job : report.jobs) {
    if (outcome_expected(job)) continue;
    ok = false;
    std::fprintf(stderr, "unexpected outcome: %s -> %s%s%s\n",
                 farm::job_key(job.spec).c_str(),
                 farm::job_status_name(job.result.status),
                 job.result.error.empty() ? "" : ": ", job.result.error.c_str());
  }

  if (cli.verify) {
    const std::string stable_parallel = report.stable_json();
    const std::string stable_serial = serial.stable_json();
    if (stable_serial == stable_parallel) {
      const double speedup =
          report.wall_seconds > 0.0 ? serial.wall_seconds / report.wall_seconds : 0.0;
      std::printf("verify OK: serial and parallel reports identical; "
                  "serial %.2fs vs parallel %.2fs on %u workers (%.2fx)\n",
                  serial.wall_seconds, report.wall_seconds, report.workers, speedup);
    } else {
      ok = false;
      std::fprintf(stderr, "verify FAILED: serial and parallel reports differ\n");
      print_first_diff(stable_serial, stable_parallel);
    }
  }

  if (!cli.json_path.empty()) {
    std::ofstream out(cli.json_path);
    out << report.to_json();
    if (!out) {
      ok = false;
      std::fprintf(stderr, "failed to write %s\n", cli.json_path.c_str());
    } else {
      std::printf("report written to %s\n", cli.json_path.c_str());
    }
  }

  return ok ? 0 : 1;
}
