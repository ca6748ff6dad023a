// `sweep`: a design-space sweep on SimFarm with the in-process executor.
//
// The grid covers the golden machines on the interpreted and compiled
// backends (plus StrongArm/XScale on the generated one), every models/*.rcpn
// description, checkpoint-resume jobs for every golden machine, and seeded
// fuzz models under a cycle budget. A batch submits every distinct
// simulation several times under fresh replicate seeds, in a seed-shuffled
// order, so thousands of short jobs run and none repeats a job hash; the
// result cache is disabled and must serve nothing. The replicate count of
// each job kind sets the batch's mix (kKinds). Each job must be `ok` and its
// trace digest, cycles and retired count must equal a serial 1-worker
// reference run of the same simulation.
#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>

#include "arm_sims.hpp"
#include "bench.hpp"
#include "desc/description.hpp"
#include "farm/sim_farm.hpp"
#include "ledger.hpp"
#include "machines/fuzz_model.hpp"
#include "machines/golden_runner.hpp"
#include "sweep.hpp"

namespace perfbench {

using namespace rcpn;

void FarmTotals::add(const farm::FarmReport& r) {
  const farm::FarmTelemetry& t = r.telemetry;
  executed += t.executed;
  cache_hits += t.cache_hits;
  timeouts += t.timeouts;
  steals += t.steals;
  queue_wait_ms_sum += t.queue_wait_ms_mean * static_cast<double>(t.executed);
  for (const farm::WorkerTelemetry& w : t.workers) busy_s += w.busy_seconds;
  capacity_s += static_cast<double>(r.workers) * r.wall_seconds;
}

void add_farm_metrics(const FarmTotals& t, Report& layers) {
  layers.add("farm.queue_wait_ms_mean",
             t.executed > 0 ? t.queue_wait_ms_sum / static_cast<double>(t.executed) : 0.0, "ms");
  layers.add("farm.utilization", t.capacity_s > 0.0 ? t.busy_s / t.capacity_s : 0.0, "ratio");
  layers.add("farm.steals", static_cast<double>(t.steals), "count");
  layers.add("farm.executed", static_cast<double>(t.executed), "count");
  layers.add("farm.cache_hits", static_cast<double>(t.cache_hits), "count");
  layers.add("farm.timeouts", static_cast<double>(t.timeouts), "count");
}

namespace {

constexpr const char* kModelFiles[] = {"fig2",     "fig5",   "stallcause",
                                       "strongarm", "tomasulo", "xscale"};
/// Checkpoint cycle per golden machine: inside each golden window.
struct CheckpointAt {
  const char* key;
  std::uint64_t cycle;
};
constexpr CheckpointAt kCheckpoints[] = {{"fig2", 32},         {"fig5", 10},
                                         {"tomasulo", 5},      {"strongarm_crc", 750},
                                         {"xscale_adpcm", 750}, {"stallcause", 6}};
constexpr int kFuzzModels = 240;
constexpr std::uint64_t kFuzzBudget = 25000;
constexpr int kMinBatches = 3;
constexpr int kWarmBatches = 3;

/// Job classes whose simulated cycles feed the mcps_* rates.
enum JobClass : int { sa_compiled, sa_generated, xs_compiled, xs_generated, kNumRated, other };
constexpr const char* kRatedMetric[kNumRated] = {"mcps_sa_compiled", "mcps_sa_generated",
                                                 "mcps_xs_compiled", "mcps_xs_generated"};

/// The four kinds of sweep job. Each distinct simulation of a kind is
/// submitted `replicas` times per batch.
enum JobKind : int { golden, description, resume, fuzz, kNumKinds };
struct KindInfo {
  const char* name;
  const char* span;
  int replicas;
};
/// There are ~40x more distinct fuzz simulations than of any other kind, so
/// the replicas even out the kinds' shares of a batch's job time (each kind
/// ~15-35%, printed by every run): a change to description loading or
/// checkpoint restore moves the end-to-end figures, not only the ledger.
constexpr KindInfo kKinds[kNumKinds] = {{"golden", "job.golden", 35},
                                        {"desc", "job.desc", 40},
                                        {"resume", "job.resume", 40},
                                        {"fuzz", "job.fuzz", 1}};

struct GridJob {
  farm::JobSpec spec;  // replicate seed 0
  JobKind kind = golden;
  int klass = other;
  // Filled by the reference run.
  std::uint64_t digest = 0, cycles = 0, retired = 0;
};

core::EngineOptions with_backend(core::Backend b) {
  core::EngineOptions o;
  o.backend = b;
  return o;
}

/// Set-up: description parsing, checkpoint writing, grid and farm
/// construction — everything before the first job runs.
struct SweepSetup {
  std::vector<GridJob> grid;
  std::unique_ptr<farm::SimFarm> farm;
};

SweepSetup make_sweep_setup(Context& ctx, const farm::FarmOptions& farm_options) {
  SweepSetup s;
  const core::Backend backends[] = {core::Backend::interpreted, core::Backend::compiled};
  for (const std::string& key : machines::golden_machine_keys())
    for (core::Backend b : backends) {
      GridJob j;
      j.spec.machine = key;
      j.spec.options = with_backend(b);
      if (b == core::Backend::compiled)
        j.klass = key == "strongarm_crc" ? sa_compiled : key == "xscale_adpcm" ? xs_compiled : other;
      s.grid.push_back(j);
    }
  for (const char* key : {"strongarm_crc", "xscale_adpcm"}) {
    GridJob j;
    j.spec.machine = key;
    j.spec.options = with_backend(core::Backend::generated);
    j.klass = std::string(key) == "strongarm_crc" ? sa_generated : xs_generated;
    s.grid.push_back(j);
  }
  for (const char* name : kModelFiles) {
    const std::string path = ctx.root + "/models/" + name + ".rcpn";
    {
      ScopedSpan span(ctx.tracer, "desc.read_file");
      desc::read_file(path);  // throws on a malformed description
    }
    for (core::Backend b : backends) {
      GridJob j;
      j.spec.machine = path;
      j.spec.options = with_backend(b);
      j.kind = description;
      s.grid.push_back(j);
    }
  }
  for (const CheckpointAt& c : kCheckpoints) {
    std::string text;
    {
      ScopedSpan span(ctx.tracer, "ckpt.save");
      std::unique_ptr<machines::GoldenSession> session =
          machines::make_golden_session(c.key, with_backend(core::Backend::compiled));
      session->advance(c.cycle);
      text = machines::write_checkpoint(*session);
    }
    const std::string path = ctx.work_dir + "/sweep_" + c.key + ".ckpt";
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
    if (!out.flush()) throw std::runtime_error("cannot write checkpoint " + path);
    for (core::Backend b : backends) {
      GridJob j;
      j.spec.machine = c.key;
      j.spec.options = with_backend(b);
      j.spec.resume_checkpoint = path;
      j.kind = resume;
      s.grid.push_back(j);
    }
  }
  Rng rng(ctx.seed ^ 0x5eedf022ull);
  for (int i = 0; i < kFuzzModels; ++i) {
    const unsigned seed = 1 + static_cast<unsigned>(rng.below(1u << 20));
    for (core::Backend b : backends) {
      GridJob j;
      j.spec.machine = "fuzz-" + std::to_string(seed);
      j.spec.options = machines::fuzz_options_for(seed, b);
      j.spec.cycle_budget = kFuzzBudget;
      j.kind = fuzz;
      s.grid.push_back(j);
    }
  }
  s.farm = std::make_unique<farm::SimFarm>(farm_options);
  return s;
}

/// The error of a fuzz job that failed because of its model: it did not
/// drain within the budget, or it deadlocked (the engine's watchdog stopped
/// it). Empty for any other result.
std::string model_failure(const farm::JobResult& r) {
  static const std::string kDrain = ": model did not drain";
  static const std::string kDeadlock = ": engine stopped (deadlocked model?) at cycle ";
  if (r.status != farm::JobStatus::failed) return {};
  const bool drain = r.error.size() >= kDrain.size() &&
                     r.error.compare(r.error.size() - kDrain.size(), kDrain.size(), kDrain) == 0;
  return drain || r.error.find(kDeadlock) != std::string::npos ? r.error : std::string();
}

/// Serial 1-worker reference of every distinct simulation. A fuzz model that
/// fails with the *same* model error on every backend (no drain within the
/// budget, or a deadlock at the same cycle) is an input this workload cannot
/// use: it leaves the grid, the same models for every run of one seed, and
/// their number is a drift-checked count. Any other failing reference job,
/// including a fuzz model that fails on one backend only or differently on
/// two, is a failed operation.
void run_reference(Context& ctx, std::vector<GridJob>& grid, Outcome& outcome,
                   std::size_t& dropped_fuzz) {
  farm::FarmOptions o;
  o.workers = 1;
  o.cache_entries = 0;
  farm::SimFarm serial(o);
  std::vector<farm::JobSpec> specs;
  for (const GridJob& j : grid) specs.push_back(j.spec);
  farm::FarmReport report;
  {
    ScopedSpan span(ctx.tracer, "farm.reference");
    report = serial.run(specs);
  }
  if (ctx.inject_fuzz_error)  // self-test: one backend of one fuzz model stops
    for (std::size_t i = 0; i < grid.size(); ++i) {
      farm::JobResult& r = report.jobs[i].result;
      if (grid[i].kind != fuzz || r.status != farm::JobStatus::ok) continue;
      r.status = farm::JobStatus::failed;
      r.error = grid[i].spec.machine + ": engine stopped (deadlocked model?) at cycle 0";
      break;
    }
  std::map<std::string, std::string> unusable;  // fuzz model -> error shared by all backends
  for (std::size_t i = 0; i < grid.size(); ++i)
    if (grid[i].kind == fuzz) {
      const std::string error = model_failure(report.jobs[i].result);
      const auto [it, fresh] = unusable.emplace(grid[i].spec.machine, error);
      if (!fresh && it->second != error) it->second.clear();
    }
  std::vector<GridJob> kept;
  dropped_fuzz = 0;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const farm::JobResult& r = report.jobs[i].result;
    const bool ok = r.status == farm::JobStatus::ok;
    if (grid[i].kind == fuzz && !unusable.at(grid[i].spec.machine).empty()) {
      ++dropped_fuzz;
      continue;
    }
    outcome.record(ok);
    if (!ok) {
      std::fprintf(stderr, "sweep: reference job %s failed: %s\n", grid[i].spec.machine.c_str(),
                   r.error.c_str());
      continue;
    }
    GridJob j = grid[i];
    j.digest = r.digest;
    j.cycles = r.stats.cycles;
    j.retired = r.retired;
    kept.push_back(j);
  }
  grid = std::move(kept);
}

struct Batch {
  bool traced = false;
  double wall = 0.0;
  std::size_t executed = 0;
  std::vector<double> job_ms;                            // passing jobs
  std::array<std::vector<double>, kNumKinds> kind_ms;    // passing jobs per kind
  std::array<std::vector<double>, kNumRated> rated_ms;   // per rated class
};

/// Shared with the on_job_done callback of a traced run.
struct JobSpans {
  Tracer* tracer = nullptr;
  std::atomic<bool> active{false};
  std::atomic<int> parent{-1};
  const std::vector<const char*>* names = nullptr;  // span name per submitted job
};

/// Jobs one batch submits: every grid job times its kind's replicas, or
/// `replicas` times each when that is given.
std::vector<std::size_t> batch_jobs(const std::vector<GridJob>& grid, int replicas) {
  std::vector<std::size_t> which;  // submitted job -> grid index
  for (std::size_t i = 0; i < grid.size(); ++i)
    for (int r = 0; r < (replicas > 0 ? replicas : kKinds[grid[i].kind].replicas); ++r)
      which.push_back(i);
  return which;
}

Batch run_batch(Context& ctx, SweepSetup& s, std::uint64_t batch_index, int replicas, Rng& rng,
                bool traced, JobSpans* spans, FarmTotals& totals, Outcome& outcome) {
  std::vector<std::size_t> which = batch_jobs(s.grid, replicas);
  rng.shuffle(which);
  std::vector<farm::JobSpec> jobs;
  std::vector<const char*> names;
  jobs.reserve(which.size());
  for (std::size_t n = 0; n < which.size(); ++n) {
    farm::JobSpec spec = s.grid[which[n]].spec;
    spec.seed = 1 + batch_index * which.size() + n;  // a fresh job hash every time
    jobs.push_back(std::move(spec));
    names.push_back(kKinds[s.grid[which[n]].kind].span);
  }

  Batch b;
  b.traced = traced;
  Tracer* tr = traced ? ctx.tracer : nullptr;
  ScopedSpan batch_span(tr, "bench.batch", batch_index);
  farm::FarmReport report;
  {
    ScopedSpan span(tr, "farm.run", batch_index);
    if (spans != nullptr) {
      spans->names = &names;
      spans->parent.store(span.index());
      spans->active.store(traced);
    }
    report = s.farm->run(std::move(jobs));
    if (spans != nullptr) spans->active.store(false);
  }
  b.wall = report.wall_seconds;
  b.executed = report.telemetry.executed;
  totals.add(report);
  for (std::size_t n = 0; n < report.jobs.size(); ++n) {
    const GridJob& ref = s.grid[which[n]];
    const farm::JobResult& r = report.jobs[n].result;
    const bool ok = r.status == farm::JobStatus::ok && !r.cached && r.digest == ref.digest &&
                    r.stats.cycles == ref.cycles && r.retired == ref.retired;
    outcome.record(ok);
    if (!ok) {
      if (outcome.failed <= 5)
        std::fprintf(stderr, "sweep: job %s (%s) failed the gate: %s\n", ref.spec.machine.c_str(),
                     farm::backend_name(ref.spec.options.backend),
                     r.error.empty() ? "digest/cycles differ from the reference" : r.error.c_str());
      continue;
    }
    b.job_ms.push_back(r.wall_seconds * 1e3);
    b.kind_ms[ref.kind].push_back(r.wall_seconds * 1e3);
    if (ref.klass < kNumRated) b.rated_ms[ref.klass].push_back(r.wall_seconds * 1e3);
  }
  return b;
}

/// Each job kind's share of the untimed batches' job time and of their jobs,
/// and its median job time: what a change to that kind's path can move.
void print_kind_shares(const std::vector<Batch>& batches) {
  std::array<std::vector<double>, kNumKinds> ms;
  double total_ms = 0.0;
  std::size_t total_jobs = 0;
  for (const Batch& b : batches) {
    if (b.traced) continue;
    for (int k = 0; k < kNumKinds; ++k) {
      ms[k].insert(ms[k].end(), b.kind_ms[k].begin(), b.kind_ms[k].end());
      for (double t : b.kind_ms[k]) total_ms += t;
      total_jobs += b.kind_ms[k].size();
    }
  }
  std::printf("  job kinds (share of job time / of jobs, median job ms):");
  for (int k = 0; k < kNumKinds; ++k) {
    double sum = 0.0;
    for (double t : ms[k]) sum += t;
    std::printf(" %s %.1f%%/%.1f%% %.4f ms%s", kKinds[k].name,
                total_ms > 0.0 ? 100.0 * sum / total_ms : 0.0,
                total_jobs > 0 ? 100.0 * static_cast<double>(ms[k].size()) /
                                     static_cast<double>(total_jobs)
                               : 0.0,
                ms[k].empty() ? 0.0 : median(ms[k]), k + 1 < kNumKinds ? "," : "\n");
  }
}

farm::FarmOptions sweep_farm_options(const Context& ctx, JobSpans* spans) {
  farm::FarmOptions o;
  // Workers plus the timeout monitor stay within the host's threads.
  o.workers = ctx.threads > 1 ? ctx.threads - 1 : 1;
  o.cache_entries = 0;
  if (spans != nullptr)
    o.on_job_done = [spans](std::size_t, std::size_t, std::size_t index,
                            const farm::JobResult& r) {
      if (!spans->active.load()) return;
      const double end = spans->tracer->now();
      spans->tracer->add_finished((*spans->names)[index], end - r.wall_seconds, end,
                                  spans->parent.load(), index);
    };
  return o;
}

}  // namespace

FarmTotals run_reference_sweep(Context& ctx, Outcome& outcome) {
  JobSpans spans;
  spans.tracer = ctx.tracer;
  SweepSetup s = make_sweep_setup(ctx, sweep_farm_options(ctx, ctx.trace ? &spans : nullptr));
  std::size_t dropped_fuzz = 0;
  run_reference(ctx, s.grid, outcome, dropped_fuzz);
  Rng rng(ctx.seed);
  FarmTotals totals;
  run_batch(ctx, s, 0, 2, rng, ctx.trace, &spans, totals, outcome);
  return totals;
}

int run_sweep_workload(Context& ctx, Outcome& outcome, Report& e2e, Report& layers) {
  JobSpans spans;
  spans.tracer = ctx.tracer;
  JobSpans* span_sink = ctx.trace ? &spans : nullptr;

  // Set-up, timed once here and once more after each untraced batch (spread
  // over the run, so one burst of host noise cannot hit every sample);
  // setup_s is the median.
  std::vector<double> setup_times;
  const auto timed_setup = [&] {
    const auto t0 = Clock::now();
    SweepSetup s = make_sweep_setup(ctx, sweep_farm_options(ctx, span_sink));
    setup_times.push_back(seconds_between(t0, Clock::now()));
    return s;
  };
  SweepSetup setup = timed_setup();
  std::size_t dropped_fuzz = 0;
  run_reference(ctx, setup.grid, outcome, dropped_fuzz);
  if (ctx.corrupt_expected) setup.grid.front().digest ^= 1;

  std::array<std::uint64_t, kNumRated> rated_cycles{};
  std::uint64_t grid_cycles = 0, grid_retired = 0, digest_sum = 0;
  for (const GridJob& j : setup.grid) {
    if (j.klass < kNumRated) rated_cycles[j.klass] = j.cycles;
    grid_cycles += j.cycles;
    grid_retired += j.retired;
    digest_sum ^= j.digest;
  }

  // Untimed (but gated) warm-up batches: the first batches of a process pay
  // heap growth and first-touch page faults.
  Rng rng(ctx.seed);
  FarmTotals warm_totals, totals;
  for (int w = 0; w < kWarmBatches; ++w)
    run_batch(ctx, setup, w, 0, rng, false, nullptr, warm_totals, outcome);

  std::vector<Batch> batches;
  const auto start = Clock::now();
  while (static_cast<int>(batches.size()) < kMinBatches * (ctx.trace ? 2 : 1) ||
         seconds_between(start, Clock::now()) < ctx.seconds) {
    const bool traced = ctx.trace && batches.size() % 2 == 1;
    batches.push_back(run_batch(ctx, setup, kWarmBatches + batches.size(), 0, rng, traced,
                                span_sink, totals, outcome));
    if (!traced) timed_setup();
  }

  const std::size_t batch_size = batch_jobs(setup.grid, 0).size();
  std::printf("sweep: %zu distinct simulations, %zu jobs per batch, %zu batches, %u workers\n",
              setup.grid.size(), batch_size, batches.size(), ctx.threads > 1 ? ctx.threads - 1 : 1);
  std::printf("  counts grid cycles=%llu retired=%llu digest_xor=%016llx "
              "fuzz_jobs_dropped=%zu (same model error on every backend within %llu cycles) "
              "executed=%llu cache_hits=%llu timeouts=%llu\n",
              static_cast<unsigned long long>(grid_cycles),
              static_cast<unsigned long long>(grid_retired),
              static_cast<unsigned long long>(digest_sum), dropped_fuzz,
              static_cast<unsigned long long>(kFuzzBudget),
              static_cast<unsigned long long>(totals.executed),
              static_cast<unsigned long long>(totals.cache_hits),
              static_cast<unsigned long long>(totals.timeouts));

  struct Summary {
    std::array<double, kNumRated> mcps{};
    std::array<std::vector<double>, kNumRated> mcps_per_batch;
    double jobs_per_s = 0.0, p50 = 0.0, p95 = 0.0;
    std::vector<double> jobs_per_batch, p50_per_batch, p95_per_batch;
    std::size_t samples = 0;
  };
  const auto summarize = [&](bool traced) {
    Summary s;
    std::array<std::vector<double>, kNumRated> rated_ms;  // pooled over batches
    for (const Batch& b : batches) {
      if (b.traced != traced) continue;
      s.jobs_per_batch.push_back(static_cast<double>(b.executed) / b.wall);
      s.p50_per_batch.push_back(percentile(b.job_ms, 50.0));
      s.p95_per_batch.push_back(percentile(b.job_ms, 95.0));
      s.samples += b.job_ms.size();
      for (int k = 0; k < kNumRated; ++k) {
        if (b.rated_ms[k].empty()) continue;
        s.mcps_per_batch[k].push_back(static_cast<double>(rated_cycles[k]) /
                                      median(b.rated_ms[k]) / 1e3);
        rated_ms[k].insert(rated_ms[k].end(), b.rated_ms[k].begin(), b.rated_ms[k].end());
      }
    }
    // A rated class has only a few jobs per batch: its job time is the
    // fast-side decile over every job of the run.
    for (int k = 0; k < kNumRated; ++k)
      s.mcps[k] = rated_ms[k].empty()
                      ? 0.0
                      : static_cast<double>(rated_cycles[k]) / fast_time(rated_ms[k]) / 1e3;
    s.jobs_per_s = fast_rate(s.jobs_per_batch);
    s.p50 = fast_time(s.p50_per_batch);
    s.p95 = fast_time(s.p95_per_batch);
    return s;
  };

  const Summary s = summarize(false);
  for (int k = 0; k < kNumRated; ++k)
    e2e.add_with_spread(kRatedMetric[k], s.mcps[k], "Mcyc/s", s.mcps_per_batch[k]);
  e2e.add_with_spread("jobs_per_s", s.jobs_per_s, "jobs/s", s.jobs_per_batch);
  e2e.add_with_spread("job_p50_ms", s.p50, "ms", s.p50_per_batch);
  e2e.add_with_spread("job_p95_ms", s.p95, "ms", s.p95_per_batch);
  std::printf("  job percentiles per batch of %zu jobs (%zu beyond p95); %zu jobs in all\n",
              batch_size, batch_size / 20, s.samples);
  print_kind_shares(batches);
  e2e.add_with_spread("setup_s", median(setup_times), "s", setup_times);
  e2e.add("peak_rss_mb", peak_rss_mb(), "MB");

  if (!ctx.trace) return 0;

  const Summary st = summarize(true);
  std::printf("\ntracing overhead (traced batches minus interleaved untraced batches):\n");
  for (int k = 0; k < kNumRated; ++k)
    std::printf("  %-22s %+.4f Mcyc/s\n", kRatedMetric[k], st.mcps[k] - s.mcps[k]);
  std::printf("  %-22s %+.4f jobs/s\n  %-22s %+.4f ms\n  %-22s %+.4f ms\n", "jobs_per_s",
              st.jobs_per_s - s.jobs_per_s, "job_p50_ms", st.p50 - s.p50, "job_p95_ms",
              st.p95 - s.p95);

  // The machine-level ledger rows come from the ARM programs the sweep's
  // StrongArm/XScale jobs run (crc and adpcm at scale 1) on the shipped caches.
  std::vector<ProgramCase> programs;
  for (const char* name : {"crc", "adpcm"}) {
    ProgramCase p{name, 1, assemble(name, 1), {}};
    p.expected = iss_output(p.program);
    programs.push_back(std::move(p));
  }
  run_ledger(ctx, programs, shipped_mem(Machine::strongarm), shipped_mem(Machine::xscale), totals,
             outcome, layers);
  return 0;
}

}  // namespace perfbench
