// `kernels`: the Fig 10 experiment, made to clear its noise.
//
// Six paper kernels x {StrongArm, XScale} x {compiled, generated}. Every
// simulator runs every program once untimed (lazy set-up is not charged to
// whichever program comes first), then the (program, simulator) pairs are
// timed in rounds, each round in a seed-shuffled order, until --seconds
// elapse. A rate is the total simulated cycles over the summed per-program
// fast-side host time (bench.hpp). Every run is gated: its program output must equal the
// functional ISS's, and its cycles, retired count and per-place stall-cause
// table must equal a once-per-setup interpreted run of the same program.
#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "arm_sims.hpp"
#include "baseline/functional_iss.hpp"
#include "bench.hpp"
#include "ledger.hpp"
#include "sweep.hpp"
#include "workloads/workloads.hpp"

namespace perfbench {

using namespace rcpn;

// -- arm_sims.hpp ---------------------------------------------------------------

namespace {

template <class Sim, class Config>
class ArmSimOf final : public ArmSim {
 public:
  explicit ArmSimOf(Config cfg) : sim_(std::move(cfg)) {}
  machines::RunResult run(const sys::Program& program) override { return sim_.run(program); }
  void begin(const sys::Program& program) override { sim_.begin(program); }
  void advance(std::uint64_t cycles) override { sim_.advance(cycles); }
  core::Engine& engine() override { return sim_.engine(); }
  machines::ArmMachine& machine() override { return sim_.machine(); }

 private:
  Sim sim_;
};

}  // namespace

std::unique_ptr<ArmSim> make_arm_sim(Machine m, core::Backend backend,
                                     const mem::MemorySystemConfig& mem) {
  if (m == Machine::strongarm) {
    machines::StrongArmConfig cfg;
    cfg.mem = mem;
    cfg.engine.backend = backend;
    return std::make_unique<ArmSimOf<machines::StrongArmSim, machines::StrongArmConfig>>(cfg);
  }
  machines::XScaleConfig cfg;
  cfg.mem = mem;
  cfg.engine.backend = backend;
  return std::make_unique<ArmSimOf<machines::XScaleSim, machines::XScaleConfig>>(cfg);
}

mem::MemorySystemConfig shipped_mem(Machine m) {
  return m == Machine::strongarm ? machines::StrongArmConfig().mem
                                 : machines::XScaleConfig().mem;
}

machines::RunResult run_in_chunks(ArmSim& sim, const sys::Program& program,
                                  std::uint64_t chunk_cycles, std::vector<double>& chunk_secs) {
  sim.begin(program);
  while (!sim.engine().stopped()) {
    const auto t0 = Clock::now();
    sim.advance(chunk_cycles);
    chunk_secs.push_back(seconds_between(t0, Clock::now()));
  }
  return machines::collect_result(sim.engine(), sim.machine());
}

sys::Program assemble(const std::string& name, unsigned scale) {
  const workloads::Workload* w = workloads::find(name);
  if (w == nullptr) throw std::runtime_error("unknown workload program '" + name + "'");
  return workloads::build(*w, scale);
}

std::string iss_output(const sys::Program& program) {
  mem::Memory memory;
  sys::SyscallHandler syscalls;
  baseline::FunctionalIss iss(memory, syscalls);
  iss.reset(program);
  iss.run();
  if (!iss.exited()) throw std::runtime_error("ISS did not exit on " + program.name);
  return syscalls.output();
}

void RunCounts::add(const RunCounts& o) {
  cycles += o.cycles;
  retired += o.retired;
  fetched += o.fetched;
  squashed += o.squashed;
  firings += o.firings;
  quiesced += o.quiesced;
  for (unsigned i = 0; i < core::kNumStallCauses; ++i) causes[i] += o.causes[i];
  icache_hits += o.icache_hits;
  icache_accesses += o.icache_accesses;
  dcache_hits += o.dcache_hits;
  dcache_accesses += o.dcache_accesses;
  decode_hits += o.decode_hits;
  decode_misses += o.decode_misses;
  mispredicts += o.mispredicts;
}

RunCounts counts_after_run(ArmSim& sim, const isa::DecodeCache::Stats& decode_before) {
  RunCounts c;
  const core::Stats& s = sim.engine().stats();
  c.cycles = s.cycles;
  c.retired = s.retired;
  c.fetched = s.fetched;
  c.squashed = s.squashed;
  c.firings = s.firings;
  c.quiesced = s.quiesced_cycles;
  for (std::size_t i = 0; i < s.place_stall_causes.size(); ++i)
    c.causes[i % core::kNumStallCauses] += s.place_stall_causes[i];
  const machines::ArmMachine& m = sim.machine();
  c.icache_hits = m.mem.icache().stats().hits;
  c.icache_accesses = m.mem.icache().stats().accesses;
  c.dcache_hits = m.mem.dcache().stats().hits;
  c.dcache_accesses = m.mem.dcache().stats().accesses;
  c.decode_hits = m.dcache.stats().hits - decode_before.hits;
  c.decode_misses = m.dcache.stats().misses - decode_before.misses;
  c.mispredicts = m.mispredicts;
  return c;
}

RunIdentity identity_of(ArmSim& sim, const machines::RunResult& r) {
  return RunIdentity{r.cycles, r.instructions, sim.engine().stats().place_stall_causes};
}

void print_counts(const char* label, const RunCounts& c) {
  std::printf(
      "  counts %-10s cycles=%llu retired=%llu fetched=%llu squashed=%llu firings=%llu "
      "quiesced=%llu stalls(no_ready_token/guard_rejected/capacity_backpressure)=%llu/%llu/%llu "
      "icache=%llu/%llu dcache=%llu/%llu decode_hit/miss=%llu/%llu mispredicts=%llu\n",
      label, static_cast<unsigned long long>(c.cycles),
      static_cast<unsigned long long>(c.retired), static_cast<unsigned long long>(c.fetched),
      static_cast<unsigned long long>(c.squashed), static_cast<unsigned long long>(c.firings),
      static_cast<unsigned long long>(c.quiesced),
      static_cast<unsigned long long>(c.causes[0]), static_cast<unsigned long long>(c.causes[1]),
      static_cast<unsigned long long>(c.causes[2]),
      static_cast<unsigned long long>(c.icache_hits),
      static_cast<unsigned long long>(c.icache_accesses),
      static_cast<unsigned long long>(c.dcache_hits),
      static_cast<unsigned long long>(c.dcache_accesses),
      static_cast<unsigned long long>(c.decode_hits),
      static_cast<unsigned long long>(c.decode_misses),
      static_cast<unsigned long long>(c.mispredicts));
}

// -- the workloads ------------------------------------------------------------------

namespace {

/// Program scales, sized so each kernel runs 0.14-1.0 M StrongArm cycles on
/// the shipped caches (compress cannot go below scale 1): long enough to
/// time one run reliably, short enough for many interleaved rounds per run.
struct ProgramScale {
  const char* name;
  unsigned scale;
};
constexpr ProgramScale kPrograms[] = {{"adpcm", 1}, {"blowfish", 1}, {"compress", 1},
                                      {"crc", 2},   {"g721", 1},     {"go", 10}};

struct TimedSim {
  const char* metric;
  Machine machine;
  core::Backend backend;
};
constexpr TimedSim kTimedSims[] = {
    {"mcps_sa_compiled", Machine::strongarm, core::Backend::compiled},
    {"mcps_sa_generated", Machine::strongarm, core::Backend::generated},
    {"mcps_xs_compiled", Machine::xscale, core::Backend::compiled},
    {"mcps_xs_generated", Machine::xscale, core::Backend::generated},
};
constexpr std::size_t kNumSims = sizeof(kTimedSims) / sizeof(kTimedSims[0]);
constexpr int kMinRounds = 3;
/// Runs are timed in chunks of this many simulated cycles (~0.5-1 ms of host
/// time). A chunk is a fixed slice of a deterministic simulation, so noise
/// can only lengthen it: its time is its fastest repeat, and a chunk that a
/// burst of host noise missed counts even when the rest of its run was slowed.
constexpr std::uint64_t kChunkCycles = 4096;

/// Set-up: everything before the first timed run that a user of the
/// simulators pays — assembling the programs and constructing (describing,
/// lowering, binding) the four simulators.
struct Setup {
  std::vector<ProgramCase> programs;
  std::vector<std::unique_ptr<ArmSim>> sims;  // parallel to kTimedSims
};

Setup make_setup(Context& ctx) {
  Setup s;
  for (const ProgramScale& p : kPrograms) {
    ScopedSpan span(ctx.tracer, "workloads.build");
    s.programs.push_back(ProgramCase{p.name, p.scale, assemble(p.name, p.scale), {}});
  }
  for (const TimedSim& t : kTimedSims) {
    ScopedSpan span(ctx.tracer, "model.build");
    s.sims.push_back(make_arm_sim(t.machine, t.backend, shipped_mem(t.machine)));
  }
  return s;
}

struct Round {
  bool traced = false;
  double wall = 0.0;
  std::vector<double> run_secs;  // every passing run
};

using Times = std::vector<std::array<std::vector<double>, kNumSims>>;  // [program][sim]
/// [program][sim][chunk] -> one sample per passing run.
using ChunkTimes = std::vector<std::array<std::vector<std::vector<double>>, kNumSims>>;

/// End-to-end figures over one subset of rounds (untraced or traced). Each
/// (program, simulator) time is the sum over its chunks of the chunk's
/// fastest repeat; a rate sums cycles (or counts runs) over
/// those times. The job percentiles are taken over the same per-pair times,
/// each pair weighted once.
struct Summary {
  std::array<double, kNumSims> mcps{};
  double jobs_per_s = 0.0, p50_ms = 0.0, p95_ms = 0.0;
  std::size_t pairs = 0;
  std::vector<double> jobs_per_round, p50_per_round, p95_per_round;
};

Summary summarize(const std::vector<Round>& rounds, bool traced, const ChunkTimes& chunks,
                  const std::vector<std::array<std::uint64_t, 2>>& cycles) {
  Summary s;
  std::vector<double> pair_ms;
  for (std::size_t k = 0; k < kNumSims; ++k) {
    double cyc = 0.0, secs = 0.0;
    for (std::size_t p = 0; p < chunks.size(); ++p) {
      if (chunks[p][k].empty()) continue;  // every run failed the gate
      double t = 0.0;
      for (const std::vector<double>& samples : chunks[p][k])
        t += *std::min_element(samples.begin(), samples.end());
      cyc += static_cast<double>(cycles[p][static_cast<int>(kTimedSims[k].machine)]);
      secs += t;
      pair_ms.push_back(t * 1e3);
    }
    s.mcps[k] = secs > 0.0 ? cyc / secs / 1e6 : 0.0;
  }
  for (const Round& r : rounds) {
    if (r.traced != traced) continue;
    s.jobs_per_round.push_back(static_cast<double>(r.run_secs.size()) / r.wall);
    s.p50_per_round.push_back(percentile(r.run_secs, 50.0) * 1e3);
    s.p95_per_round.push_back(percentile(r.run_secs, 95.0) * 1e3);
  }
  double pair_total_ms = 0.0;
  for (double t : pair_ms) pair_total_ms += t;
  s.jobs_per_s = pair_total_ms > 0.0 ? 1e3 * static_cast<double>(pair_ms.size()) / pair_total_ms
                                     : 0.0;
  s.p50_ms = percentile(pair_ms, 50.0);
  s.p95_ms = percentile(pair_ms, 95.0);
  s.pairs = pair_ms.size();
  return s;
}

/// Per-round rate of one simulator (printed spread of the mcps metrics).
std::vector<double> mcps_per_round(const Times& times, std::size_t k,
                                   const std::vector<std::array<std::uint64_t, 2>>& cycles) {
  std::vector<double> out;
  for (std::size_t r = 0;; ++r) {
    double cyc = 0.0, secs = 0.0;
    for (std::size_t p = 0; p < times.size(); ++p)
      if (r < times[p][k].size()) {
        cyc += static_cast<double>(cycles[p][static_cast<int>(kTimedSims[k].machine)]);
        secs += times[p][k][r];
      }
    if (secs == 0.0) return out;
    out.push_back(cyc / secs / 1e6);
  }
}

}  // namespace

int run_kernels_workload(Context& ctx, Outcome& outcome, Report& e2e, Report& layers) {

  // Set-up, timed once here and once more per round (spread over the run,
  // so one burst of host noise cannot hit every sample); setup_s is the
  // median.
  std::vector<double> setup_times;
  const auto timed_setup = [&] {
    const auto t0 = Clock::now();
    Setup s = make_setup(ctx);
    setup_times.push_back(seconds_between(t0, Clock::now()));
    return s;
  };
  Setup setup = timed_setup();
  std::vector<ProgramCase>& programs = setup.programs;
  const std::size_t num_programs = programs.size();

  // Oracles, once per set-up: the ISS output and the interpreted run's
  // cycle/retire/stall-cause identity of every program on both machines.
  for (ProgramCase& p : programs) p.expected = iss_output(p.program);
  if (ctx.corrupt_expected) programs.front().expected += "<corrupted>";

  const mem::MemorySystemConfig sa_mem = shipped_mem(Machine::strongarm);
  const mem::MemorySystemConfig xs_mem = shipped_mem(Machine::xscale);
  std::vector<std::array<RunIdentity, 2>> reference(num_programs);
  std::vector<std::array<std::uint64_t, 2>> cycles(num_programs);
  std::array<RunCounts, 2> counts;
  {
    std::array<std::unique_ptr<ArmSim>, 2> oracle = {
        make_arm_sim(Machine::strongarm, core::Backend::interpreted, sa_mem),
        make_arm_sim(Machine::xscale, core::Backend::interpreted, xs_mem)};
    for (std::size_t p = 0; p < num_programs; ++p) {
      for (int m = 0; m < 2; ++m) {
        const isa::DecodeCache::Stats before = oracle[m]->machine().dcache.stats();
        const machines::RunResult r = oracle[m]->run(programs[p].program);
        reference[p][m] = identity_of(*oracle[m], r);
        cycles[p][m] = r.cycles;
        counts[m].add(counts_after_run(*oracle[m], before));
        outcome.record(r.output == programs[p].expected);
      }
    }
  }

  int failures_shown = 0;
  const auto gate = [&](std::size_t p, std::size_t k, const machines::RunResult& r) {
    const int m = static_cast<int>(kTimedSims[k].machine);
    const bool ok = r.output == programs[p].expected &&
                    identity_of(*setup.sims[k], r) == reference[p][m];
    outcome.record(ok);
    if (!ok && failures_shown++ < 5)
      std::fprintf(stderr, "kernels: gate failed: %s on %s (cycles %llu, reference %llu)\n",
                   kTimedSims[k].metric, programs[p].name.c_str(),
                   static_cast<unsigned long long>(r.cycles),
                   static_cast<unsigned long long>(reference[p][m].cycles));
    return ok;
  };

  // Warm every simulator on every program, untimed but gated.
  for (std::size_t p = 0; p < num_programs; ++p)
    for (std::size_t k = 0; k < kNumSims; ++k) gate(p, k, setup.sims[k]->run(programs[p].program));

  // Timed rounds. With --trace 1 every other round records spans, so the
  // tracing overhead is measured against interleaved untraced rounds.
  std::vector<std::pair<std::size_t, std::size_t>> order;
  for (std::size_t p = 0; p < num_programs; ++p)
    for (std::size_t k = 0; k < kNumSims; ++k) order.emplace_back(p, k);
  Rng rng(ctx.seed);
  Times times(num_programs);
  ChunkTimes chunks(num_programs), traced_chunks(num_programs);
  std::vector<double> chunk_secs;
  std::vector<Round> rounds;
  std::uint64_t sim_id = 0;
  const auto start = Clock::now();
  while (static_cast<int>(rounds.size()) < kMinRounds * (ctx.trace ? 2 : 1) ||
         seconds_between(start, Clock::now()) < ctx.seconds) {
    Round round;
    round.traced = ctx.trace && rounds.size() % 2 == 1;
    Tracer* tr = round.traced ? ctx.tracer : nullptr;
    rng.shuffle(order);
    const auto r0 = Clock::now();
    {
      ScopedSpan round_span(tr, "bench.round", rounds.size());
      for (const auto& [p, k] : order) {
        const auto t0 = Clock::now();
        machines::RunResult r;
        chunk_secs.clear();
        {
          ScopedSpan span(tr, "core.run", ++sim_id);
          r = run_in_chunks(*setup.sims[k], programs[p].program, kChunkCycles, chunk_secs);
        }
        const double dt = seconds_between(t0, Clock::now());
        if (!gate(p, k, r)) continue;
        std::vector<std::vector<double>>& per_chunk = (round.traced ? traced_chunks : chunks)[p][k];
        per_chunk.resize(chunk_secs.size());
        for (std::size_t c = 0; c < chunk_secs.size(); ++c) per_chunk[c].push_back(chunk_secs[c]);
        if (!round.traced) times[p][k].push_back(dt);
        round.run_secs.push_back(dt);
      }
    }
    round.wall = seconds_between(r0, Clock::now());
    rounds.push_back(std::move(round));
    if (!rounds.back().traced) timed_setup();
  }

  std::printf("kernels: %zu programs x %zu simulators, %zu rounds (shipped caches)\n",
              num_programs, kNumSims, rounds.size());
  print_counts("strongarm", counts[0]);
  print_counts("xscale", counts[1]);

  const Summary s = summarize(rounds, false, chunks, cycles);
  for (std::size_t k = 0; k < kNumSims; ++k)
    e2e.add_with_spread(kTimedSims[k].metric, s.mcps[k], "Mcyc/s",
                        mcps_per_round(times, k, cycles));
  e2e.add_with_spread("jobs_per_s", s.jobs_per_s, "jobs/s", s.jobs_per_round);
  e2e.add_with_spread("job_p50_ms", s.p50_ms, "ms", s.p50_per_round);
  e2e.add_with_spread("job_p95_ms", s.p95_ms, "ms", s.p95_per_round);
  std::printf("  job percentiles over %zu (program, simulator) pairs x %zu rounds\n", s.pairs,
              s.jobs_per_round.size());
  e2e.add_with_spread("setup_s", median(setup_times), "s", setup_times);
  e2e.add("peak_rss_mb", peak_rss_mb(), "MB");

  if (!ctx.trace) return 0;

  const Summary st = summarize(rounds, true, traced_chunks, cycles);
  std::printf("\ntracing overhead (traced rounds minus interleaved untraced rounds):\n");
  for (std::size_t k = 0; k < kNumSims; ++k)
    std::printf("  %-22s %+.4f Mcyc/s (%+.2f%%)\n", kTimedSims[k].metric, st.mcps[k] - s.mcps[k],
                100.0 * (st.mcps[k] - s.mcps[k]) / s.mcps[k]);
  std::printf("  %-22s %+.4f jobs/s\n  %-22s %+.4f ms\n  %-22s %+.4f ms\n", "jobs_per_s",
              st.jobs_per_s - s.jobs_per_s, "job_p50_ms", st.p50_ms - s.p50_ms, "job_p95_ms",
              st.p95_ms - s.p95_ms);

  const FarmTotals farm = run_reference_sweep(ctx, outcome);
  run_ledger(ctx, programs, sa_mem, xs_mem, farm, outcome, layers);
  return 0;
}

}  // namespace perfbench
