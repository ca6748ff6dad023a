// The per-layer cost ledger (traced run only). Each layer is timed through
// its public entry points, with a span around every call site, and its
// existing counters are read. Timings are medians over kReps repeats;
// counts are exact and must not move under a speed-only change.
#include "ledger.hpp"

#include <cstdio>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "arm/arm_isa.hpp"
#include "baseline/functional_iss.hpp"
#include "baseline/simplescalar_sim.hpp"
#include "desc/description.hpp"
#include "gen/compiled_model.hpp"
#include "machines/desc_machines.hpp"
#include "machines/golden_runner.hpp"
#include "mem/cache.hpp"
#include "workloads/workloads.hpp"

namespace perfbench {

using namespace rcpn;

namespace {

constexpr int kReps = 5;
/// Replay loops repeat their stream until at least this many calls are timed.
constexpr std::size_t kMinReplayCalls = 1u << 20;

double time_once(const std::function<void()>& fn) {
  const auto t0 = Clock::now();
  fn();
  return seconds_between(t0, Clock::now());
}

/// Median seconds of `fn` over kReps calls, each inside a span.
double median_time(Tracer* tr, const char* span, const std::function<void()>& fn) {
  std::vector<double> t;
  for (int r = 0; r < kReps; ++r) {
    ScopedSpan s(tr, span);
    t.push_back(time_once(fn));
  }
  return median(t);
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// The ISS's dynamic (pc, raw) fetch stream of one program.
std::vector<std::pair<std::uint32_t, std::uint32_t>> iss_stream(const sys::Program& program) {
  mem::Memory memory;
  sys::SyscallHandler syscalls;
  baseline::FunctionalIss iss(memory, syscalls);
  iss.reset(program);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> out;
  while (!iss.exited()) {
    const std::uint32_t pc = iss.pc();
    out.emplace_back(pc, memory.read32(pc));
    if (!iss.step()) break;
  }
  return out;
}

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

}  // namespace

void run_ledger(Context& ctx, const std::vector<ProgramCase>& programs,
                const mem::MemorySystemConfig& sa_mem, const mem::MemorySystemConfig& xs_mem,
                const FarmTotals& farm, Outcome& outcome, Report& L) {
  Tracer* tr = ctx.tracer;
  volatile std::uint64_t sink = 0;

  // -- workloads: assembling the programs --------------------------------------
  L.add("workloads.assemble_ms", 1e3 * median_time(tr, "workloads.build", [&] {
          for (const ProgramCase& p : programs) sink = sink + assemble(p.name, p.scale).image_size();
        }),
        "ms");

  // -- model / gen: construction per machine x backend, and lowering ----------
  struct Built {
    const char* name;
    Machine machine;
    core::Backend backend;
    std::unique_ptr<ArmSim> sim;  // the last instance built, never run yet
  };
  Built built[] = {{"sa.compiled", Machine::strongarm, core::Backend::compiled, nullptr},
                   {"sa.generated", Machine::strongarm, core::Backend::generated, nullptr},
                   {"sa.interpreted", Machine::strongarm, core::Backend::interpreted, nullptr},
                   {"xs.compiled", Machine::xscale, core::Backend::compiled, nullptr},
                   {"xs.generated", Machine::xscale, core::Backend::generated, nullptr},
                   {"xs.interpreted", Machine::xscale, core::Backend::interpreted, nullptr}};
  for (Built& b : built) {
    const mem::MemorySystemConfig& mem = b.machine == Machine::strongarm ? sa_mem : xs_mem;
    const double t = median_time(tr, "model.build", [&] {
      b.sim.reset();
      b.sim = make_arm_sim(b.machine, b.backend, mem);
    });
    L.add(std::string("model.build_ms.") + b.name, 1e3 * t, "ms");
  }
  for (Built* b : {&built[2], &built[5]}) {
    const double t = median_time(tr, "gen.lower", [&] {
      const gen::CompiledModel cm = gen::CompiledModel::lower(b->sim->engine());
      sink = sink + cm.body.size();
    });
    L.add(std::string("gen.lower_ms.") + (b->machine == Machine::strongarm ? "sa" : "xs"),
          1e3 * t, "ms");
  }

  // -- core / mem / isa / predictor counts: one pass on the fresh simulators --
  // (program order fixed, so decode-cache statistics are deterministic too).
  std::array<RunCounts, 6> counts;
  std::vector<std::array<RunIdentity, 6>> ident(programs.size());
  for (std::size_t p = 0; p < programs.size(); ++p) {
    std::array<bool, 6> output_ok{};
    for (std::size_t k = 0; k < 6; ++k) {
      ArmSim& sim = *built[k].sim;
      const isa::DecodeCache::Stats before = sim.machine().dcache.stats();
      machines::RunResult r;
      {
        ScopedSpan s(tr, "core.run");
        r = sim.run(programs[p].program);
      }
      ident[p][k] = identity_of(sim, r);
      counts[k].add(counts_after_run(sim, before));
      output_ok[k] = r.output == programs[p].expected;
    }
    // Compiled and generated must match their machine's interpreted run.
    for (std::size_t k = 0; k < 6; ++k)
      outcome.record(output_ok[k] && ident[p][k] == ident[p][k < 3 ? 2 : 5]);
  }

  // -- timed machine runs, interleaved per program ----------------------------
  std::array<double, 6> secs{};
  for (const ProgramCase& p : programs) {
    std::array<std::vector<double>, 6> t;
    for (int r = 0; r < kReps; ++r)
      for (std::size_t k : {0u, 1u, 2u, 5u}) {
        ScopedSpan s(tr, "core.run");
        t[k].push_back(time_once([&] { sink = sink + built[k].sim->run(p.program).cycles; }));
      }
    for (std::size_t k : {0u, 1u, 2u, 5u}) secs[k] += median(t[k]);
  }
  const RunCounts& sa = counts[0];
  const RunCounts& xs = counts[3];
  const double sa_cycles = static_cast<double>(sa.cycles);
  const double xs_cycles = static_cast<double>(xs.cycles);
  const double sa_ns_compiled = 1e9 * secs[0] / sa_cycles;
  const double sa_ns_generated = 1e9 * secs[1] / sa_cycles;

  // -- baseline: functional ISS and the SimpleScalar-style simulator -----------
  double iss_secs = 0.0, ss_secs = 0.0;
  std::uint64_t iss_insts = 0, ss_cycles = 0;
  std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>> streams;
  for (const ProgramCase& p : programs) {
    mem::Memory memory;
    sys::SyscallHandler syscalls;
    baseline::FunctionalIss iss(memory, syscalls);
    std::uint64_t insts = 0;
    iss_secs += median_time(tr, "baseline.iss_run", [&] {
      memory.clear();
      syscalls.reset();
      iss.reset(p.program);
      insts = iss.run();
    });
    iss_insts += insts;
    outcome.record(syscalls.output() == p.expected);

    baseline::SimpleScalarConfig ss_cfg;
    ss_cfg.mem = sa_mem;
    baseline::SimpleScalarSim ss(ss_cfg);
    machines::RunResult r;
    ss_secs += median_time(tr, "baseline.ss_run", [&] { r = ss.run(p.program); });
    ss_cycles += r.cycles;
    outcome.record(r.output == p.expected);

    ScopedSpan s(tr, "baseline.iss_stream");
    streams.push_back(iss_stream(p.program));
  }
  const double iss_ns = 1e9 * iss_secs / static_cast<double>(iss_insts);
  const double ss_mcps = static_cast<double>(ss_cycles) / ss_secs / 1e6;
  const double mcps_sa_generated = 1e3 / sa_ns_generated;
  L.add("baseline.iss_ns_per_inst", iss_ns, "ns");
  L.add("baseline.ss_mcps", ss_mcps, "Mcyc/s");
  L.add("baseline.speedup_sa_generated_vs_ss", mcps_sa_generated / ss_mcps, "x");

  // -- ledger (derived): where a simulated StrongArm cycle goes ---------------
  const double semantic_ns = iss_ns * ratio(static_cast<double>(sa.retired), sa_cycles);
  L.add("ledger.sa_ns_per_cycle.compiled", sa_ns_compiled, "ns");
  L.add("ledger.sa_ns_per_cycle.generated", sa_ns_generated, "ns");
  L.add("ledger.semantic_ns_per_cycle", semantic_ns, "ns");
  L.add("ledger.timing_overhead_share", 1.0 - semantic_ns / sa_ns_compiled, "ratio");

  // -- core -------------------------------------------------------------------
  L.add("core.interp_ns_per_cycle.sa", 1e9 * secs[2] / sa_cycles, "ns");
  L.add("core.interp_ns_per_cycle.xs", 1e9 * secs[5] / xs_cycles, "ns");
  L.add("core.cpi.sa", ratio(sa_cycles, static_cast<double>(sa.retired)), "ratio");
  L.add("core.cpi.xs", ratio(xs_cycles, static_cast<double>(xs.retired)), "ratio");
  L.add("core.firings_per_cycle", ratio(static_cast<double>(sa.firings), sa_cycles), "ratio");
  const char* cause_names[] = {"no_ready_token", "guard_rejected", "capacity_backpressure"};
  for (unsigned c = 0; c < core::kNumStallCauses; ++c)
    L.add(std::string("core.stalls_per_kcycle.") + cause_names[c],
          1e3 * ratio(static_cast<double>(sa.causes[c]), sa_cycles), "count");
  L.add("core.squash_ratio",
        ratio(static_cast<double>(sa.squashed), static_cast<double>(sa.fetched)), "ratio");
  L.add("core.quiesced_frac", ratio(static_cast<double>(sa.quiesced), sa_cycles), "ratio");

  // -- isa: decode-cache hits, and DecodeCache::get over the ISS stream -------
  L.add("isa.decode_hit_rate",
        ratio(static_cast<double>(sa.decode_hits),
              static_cast<double>(sa.decode_hits + sa.decode_misses)),
        "ratio");
  {
    machines::ArmMachine::Config cfg;
    cfg.mem = sa_mem;
    machines::ArmMachine am(cfg);
    double secs_get = 0.0;
    std::size_t calls = 0;
    for (std::size_t p = 0; p < programs.size(); ++p) {
      am.load_program(programs[p].program);
      const auto& stream = streams[p];
      for (const auto& [pc, raw] : stream) sink = sink + am.dcache.get(pc, raw)->pc;  // warm
      const std::size_t loops = stream.empty() ? 0 : 1 + kMinReplayCalls / stream.size();
      secs_get += median_time(tr, "isa.decode_cache_get", [&] {
        std::uint64_t acc = 0;
        for (std::size_t l = 0; l < loops; ++l)
          for (const auto& [pc, raw] : stream) acc += am.dcache.get(pc, raw)->pc;
        sink = sink + acc;
      });
      calls += loops * stream.size();
    }
    L.add("isa.decode_get_ns", 1e9 * secs_get / static_cast<double>(calls), "ns");
  }

  // -- arm: decoding the static instruction words (the decode-cache miss path)
  {
    std::set<std::pair<std::uint32_t, std::uint32_t>> uniq;
    for (const auto& s : streams) uniq.insert(s.begin(), s.end());
    const std::vector<std::pair<std::uint32_t, std::uint32_t>> words(uniq.begin(), uniq.end());
    const std::size_t loops = words.empty() ? 0 : 1 + kMinReplayCalls / words.size();
    const double t = median_time(tr, "arm.decode", [&] {
      std::uint64_t acc = 0;
      for (std::size_t l = 0; l < loops; ++l)
        for (const auto& [pc, raw] : words) acc += arm::decode(raw, pc).rd;
      sink = sink + acc;
    });
    L.add("arm.decode_ns", 1e9 * t / static_cast<double>(loops * words.size()), "ns");
  }

  // -- mem: hit rates of the StrongArm runs, and Cache::access replayed ------
  L.add("mem.icache_hit_rate",
        ratio(static_cast<double>(sa.icache_hits), static_cast<double>(sa.icache_accesses)),
        "ratio");
  L.add("mem.dcache_hit_rate",
        ratio(static_cast<double>(sa.dcache_hits), static_cast<double>(sa.dcache_accesses)),
        "ratio");
  {
    double secs_access = 0.0;
    std::size_t calls = 0;
    for (const auto& stream : streams) {
      mem::Cache cache(sa_mem.icache, "replay");
      const std::size_t loops = stream.empty() ? 0 : 1 + kMinReplayCalls / stream.size();
      secs_access += median_time(tr, "mem.cache_access", [&] {
        std::uint64_t acc = 0;
        for (std::size_t l = 0; l < loops; ++l)
          for (const auto& [pc, raw] : stream) acc += cache.access(pc, false);
        sink = sink + acc;
      });
      calls += loops * stream.size();
    }
    L.add("mem.access_ns", 1e9 * secs_access / static_cast<double>(calls), "ns");
  }

  // -- predictor (XScale's BTB) -----------------------------------------------
  L.add("predictor.mispredicts_per_kinst",
        1e3 * ratio(static_cast<double>(xs.mispredicts), static_cast<double>(xs.retired)), "count");

  // -- desc: parsing models/*.rcpn, and a StrongArm from its description ------
  {
    std::vector<std::string> texts;
    for (const char* name : {"fig2", "fig5", "stallcause", "strongarm", "tomasulo", "xscale"})
      texts.push_back(read_text(ctx.root + "/models/" + name + ".rcpn"));
    L.add("desc.parse_ms", 1e3 * median_time(tr, "desc.parse", [&] {
            for (const std::string& t : texts) sink = sink + desc::parse(t).transitions.size();
          }),
          "ms");
    const desc::Description d = desc::parse(texts[3]);
    machines::StrongArmConfig cfg;
    cfg.mem = sa_mem;
    cfg.engine = desc::engine_options(d, cfg.engine);
    cfg.engine.backend = core::Backend::compiled;
    std::unique_ptr<machines::StrongArmSim> loaded;
    L.add("desc.load_ms", 1e3 * median_time(tr, "desc.load", [&] {
            loaded.reset();
            loaded = std::make_unique<machines::StrongArmSim>(d, machines::delegates_for(d), cfg);
          }),
          "ms");
    const machines::RunResult r = loaded->run(programs.front().program);
    outcome.record(r.output == programs.front().expected && r.cycles == ident[0][0].cycles);
  }

  // -- ckpt: snapshot a StrongArm golden session mid-run, restore, finish -----
  {
    core::EngineOptions opts;
    opts.backend = core::Backend::compiled;
    std::unique_ptr<machines::GoldenSession> session =
        machines::make_golden_session("strongarm_crc", opts);
    session->advance(750);
    std::string text;
    L.add("ckpt.save_ms", 1e3 * median_time(tr, "ckpt.save", [&] {
            text = machines::write_checkpoint(*session);
          }),
          "ms");
    std::vector<double> t;
    std::unique_ptr<machines::GoldenSession> restored;
    for (int r = 0; r < kReps; ++r) {
      restored = machines::make_golden_session("strongarm_crc", opts);
      ScopedSpan s(tr, "ckpt.restore");
      t.push_back(time_once([&] { machines::read_checkpoint(*restored, text); }));
    }
    L.add("ckpt.restore_ms", 1e3 * median(t), "ms");
    L.add("ckpt.kbytes", static_cast<double>(text.size()) / 1024.0, "KiB");
    const machines::GoldenRunResult resumed = machines::finish_session(*restored);
    const machines::GoldenRunResult straight =
        machines::run_golden_machine_full("strongarm_crc", opts);
    outcome.record(resumed.trace == straight.trace &&
                   resumed.stats.cycles == straight.stats.cycles);
  }

  add_farm_metrics(farm, L);
}

}  // namespace perfbench
