// Micro-benchmarks (google-benchmark) of the engine primitives behind the
// paper's §4 speedups: the per-cycle step cost on a minimal net, decode
// cache hits vs full decode+bind, cache access fast path vs the generic
// walker, and the RegRef hazard-check primitives.
#include <benchmark/benchmark.h>

#include <vector>

#include "baseline/ss_structures.hpp"
#include "core/token_store.hpp"
#include "machines/simple_pipeline.hpp"
#include "machines/strongarm.hpp"
#include "mem/cache.hpp"
#include "regfile/reg_ref.hpp"
#include "workloads/workloads.hpp"

using namespace rcpn;

static rcpn::core::EngineOptions backend_opts(rcpn::core::Backend b) {
  rcpn::core::EngineOptions o;
  o.backend = b;
  return o;
}

static void BM_EngineStepFig2(benchmark::State& state) {
  // arg 0: interpreted core::Engine; arg 1: compiled gen::CompiledEngine.
  const auto backend = state.range(0) == 1 ? core::Backend::compiled
                                           : core::Backend::interpreted;
  machines::SimplePipeline pipe(~0ull, backend_opts(backend));  // never stops
  for (auto _ : state) pipe.engine().step();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EngineStepFig2)->Arg(0)->Arg(1);

static void BM_StrongArmCycle(benchmark::State& state) {
  machines::StrongArmConfig cfg;
  cfg.engine.backend = state.range(0) == 1 ? core::Backend::compiled
                                           : core::Backend::interpreted;
  machines::StrongArmSim sim(cfg);
  const workloads::Workload* w = workloads::find("crc");
  const sys::Program prog = workloads::build(*w, 50);
  // Reset the engine *before* load_program: reset squashes leftover in-flight
  // tokens, whose operands are owned by the decode cache load_program clears.
  sim.engine().reset();
  sim.machine().load_program(prog);
  for (auto _ : state) {
    if (sim.engine().stopped()) {  // restart when the program finishes
      state.PauseTiming();
      sim.engine().reset();
      sim.machine().load_program(prog);
      state.ResumeTiming();
    }
    sim.engine().step();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_StrongArmCycle)->Arg(0)->Arg(1);

static void BM_TokenStoreScan(benchmark::State& state) {
  // The Process(place) filter every backend runs: walk a stage's age-ordered
  // token list and keep the ready instruction tokens of one place, testing
  // each token's own (place, kind, ready) fields. arg: list population.
  const unsigned n = static_cast<unsigned>(state.range(0));
  core::TokenStore store;
  std::vector<core::InstructionToken> tokens(n);
  for (unsigned i = 0; i < n; ++i) {
    tokens[i].place = static_cast<core::PlaceId>(i % 4);  // 4 places share the stage
    tokens[i].ready = i % 2;
    store.insert_visible(&tokens[i]);
  }
  const core::PlaceId want = 1;
  const core::Cycle clock = 0;  // ready values are 0/1: half the slots fail
  for (auto _ : state) {
    unsigned hits = 0;
    for (const core::Token* t : store.ptrs())
      if (t->place == want && t->kind == core::TokenKind::instruction && t->ready <= clock)
        ++hits;
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_TokenStoreScan)->Arg(4)->Arg(16)->Arg(64);

static void BM_TokenStoreRemove(benchmark::State& state) {
  // The firing path's token removal: find the token in the age-ordered list
  // and erase it. arg: list population. Removal targets walk the list
  // front-to-back, the scan order of Process(place).
  const unsigned n = static_cast<unsigned>(state.range(0));
  core::TokenStore store;
  std::vector<core::InstructionToken> tokens(n);
  for (unsigned i = 0; i < n; ++i) {
    tokens[i].place = core::PlaceId{1};
    store.insert_visible(&tokens[i]);
  }
  unsigned next = 0;
  for (auto _ : state) {
    core::Token* victim = store.ptrs()[next % store.size()];
    const bool removed = store.remove_visible(victim);
    benchmark::DoNotOptimize(removed);
    store.insert_visible(victim);  // refill so the population stays at n
    ++next;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TokenStoreRemove)->Arg(1)->Arg(16)->Arg(64);

static void BM_DecodeCacheHit(benchmark::State& state) {
  machines::ArmMachine::Config cfg;
  machines::ArmMachine m(cfg);
  m.mem.memory().write32(0x8000, 0xE0811002);  // add r1, r1, r2
  core::InstructionToken* t = m.dcache.get(0x8000, 0xE0811002);
  benchmark::DoNotOptimize(t);
  for (auto _ : state) {
    core::InstructionToken* tok = m.dcache.get(0x8000, 0xE0811002);
    benchmark::DoNotOptimize(tok);
  }
}
BENCHMARK(BM_DecodeCacheHit);

static void BM_DecodeBindFull(benchmark::State& state) {
  machines::ArmMachine::Config cfg;
  machines::ArmMachine m(cfg);
  m.dcache.set_bypass(true);  // force full decode + operand binding
  for (auto _ : state) {
    core::InstructionToken* tok = m.dcache.get(0x8000, 0xE0811002);
    benchmark::DoNotOptimize(tok);
  }
}
BENCHMARK(BM_DecodeBindFull);

static void BM_CacheAccessFastPath(benchmark::State& state) {
  mem::Cache cache({16 * 1024, 32, 32, 1, 24, true});
  std::uint32_t addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(addr, false));
    addr = (addr + 4) & 0x3fff;  // sequential stream: mostly same-line
  }
}
BENCHMARK(BM_CacheAccessFastPath);

static void BM_CacheAccessGenericWalk(benchmark::State& state) {
  baseline::SsCache cache("bench", 16, 32, 32, 1, 24);
  std::uint32_t addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(addr, false));
    addr = (addr + 4) & 0x3fff;
  }
}
BENCHMARK(BM_CacheAccessGenericWalk);

static void BM_RegRefHazardCheck(benchmark::State& state) {
  regfile::RegisterFile rf(17, regfile::WritePolicy::single_writer);
  rf.add_identity_registers(16);
  core::PlaceId owner = core::kNoPlace;
  regfile::RegRef r;
  r.bind(&rf, 3, reinterpret_cast<regfile::PlaceId*>(&owner));
  for (auto _ : state) {
    benchmark::DoNotOptimize(r.can_read());
    benchmark::DoNotOptimize(r.can_write());
  }
}
BENCHMARK(BM_RegRefHazardCheck);

static void BM_RegRefReserveWriteback(benchmark::State& state) {
  regfile::RegisterFile rf(17, regfile::WritePolicy::single_writer);
  rf.add_identity_registers(16);
  core::PlaceId owner = core::kNoPlace;
  regfile::RegRef r;
  r.bind(&rf, 3, reinterpret_cast<regfile::PlaceId*>(&owner));
  for (auto _ : state) {
    r.reserve_write();
    r.set_value(42);
    r.writeback();
  }
}
BENCHMARK(BM_RegRefReserveWriteback);

BENCHMARK_MAIN();
