// The compiled backend's contract: gen::CompiledEngine is cycle-for-cycle
// equivalent to the interpreted core::Engine on every machine model — same
// clock, same retire order (cycle-stamped), same statistics down to
// per-transition firing and per-place stall counts. Plus the lowering pass
// invariants (flat Fig 6 runs match the engine's candidate lists), the
// deadlock watchdog on all three backends, the schedule tables of the emitted
// engine TU and the emit_dot exporter.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "gen/compiled_engine.hpp"
#include "gen/emit.hpp"
#include "gen/emit_simulator.hpp"
#include "gen/static_engine.hpp"
#include "machines/fig5_processor.hpp"
#include "machines/simple_pipeline.hpp"
#include "machines/strongarm.hpp"
#include "machines/tomasulo.hpp"
#include "machines/xscale.hpp"
#include "workloads/workloads.hpp"

namespace rcpn {
namespace {

core::EngineOptions compiled_opts() {
  core::EngineOptions o;
  o.backend = core::Backend::compiled;
  return o;
}

struct RetireEvent {
  core::Cycle cycle = 0;
  std::uint64_t pc = 0;
  std::uint32_t seq = 0;
  bool operator==(const RetireEvent&) const = default;
};

/// Record every retirement with the cycle it happened in: equal traces mean
/// the two engines agree not just on totals but on *when* and in which order
/// every instruction left the pipeline.
void record_retires(core::Engine& eng, std::vector<RetireEvent>& out) {
  out.clear();
  eng.hooks().on_retire = [&eng, &out](core::InstructionToken* t) {
    out.push_back(RetireEvent{eng.clock(), t->pc, t->seq});
  };
}

void expect_stats_equal(const core::Stats& interp, const core::Stats& comp) {
  EXPECT_EQ(interp.cycles, comp.cycles);
  EXPECT_EQ(interp.retired, comp.retired);
  EXPECT_EQ(interp.fetched, comp.fetched);
  EXPECT_EQ(interp.squashed, comp.squashed);
  EXPECT_EQ(interp.reservations, comp.reservations);
  EXPECT_EQ(interp.firings, comp.firings);
  EXPECT_EQ(interp.transition_fires, comp.transition_fires);
  EXPECT_EQ(interp.place_stalls, comp.place_stalls);
  EXPECT_EQ(interp.place_stall_causes, comp.place_stall_causes);
}

// ---------------------------------------------------------------------------
// Lockstep equivalence on the five paper machine models (the sixth golden
// machine, stallcause, is held to it by the four-way harness)
// ---------------------------------------------------------------------------

TEST(CompiledLockstep, Fig2PipelineStepwise) {
  machines::SimplePipeline interp(500);
  machines::SimplePipeline comp(500, compiled_opts());
  ASSERT_NE(dynamic_cast<gen::CompiledEngine*>(&comp.engine()), nullptr);
  ASSERT_EQ(dynamic_cast<gen::CompiledEngine*>(&interp.engine()), nullptr);

  // Step the two engines side by side and compare after every single cycle.
  for (int cycle = 0; cycle < 1200; ++cycle) {
    interp.engine().step();
    comp.engine().step();
    ASSERT_EQ(interp.engine().clock(), comp.engine().clock());
    ASSERT_EQ(interp.engine().tokens_in_flight(), comp.engine().tokens_in_flight());
    ASSERT_EQ(interp.engine().stats().retired, comp.engine().stats().retired);
    ASSERT_EQ(interp.engine().stats().firings, comp.engine().stats().firings);
  }
  EXPECT_EQ(comp.engine().stats().retired, 500u);
  expect_stats_equal(interp.engine().stats(), comp.engine().stats());
}

TEST(CompiledLockstep, Fig5Processor) {
  using I = machines::Fig5Instr;
  const std::vector<I> prog = {
      I::alui(I::AluOp::add, 1, 0, 7),
      I::alui(I::AluOp::add, 2, 1, 1),   // RAW: exercises the L3 feedback path
      I::store(2, 0x100),
      I::load(3, 0x100),
      I::branch(2),
      I::alui(I::AluOp::add, 4, 0, 99),  // squashed by the branch
      I::alu(I::AluOp::mul, 5, 2, 3),
  };
  machines::Fig5Processor interp;
  machines::Fig5Processor comp(compiled_opts());
  std::vector<RetireEvent> ti, tc;
  record_retires(interp.engine(), ti);
  record_retires(comp.engine(), tc);

  interp.load(prog);
  comp.load(prog);
  interp.run();
  comp.run();

  EXPECT_EQ(ti, tc);
  expect_stats_equal(interp.engine().stats(), comp.engine().stats());
  for (unsigned r = 0; r < machines::Fig5Processor::kNumRegs; ++r)
    EXPECT_EQ(interp.reg(r), comp.reg(r)) << "r" << r;
  EXPECT_EQ(interp.alu_issues_forwarded(), comp.alu_issues_forwarded());
  EXPECT_EQ(interp.alu_issues_direct(), comp.alu_issues_direct());
}

TEST(CompiledLockstep, TomasuloOutOfOrderCore) {
  using I = machines::Fig5Instr;
  const std::vector<I> prog = {
      I::alui(I::AluOp::add, 1, 0, 3),
      I::alu(I::AluOp::mul, 2, 1, 1),   // dependent chain
      I::alu(I::AluOp::mul, 3, 2, 2),
      I::alui(I::AluOp::add, 4, 0, 5),  // independent — issues out of order
      I::alui(I::AluOp::add, 5, 4, 1),
      I::alu(I::AluOp::xor_op, 6, 3, 5),
  };
  machines::TomasuloCore interp;
  machines::TomasuloCore comp(4, 2, compiled_opts());
  std::vector<RetireEvent> ti, tc;
  record_retires(interp.engine(), ti);
  record_retires(comp.engine(), tc);

  interp.load(prog);
  comp.load(prog);
  interp.run();
  comp.run();

  EXPECT_EQ(ti, tc);
  expect_stats_equal(interp.engine().stats(), comp.engine().stats());
  for (unsigned r = 0; r < machines::TomasuloCore::kNumRegs; ++r)
    EXPECT_EQ(interp.reg(r), comp.reg(r)) << "r" << r;
  EXPECT_EQ(interp.observed_ooo_issue(), comp.observed_ooo_issue());
}

TEST(CompiledLockstep, StrongArmFullProgram) {
  const workloads::Workload* w = workloads::find("crc");
  ASSERT_NE(w, nullptr);
  const sys::Program prog = workloads::build(*w, w->test_scale);

  machines::StrongArmSim interp;
  machines::StrongArmConfig ccfg;
  ccfg.engine.backend = core::Backend::compiled;
  machines::StrongArmSim comp(ccfg);
  std::vector<RetireEvent> ti, tc;
  record_retires(interp.engine(), ti);
  record_retires(comp.engine(), tc);

  const machines::RunResult ri = interp.run(prog);
  const machines::RunResult rc = comp.run(prog);

  EXPECT_EQ(ri.cycles, rc.cycles);
  EXPECT_EQ(ri.instructions, rc.instructions);
  EXPECT_EQ(ri.output, rc.output);
  EXPECT_EQ(ri.exit_code, rc.exit_code);
  EXPECT_EQ(ri.icache_misses, rc.icache_misses);
  EXPECT_EQ(ri.dcache_misses, rc.dcache_misses);
  EXPECT_EQ(ti, tc);
  expect_stats_equal(interp.engine().stats(), comp.engine().stats());
}

TEST(CompiledLockstep, XScaleFullProgram) {
  const workloads::Workload* w = workloads::find("g721");
  ASSERT_NE(w, nullptr);
  const sys::Program prog = workloads::build(*w, w->test_scale);

  machines::XScaleSim interp;
  machines::XScaleConfig ccfg;
  ccfg.engine.backend = core::Backend::compiled;
  machines::XScaleSim comp(ccfg);
  std::vector<RetireEvent> ti, tc;
  record_retires(interp.engine(), ti);
  record_retires(comp.engine(), tc);

  const machines::RunResult ri = interp.run(prog);
  const machines::RunResult rc = comp.run(prog);

  EXPECT_EQ(ri.cycles, rc.cycles);
  EXPECT_EQ(ri.instructions, rc.instructions);
  EXPECT_EQ(ri.output, rc.output);
  EXPECT_EQ(ri.mispredicts, rc.mispredicts);
  EXPECT_EQ(ti, tc);
  expect_stats_equal(interp.engine().stats(), comp.engine().stats());
}

// ---------------------------------------------------------------------------
// One-token scan early-outs
// ---------------------------------------------------------------------------
// The table loop tests a one-token stage list in place instead of copying it
// into a snapshot. Stage S (capacity 1) holds places A and B; A's only
// transition retires an instruction of type T, B has none. Each case parks
// one token the scan at A must pass over: firing it would retire it through
// A's transition, refusing it would record a stall at A. The generated
// backend walks A as a uniform place and B through its (empty) Fig 6 row.

struct LatchNet {
  core::Net net{"latch"};
  core::PlaceId a = core::kNoPlace, b = core::kNoPlace;
  core::TypeId ty = core::kNoType;

  explicit LatchNet(std::uint32_t a_delay) {
    const core::StageId s = net.add_stage("S", 1);
    a = net.add_place("A", s, a_delay);
    b = net.add_place("B", s, 1);
    ty = net.add_type("T");
    net.add_transition("A.retire", ty).from(a).to(net.end_place());
  }
};

/// LatchNet's schedule as gen::emit_simulator() would print it, written by
/// hand (the net binds no machine type, so it cannot be emitted):
/// StaticEngine::build() verifies every table against the live net.
struct LatchMachine {};

template <std::uint32_t ADelay>
struct LatchTraits {
  using Machine = LatchMachine;
  static constexpr const char* kModelName = "latch";

  static constexpr unsigned kNumStages = 2;
  static constexpr unsigned kNumPlaces = 3;
  static constexpr unsigned kNumTypes = 1;
  static constexpr unsigned kNumTransitions = 1;
  static constexpr unsigned kNumOrder = 2;
  static constexpr unsigned kNumTwoList = 0;
  static constexpr unsigned kNumBody = 1;
  static constexpr unsigned kNumIndependent = 0;

  static constexpr std::int16_t kPlaceStage[kNumPlaces] = {0, 1, 1};  // end, A, B
  static constexpr std::uint32_t kPlaceDelay[kNumPlaces] = {1, ADelay, 1};
  static constexpr std::uint32_t kStageReserve[kNumStages] = {64, 1};
  static constexpr std::uint32_t kInstrPoolHint = 1;
  static constexpr std::uint32_t kResPoolHint = 1;
  static constexpr std::int16_t kProcessOrder[kNumOrder] = {1 /*A*/, 2 /*B*/};
  static constexpr std::int16_t kTwoListStages[1] = {0};  // none
  static constexpr gen::CandRange kCell[kNumPlaces * kNumTypes] = {{0, 0}, {0, 1}, {1, 0}};
  static constexpr gen::StaticTx kBody[kNumBody] = {
      {0, 0, 0, 0, 0, 0, 1, 1, true},  // A.retire
  };
  static constexpr gen::StaticTx kIndependent[1] = {{}};  // none
  static constexpr std::int16_t kResIn[1] = {0};         // none
  static constexpr gen::StaticOutArc kOutArcs[1] = {{0, false}};
  static constexpr const char* kGuardSym[kNumTransitions] = {""};
  static constexpr const char* kActionSym[kNumTransitions] = {""};
  static constexpr bool kHasGuard[kNumTransitions] = {false};
  static constexpr bool kHasAction[kNumTransitions] = {false};

  static bool guard(int, Machine&, core::FireCtx&) { return true; }
  static void action(int, Machine&, core::FireCtx&) {}
};

/// An engine of `o.backend` over `net`, built; the generated backend runs
/// `Traits`, hand-written tables for a net that binds no machine type.
template <typename Traits>
std::unique_ptr<core::Engine> make_built_engine(core::Net& net, LatchMachine& machine,
                                                const core::EngineOptions& o) {
  std::unique_ptr<core::Engine> eng;
  if (o.backend == core::Backend::compiled) {
    eng = std::make_unique<gen::CompiledEngine>(net, o);
  } else if (o.backend == core::Backend::generated) {
    eng = std::make_unique<gen::StaticEngine<Traits>>(net, o);
    eng->set_machine(&machine);
  } else {
    eng = std::make_unique<core::Engine>(net, o);
  }
  eng->build();
  return eng;
}

enum class Parked { reservation, other_place, not_ready };

/// Park one token in S, then step `cycles` cycles; the stats after each.
std::vector<core::Stats> run_parked(core::Backend backend, Parked what, int cycles) {
  const std::uint32_t a_delay = what == Parked::not_ready ? 6 : 1;
  LatchNet m(a_delay);
  LatchMachine machine;
  core::EngineOptions o;
  o.backend = backend;
  const std::unique_ptr<core::Engine> eng =
      a_delay == 6 ? make_built_engine<LatchTraits<6>>(m.net, machine, o)
                   : make_built_engine<LatchTraits<1>>(m.net, machine, o);
  if (what == Parked::reservation) {
    eng->emit_reservation(m.a);
  } else {
    core::InstructionToken* tok = eng->acquire_pooled_instruction();
    tok->type = m.ty;
    eng->emit_instruction(tok, what == Parked::other_place ? m.b : m.a);
  }
  std::vector<core::Stats> after;
  for (int c = 0; c < cycles; ++c) {
    eng->step();
    after.push_back(eng->stats());
  }
  return after;
}

/// Step the three backends over the parked token for `cycles` cycles: they
/// agree after every cycle, and A neither fires nor stalls.
std::vector<core::Stats> expect_passed_over_at_a(Parked what, int cycles) {
  const unsigned a = static_cast<unsigned>(LatchNet(1).a);
  const std::vector<core::Stats> interp = run_parked(core::Backend::interpreted, what, cycles);
  const std::vector<core::Stats> comp = run_parked(core::Backend::compiled, what, cycles);
  const std::vector<core::Stats> gen = run_parked(core::Backend::generated, what, cycles);
  for (int c = 0; c < cycles; ++c) {
    SCOPED_TRACE("cycle " + std::to_string(c));
    expect_stats_equal(interp[c], comp[c]);
    expect_stats_equal(interp[c], gen[c]);
    EXPECT_EQ(comp[c].firings, 0u);
    EXPECT_EQ(comp[c].place_stalls[a], 0u);
  }
  return comp;
}

TEST(OneTokenScan, PassesOverAReservationToken) {
  const std::vector<core::Stats> s = expect_passed_over_at_a(Parked::reservation, 4);
  for (std::uint64_t n : s.back().place_stalls) EXPECT_EQ(n, 0u);
}

TEST(OneTokenScan, PassesOverATokenOfAnotherPlaceOfTheStage) {
  // The token is ready in B, which has no transition: it stalls there every
  // cycle from its ready cycle on, so only the place check keeps it from A.
  const std::vector<core::Stats> s = expect_passed_over_at_a(Parked::other_place, 4);
  EXPECT_EQ(s.back().place_stalls[static_cast<unsigned>(LatchNet(1).b)], 3u);
}

TEST(OneTokenScan, PassesOverATokenNotReadyYet) {
  // Emitted at cycle 0 into A (delay 6): ready from cycle 6, when it retires.
  const std::vector<core::Stats> s = expect_passed_over_at_a(Parked::not_ready, 6);
  for (std::uint64_t n : s.back().place_stalls) EXPECT_EQ(n, 0u);
  for (const core::Backend b :
       {core::Backend::interpreted, core::Backend::compiled, core::Backend::generated})
    EXPECT_EQ(run_parked(b, Parked::not_ready, 7).back().retired, 1u)
        << "backend " << static_cast<int>(b);
}

// ---------------------------------------------------------------------------
// Deadlock watchdog
// ---------------------------------------------------------------------------
// Every backend runs its own loop around the shared inline cycle tail. Stage
// L1 holds one token whose only transition's guard refuses it, so nothing
// ever fires again and the watchdog must stop the engine.

struct DeadNet {
  core::Net net{"dead"};
  core::PlaceId l1 = core::kNoPlace;
  core::TypeId ty = core::kNoType;

  DeadNet() {
    l1 = net.add_place("L1", net.add_stage("L1", 1));
    ty = net.add_type("T");
    net.add_transition("never", ty)
        .from(l1)
        .guard([](void*, core::FireCtx&) { return false; }, nullptr)
        .to(net.end_place());
  }
};

/// DeadNet's schedule, written by hand like LatchTraits; its guard refuses.
struct DeadTraits {
  using Machine = LatchMachine;
  static constexpr const char* kModelName = "dead";

  static constexpr unsigned kNumStages = 2;
  static constexpr unsigned kNumPlaces = 2;
  static constexpr unsigned kNumTypes = 1;
  static constexpr unsigned kNumTransitions = 1;
  static constexpr unsigned kNumOrder = 1;
  static constexpr unsigned kNumTwoList = 0;
  static constexpr unsigned kNumBody = 1;
  static constexpr unsigned kNumIndependent = 0;

  static constexpr std::int16_t kPlaceStage[kNumPlaces] = {0, 1};  // end, L1
  static constexpr std::uint32_t kPlaceDelay[kNumPlaces] = {1, 1};
  static constexpr std::uint32_t kStageReserve[kNumStages] = {64, 1};
  static constexpr std::uint32_t kInstrPoolHint = 1;
  static constexpr std::uint32_t kResPoolHint = 1;
  static constexpr std::int16_t kProcessOrder[kNumOrder] = {1 /*L1*/};
  static constexpr std::int16_t kTwoListStages[1] = {0};  // none
  static constexpr gen::CandRange kCell[kNumPlaces * kNumTypes] = {{0, 0}, {0, 1}};
  static constexpr gen::StaticTx kBody[kNumBody] = {
      {0, 0, 0, 0, 0, 0, 1, 1, true},  // never
  };
  static constexpr gen::StaticTx kIndependent[1] = {{}};  // none
  static constexpr std::int16_t kResIn[1] = {0};         // none
  static constexpr gen::StaticOutArc kOutArcs[1] = {{0, false}};
  static constexpr const char* kGuardSym[kNumTransitions] = {""};
  static constexpr const char* kActionSym[kNumTransitions] = {""};
  static constexpr bool kHasGuard[kNumTransitions] = {true};
  static constexpr bool kHasAction[kNumTransitions] = {false};

  static bool guard(int, Machine&, core::FireCtx&) { return false; }
  static void action(int, Machine&, core::FireCtx&) {}
};

TEST(EngineWatchdog, DeadlockStopsEngine) {
  // The token is ready from cycle 1 and refused every cycle; the watchdog
  // trips once more than deadlock_limit cycles pass without a firing or a
  // retirement. Every backend stops at that same cycle, with the same report,
  // whether it runs one long run() or one step() per cycle.
  core::EngineOptions o;
  o.deadlock_limit = 50;
  const core::Cycle stop_at = o.deadlock_limit + 1;
  for (const core::Backend b :
       {core::Backend::interpreted, core::Backend::compiled, core::Backend::generated}) {
    for (const bool stepped : {false, true}) {
      SCOPED_TRACE("backend " + std::to_string(static_cast<int>(b)) +
                   (stepped ? ", step()" : ", run()"));
      DeadNet m;
      LatchMachine machine;
      o.backend = b;
      const std::unique_ptr<core::Engine> eng = make_built_engine<DeadTraits>(m.net, machine, o);
      core::InstructionToken* tok = eng->acquire_pooled_instruction();
      tok->type = m.ty;
      eng->emit_instruction(tok, m.l1);

      testing::internal::CaptureStderr();
      std::uint64_t ran = 0;
      if (stepped) {
        for (bool more = true; more && ran < 10000; ++ran) more = eng->step();
      } else {
        ran = eng->run(10000);
      }
      EXPECT_EQ(testing::internal::GetCapturedStderr(),
                "[error] engine: no activity for 50 cycles with tokens in flight — model "
                "deadlock in net 'dead'\n");
      EXPECT_TRUE(eng->stopped());
      EXPECT_EQ(ran, stop_at);
      EXPECT_EQ(eng->clock(), stop_at);
      EXPECT_EQ(eng->stats().cycles, stop_at);
      EXPECT_EQ(eng->stats().firings, 0u);
      EXPECT_EQ(eng->tokens_in_flight(), 1u);
      // A stopped engine runs nothing more.
      EXPECT_FALSE(eng->step());
      EXPECT_EQ(eng->run(10), 0u);
      EXPECT_EQ(eng->clock(), stop_at);
    }
  }
}

// ---------------------------------------------------------------------------
// Lowering-pass invariants
// ---------------------------------------------------------------------------

TEST(CompiledModelLowering, Fig6RunsMatchInterpretedCandidates) {
  machines::Fig5Processor comp(compiled_opts());
  auto* ce = dynamic_cast<gen::CompiledEngine*>(&comp.engine());
  ASSERT_NE(ce, nullptr);
  const gen::CompiledModel& cm = ce->compiled();
  const core::Net& net = comp.net();

  ASSERT_EQ(cm.num_places, net.num_places());
  ASSERT_EQ(cm.num_types, net.num_types());
  for (unsigned p = 0; p < cm.num_places; ++p) {
    for (unsigned ty = 0; ty < cm.num_types; ++ty) {
      const auto& interp_cands =
          ce->candidates(static_cast<core::PlaceId>(p), static_cast<core::TypeId>(ty));
      const gen::CandRange& r =
          cm.candidates(static_cast<core::PlaceId>(p), static_cast<core::TypeId>(ty));
      ASSERT_EQ(interp_cands.size(), r.count);
      for (unsigned i = 0; i < r.count; ++i)
        EXPECT_EQ(interp_cands[i]->id(), cm.body[r.begin + i].id)
            << "cell (" << p << ", " << ty << ") slot " << i;
    }
  }
  // Every sub-net transition appears exactly once in the body table.
  std::vector<unsigned> seen(net.num_transitions(), 0);
  for (const gen::CompiledTransition& ct : cm.body) ++seen[static_cast<unsigned>(ct.id)];
  for (const gen::CompiledTransition& ct : cm.independent)
    ++seen[static_cast<unsigned>(ct.id)];
  for (unsigned t = 0; t < net.num_transitions(); ++t) EXPECT_EQ(seen[t], 1u) << "t" << t;

  // Process order and two-list set mirror the engine's build products.
  EXPECT_EQ(cm.order, ce->process_order());
  for (core::StageId s : cm.two_list_stages) EXPECT_TRUE(ce->stage_is_two_list(s));
}

TEST(CompiledModelLowering, SimpleShapePrecomputed) {
  machines::SimplePipeline comp(1, compiled_opts());
  auto* ce = dynamic_cast<gen::CompiledEngine*>(&comp.engine());
  ASSERT_NE(ce, nullptr);
  // U2/U3/U4 are plain latch-to-latch moves; the lowering must take the
  // fast-path flag and record the destination of the move arc.
  for (const gen::CompiledTransition& ct : ce->compiled().body) {
    EXPECT_TRUE(ct.simple);
    EXPECT_EQ(ct.move_place, comp.net().transition(ct.id).outputs()[0].place);
  }
}

TEST(CompiledModelLowering, PoolSizingAndPreResolvedStages) {
  machines::Fig5Processor comp(compiled_opts());
  auto* ce = dynamic_cast<gen::CompiledEngine*>(&comp.engine());
  ASSERT_NE(ce, nullptr);
  const gen::CompiledModel& cm = ce->compiled();
  const core::Net& net = comp.net();

  // Pool sizing: bounded stages reserve their capacity (they can never hold
  // more), up to one 64-slot batch; unlimited stages a non-zero batch; the
  // arena hints cover every bounded slot.
  ASSERT_EQ(cm.stage_reserve.size(), net.num_stages());
  std::uint64_t bounded = 0;
  for (unsigned s = 0; s < net.num_stages(); ++s) {
    const core::PipelineStage& st = net.stage(static_cast<core::StageId>(s));
    if (st.unlimited()) {
      EXPECT_GT(cm.stage_reserve[s], 0u) << "stage " << s;
    } else {
      EXPECT_EQ(cm.stage_reserve[s], std::min(st.capacity(), 64u)) << "stage " << s;
      bounded += st.capacity();
    }
  }
  EXPECT_EQ(cm.instr_pool_hint, bounded);
  EXPECT_EQ(cm.res_pool_hint, bounded);

  // The owning-stage table the engine resolves its stage pointers from at
  // build() agrees with the net's id mapping everywhere.
  ASSERT_EQ(cm.place_stage.size(), net.num_places());
  for (unsigned p = 0; p < net.num_places(); ++p)
    EXPECT_EQ(&net.stage(cm.place_stage[p]), &net.stage_of(static_cast<core::PlaceId>(p)))
        << "place " << p;
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

// The engine TU (gen::emit_simulator without a main) carries the schedule
// tables as constexpr Traits data, with place names in comments.
TEST(Exporters, EmitCppContainsScheduleTables) {
  machines::StrongArmConfig ccfg;
  ccfg.engine.backend = core::Backend::compiled;
  machines::StrongArmSim sim(ccfg);
  auto* ce = dynamic_cast<gen::CompiledEngine*>(&sim.engine());
  ASSERT_NE(ce, nullptr);

  const std::string src = gen::emit_simulator(ce->compiled(), sim.net());
  EXPECT_NE(src.find("namespace rcpn_gen {\nnamespace {\nnamespace StrongArm {"),
            std::string::npos);
  EXPECT_NE(src.find("kProcessOrder"), std::string::npos);
  EXPECT_NE(src.find("kTwoListStages"), std::string::npos);
  EXPECT_NE(src.find("kCell["), std::string::npos);
  EXPECT_NE(src.find("kBody["), std::string::npos);
  EXPECT_NE(src.find("kStageReserve"), std::string::npos);
  EXPECT_NE(src.find("kInstrPoolHint"), std::string::npos);
  // Names travel along as comments.
  const gen::CompiledModel& cm = ce->compiled();
  ASSERT_FALSE(cm.order.empty());
  const std::size_t order_at = src.find("kProcessOrder[");
  ASSERT_NE(order_at, std::string::npos);
  const std::string order_line = src.substr(order_at, src.find('\n', order_at) - order_at);
  EXPECT_NE(order_line.find("/*" + sim.net().place(cm.order.front()).name + "*/"),
            std::string::npos)
      << order_line;
  EXPECT_NE(src.find("// " + sim.net().place(cm.order.front()).name + "\n"),
            std::string::npos);
  EXPECT_NE(src.find("constexpr"), std::string::npos);
}

TEST(Exporters, EmitDotDescribesTheNet) {
  machines::SimplePipeline pipe(1);
  const std::string dot = gen::emit_dot(pipe.net());
  EXPECT_NE(dot.find("digraph \"Fig2\""), std::string::npos);
  EXPECT_NE(dot.find("U2"), std::string::npos);
  EXPECT_NE(dot.find("cluster_s"), std::string::npos);
  EXPECT_NE(dot.find("doublecircle"), std::string::npos);  // virtual end place
  EXPECT_NE(dot.find("(independent)"), std::string::npos);  // the U1 generator
  // Balanced braces, roughly: it must at least close what it opens.
  EXPECT_EQ(std::count(dot.begin(), dot.end(), '{'),
            std::count(dot.begin(), dot.end(), '}'));
}

}  // namespace
}  // namespace rcpn
