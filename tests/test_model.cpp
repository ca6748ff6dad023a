// Tests for the declarative modeling API: ModelBuilder build-time
// validation, the Simulator<M> facade (reset / re-run round trips, typed
// machine context), and the equivalence of a ModelBuilder-built Figure 2
// pipeline with a legacy hand-wired core::Net — cycle for cycle.
#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "machines/simple_pipeline.hpp"
#include "model/model_builder.hpp"
#include "model/simulator.hpp"

namespace rcpn::model {
namespace {

using core::FireCtx;

// ---------------------------------------------------------------------------
// Builder validation
// ---------------------------------------------------------------------------

/// Expect build() to throw a ModelError whose message contains `fragment`.
template <typename Builder>
void expect_build_error(Builder& b, const std::string& fragment) {
  try {
    b.build();
    FAIL() << "expected ModelError containing '" << fragment << "'";
  } catch (const ModelError& e) {
    EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
        << "actual message: " << e.what();
  }
}

TEST(ModelValidation, DuplicateStageName) {
  ModelBuilder<> b("m");
  b.add_stage("S", 1);
  b.add_stage("S", 1);
  expect_build_error(b, "duplicate stage name 'S'");
}

TEST(ModelValidation, DuplicatePlaceName) {
  ModelBuilder<> b("m");
  const StageHandle s = b.add_stage("S", 1);
  b.add_place("P", s);
  b.add_place("P", s);
  expect_build_error(b, "duplicate place name 'P'");
}

TEST(ModelValidation, DuplicateTypeName) {
  ModelBuilder<> b("m");
  b.add_type("T");
  b.add_type("T");
  expect_build_error(b, "duplicate operation-class");
}

TEST(ModelValidation, ZeroCapacityStage) {
  ModelBuilder<> b("m");
  b.add_stage("S", 0);
  expect_build_error(b, "zero capacity");
}

TEST(ModelValidation, ZeroDelayPlace) {
  ModelBuilder<> b("m");
  const StageHandle s = b.add_stage("S", 1);
  b.add_place("P", s, /*delay=*/0);
  expect_build_error(b, "zero delay");
}

TEST(ModelValidation, UnreachableStage) {
  ModelBuilder<> b("m");
  const StageHandle s1 = b.add_stage("S1", 1);
  b.add_stage("ORPHAN", 2);  // no place ever binds to it
  b.add_place("P", s1);
  expect_build_error(b, "stage 'ORPHAN' is unreachable: no place binds to it");
}

TEST(ModelValidation, ReadsStateWithDanglingHandle) {
  ModelBuilder<> b("m");
  const TypeHandle ty = b.add_type("T");
  const StageHandle s = b.add_stage("S", 1);
  const PlaceHandle p = b.add_place("P", s);
  b.add_transition("t", ty).from(p).reads_state(PlaceHandle{}).to(b.end());
  expect_build_error(b, "reads_state: dangling place handle");
}

TEST(ModelValidation, ForceTwoListOnForeignStage) {
  ModelBuilder<> other("other");
  const StageHandle foreign = other.add_stage("S", 1);
  ModelBuilder<> b("m");
  try {
    b.force_two_list(foreign, true);
    FAIL() << "expected ModelError";
  } catch (const ModelError& e) {
    EXPECT_NE(std::string(e.what()).find("belongs to a different model"),
              std::string::npos)
        << "actual message: " << e.what();
    EXPECT_NE(std::string(e.what()).find("force_two_list()"), std::string::npos)
        << "actual message: " << e.what();
  }
}

TEST(ModelValidation, ErrorMessagesNameTheModelAndEntity) {
  // The message contract the other tests rely on: "model '<name>':" prefix
  // and the offending entity named in the body.
  ModelBuilder<> b("xscale-variant");
  b.add_stage("F1", 1);
  b.add_stage("F1", 1);
  try {
    b.build();
    FAIL() << "expected ModelError";
  } catch (const ModelError& e) {
    EXPECT_NE(std::string(e.what()).find("model 'xscale-variant':"), std::string::npos)
        << "actual message: " << e.what();
    EXPECT_NE(std::string(e.what()).find("duplicate stage name 'F1'"),
              std::string::npos)
        << "actual message: " << e.what();
  }
}

TEST(ModelValidation, TransitionFromDanglingPlaceHandle) {
  ModelBuilder<> b("m");
  const TypeHandle ty = b.add_type("T");
  PlaceHandle never_declared;  // default-constructed: dangling
  EXPECT_FALSE(never_declared.valid());
  b.add_transition("t", ty).from(never_declared).to(b.end());
  expect_build_error(b, "dangling place handle");
}

TEST(ModelValidation, HandleFromAnotherModel) {
  ModelBuilder<> other("other");
  const StageHandle foreign_stage = other.add_stage("S", 1);
  const PlaceHandle foreign = other.add_place("P", foreign_stage);

  ModelBuilder<> b("m");
  const TypeHandle ty = b.add_type("T");
  const StageHandle s = b.add_stage("S", 1);
  const PlaceHandle p = b.add_place("P", s);
  b.add_transition("t", ty).from(p).to(foreign);
  expect_build_error(b, "belongs to a different model");
}

TEST(ModelValidation, PlaceOnForeignStage) {
  ModelBuilder<> other("other");
  const StageHandle foreign = other.add_stage("S", 1);

  ModelBuilder<> b("m");
  b.add_place("P", foreign);
  expect_build_error(b, "belongs to a different model");
}

TEST(ModelValidation, MissingTriggerArc) {
  ModelBuilder<> b("m");
  const TypeHandle ty = b.add_type("T");
  const StageHandle s = b.add_stage("S", 1);
  const PlaceHandle p = b.add_place("P", s);
  b.add_transition("t", ty).to(p);
  expect_build_error(b, "no trigger arc");
}

TEST(ModelValidation, TwoTriggerArcs) {
  ModelBuilder<> b("m");
  const TypeHandle ty = b.add_type("T");
  const StageHandle s = b.add_stage("S", 2);
  const PlaceHandle p1 = b.add_place("P1", s);
  const PlaceHandle p2 = b.add_place("P2", s);
  b.add_transition("t", ty).from(p1).from(p2).to(b.end());
  expect_build_error(b, "more than one trigger arc");
}

TEST(ModelValidation, MissingMoveArc) {
  ModelBuilder<> b("m");
  const TypeHandle ty = b.add_type("T");
  const StageHandle s = b.add_stage("S", 1);
  const PlaceHandle p = b.add_place("P", s);
  b.add_transition("t", ty).from(p);
  expect_build_error(b, "never moved");
}

TEST(ModelValidation, IndependentTransitionWithTriggerArc) {
  ModelBuilder<> b("m");
  const StageHandle s = b.add_stage("S", 1);
  const PlaceHandle p = b.add_place("P", s);
  b.add_independent_transition("f").from(p).to(p);
  expect_build_error(b, "cannot have trigger arcs");
}

// The one-move rule covers independent transitions too: the engines'
// to() arc builder asserts it, so a second move arc must be a ModelError in
// every build, not an abort (Debug) or a silently accepted model (release).
TEST(ModelValidation, IndependentTransitionWithTwoMoveArcs) {
  ModelBuilder<> b("m");
  const StageHandle s = b.add_stage("S", 2);
  const PlaceHandle p1 = b.add_place("P1", s);
  const PlaceHandle p2 = b.add_place("P2", s);
  b.add_independent_transition("Fetch").to(p1).to(p2);
  expect_build_error(b, "transition 'Fetch': a transition moves its token to one place");
}

TEST(ModelValidation, DanglingTypeHandle) {
  ModelBuilder<> b("m");
  const StageHandle s = b.add_stage("S", 1);
  const PlaceHandle p = b.add_place("P", s);
  b.add_transition("t", TypeHandle{}).from(p).to(b.end());
  expect_build_error(b, "dangling operation-class handle");
}

TEST(ModelValidation, TypedGuardWithoutMachineContext) {
  struct Ctx {
    int x = 0;
  };
  ModelBuilder<Ctx> b("m");
  const TypeHandle ty = b.add_type("T");
  const StageHandle s = b.add_stage("S", 1);
  const PlaceHandle p = b.add_place("P", s);
  b.add_transition("t", ty)
      .from(p)
      .guard([](Ctx& c, FireCtx&) { return c.x == 0; })
      .to(b.end());
  try {
    b.build(nullptr);
    FAIL() << "expected ModelError";
  } catch (const ModelError& e) {
    EXPECT_NE(std::string(e.what()).find("no machine context"), std::string::npos);
  }
}

TEST(ModelValidation, InputArcFromEndPlace) {
  ModelBuilder<> b("m");
  const TypeHandle ty = b.add_type("T");
  const StageHandle s = b.add_stage("S", 1);
  const PlaceHandle p = b.add_place("P", s);
  b.add_transition("t", ty).from(b.end()).to(p);
  expect_build_error(b, "consumes from an end place");
}

TEST(ModelValidation, ReservationArcFromDeclaredEndPlace) {
  ModelBuilder<> b("m");
  const TypeHandle ty = b.add_type("T");
  const StageHandle s = b.add_stage("S", 1);
  const PlaceHandle p = b.add_place("P", s);
  const PlaceHandle done = b.add_end_place("done");
  b.add_transition("t", ty).from(p).consume_reservation(done).to(b.end());
  expect_build_error(b, "consumes from an end place");
}

TEST(ModelValidation, ZeroMaxFiresPerCycle) {
  ModelBuilder<> b("m");
  const StageHandle s = b.add_stage("S", 1);
  const PlaceHandle p = b.add_place("P", s);
  b.add_independent_transition("f").max_fires_per_cycle(0).to(p);
  expect_build_error(b, "max_fires_per_cycle must be >= 1");
}

// Shapes no engine can fire: each would overflow a hot loop's per-firing
// scratch array or take one reservation token twice, so build() refuses
// them, naming the transition and the limit.
TEST(ModelValidation, MoreConsumeArcsThanTheEngineLimit) {
  ModelBuilder<> b("m");
  const TypeHandle ty = b.add_type("T");
  const PlaceHandle p = b.add_place("P", b.add_stage("S", 1));
  const StageHandle r = b.add_stage("R", core::kMaxReservationInputs + 1);
  std::vector<PlaceHandle> res;
  for (unsigned i = 0; i <= core::kMaxReservationInputs; ++i)
    res.push_back(b.add_place("R" + std::to_string(i), r));
  auto t = b.add_transition("wide", ty);
  t.from(p).to(b.end());
  for (const PlaceHandle& q : res) t.consume_reservation(q);
  expect_build_error(b, "transition 'wide': 5 consume arcs, more than the limit of 4");
}

TEST(ModelValidation, ArcsTouchingMoreStagesThanTheEngineLimit) {
  ModelBuilder<> b("m");
  const TypeHandle ty = b.add_type("T");
  const PlaceHandle p = b.add_place("P", b.add_stage("S", 1));
  // The trigger's stage, the end stage and seven emit stages: nine.
  std::vector<PlaceHandle> outs;
  for (unsigned i = 0; i + 2 <= core::kMaxArcStages; ++i)
    outs.push_back(b.add_place("Q" + std::to_string(i),
                               b.add_stage("S" + std::to_string(i), 1)));
  auto t = b.add_transition("spread", ty);
  t.from(p).to(b.end());
  for (const PlaceHandle& q : outs) t.emit_reservation(q);
  expect_build_error(b,
                     "transition 'spread': its arcs touch 9 distinct stages, more than "
                     "the limit of 8");
}

TEST(ModelValidation, TwoConsumeArcsOnOnePlace) {
  ModelBuilder<> b("m");
  const TypeHandle ty = b.add_type("T");
  const PlaceHandle p = b.add_place("P", b.add_stage("S", 1));
  const PlaceHandle r = b.add_place("R", b.add_stage("RS", 2));
  b.add_transition("greedy", ty).from(p).consume_reservation(r).consume_reservation(r).to(
      b.end());
  expect_build_error(b, "transition 'greedy': two consume arcs on place 'R'");
}

TEST(ModelValidation, ArcLimitsAreInclusive) {
  // Exactly at both limits builds: four consume arcs whose places, with the
  // trigger's stage, the end stage and two emit stages, span eight stages.
  ModelBuilder<> b("m");
  const TypeHandle ty = b.add_type("T");
  const PlaceHandle p = b.add_place("P", b.add_stage("S", 1));
  std::vector<PlaceHandle> ins, outs;
  for (unsigned i = 0; i < core::kMaxReservationInputs; ++i)
    ins.push_back(b.add_place("R" + std::to_string(i), b.add_stage("RS" + std::to_string(i), 1)));
  for (unsigned i = 0; i < 2; ++i)
    outs.push_back(b.add_place("Q" + std::to_string(i), b.add_stage("QS" + std::to_string(i), 1)));
  auto t = b.add_transition("edge", ty);
  t.from(p).to(b.end());
  for (const PlaceHandle& q : ins) t.consume_reservation(q);
  for (const PlaceHandle& q : outs) t.emit_reservation(q);
  EXPECT_NO_THROW(b.build());
}

TEST(ModelValidation, GuardOverrideLastWriterWinsAcrossStatefulAndStateless) {
  // A capturing guard replaced by a capture-less one (different internal
  // storage) must still be last-writer-wins, like core::TransitionBuilder.
  ModelBuilder<> b("m");
  const StageHandle s = b.add_stage("S", 1);
  const PlaceHandle p = b.add_place("P", s);
  const TypeHandle ty = b.add_type("T");
  bool captured_ran = false;
  const TransitionHandle t = b.add_transition("t", ty)
                                 .from(p)
                                 .guard([&captured_ran](FireCtx&) {
                                   captured_ran = true;
                                   return false;  // would block forever
                                 })
                                 .guard([](FireCtx&) { return true; })  // override
                                 .to(b.end());
  core::Net& net = b.build();
  core::Engine eng(net);
  eng.build();
  core::InstructionToken* tok = eng.acquire_pooled_instruction();
  tok->type = ty;
  eng.emit_instruction(tok, p);
  eng.step();
  eng.step();
  EXPECT_FALSE(captured_ran);
  EXPECT_EQ(eng.stats().transition_fires[static_cast<unsigned>(t.id())], 1u);
}

TEST(ModelValidation, BuildTwice) {
  ModelBuilder<> b("m");
  b.build();
  expect_build_error(b, "build() called twice");
}

TEST(ModelValidation, ValidModelLowersWithMatchingIds) {
  ModelBuilder<> b("m");
  const StageHandle s1 = b.add_stage("S1", 1);
  const StageHandle s2 = b.add_stage("S2", 3);
  const PlaceHandle p1 = b.add_place("P1", s1);
  const PlaceHandle p2 = b.add_place("P2", s2, /*delay=*/2);
  const PlaceHandle extra_end = b.add_end_place("done");
  const TypeHandle ty = b.add_type("T");
  const TransitionHandle t1 = b.add_transition("t1", ty).from(p1, 1).to(p2);
  const TransitionHandle t2 = b.add_transition("t2", ty).from(p2).to(extra_end);

  core::Net& net = b.build();
  EXPECT_TRUE(b.built());
  EXPECT_EQ(net.find_stage("S1"), s1.id());
  EXPECT_EQ(net.find_stage("S2"), s2.id());
  EXPECT_EQ(net.find_place("P1"), p1.id());
  EXPECT_EQ(net.find_place("P2"), p2.id());
  EXPECT_EQ(net.find_place("done"), extra_end.id());
  EXPECT_EQ(net.find_type("T"), ty.id());
  EXPECT_EQ(net.stage(s2.id()).capacity(), 3u);
  EXPECT_EQ(net.place(p2.id()).delay, 2u);
  EXPECT_TRUE(net.stage_of(extra_end.id()).is_end());
  EXPECT_EQ(net.transition(t1.id()).name(), "t1");
  EXPECT_EQ(net.transition(t1.id()).trigger_priority(), 1);
  EXPECT_EQ(net.transition(t2.id()).name(), "t2");
}

TEST(ModelValidation, PriorityMethodSetsTriggerPriority) {
  ModelBuilder<> b("m");
  const StageHandle s = b.add_stage("S", 1);
  const PlaceHandle p = b.add_place("P", s);
  const TypeHandle ty = b.add_type("T");
  const TransitionHandle t =
      b.add_transition("t", ty).from(p).priority(3).delay(2).to(b.end());
  core::Net& net = b.build();
  EXPECT_EQ(net.transition(t.id()).trigger_priority(), 3);
  EXPECT_EQ(net.transition(t.id()).delay(), 2u);
}

// ---------------------------------------------------------------------------
// Engine typed machine context
// ---------------------------------------------------------------------------

TEST(EngineMachineContext, TypedRoundTrip) {
  core::Net net("ctx");
  core::Engine eng(net);
  int value = 42;
  eng.set_machine(&value);
  EXPECT_EQ(&eng.machine<int>(), &value);
  EXPECT_EQ(eng.machine<int>(), 42);
}

// ---------------------------------------------------------------------------
// Simulator facade
// ---------------------------------------------------------------------------

struct Counter {
  std::uint64_t to_generate = 0;
  std::uint64_t generated = 0;

  void load(std::uint64_t n) {
    to_generate = n;
    generated = 0;
  }
};

/// One-stage model: generate `to_generate` tokens, each retires after a
/// cycle in S.
class CounterSim {
 public:
  explicit CounterSim(std::uint64_t n)
      : sim_(
            "counter",
            [this](ModelBuilder<Counter>& b, Counter&) {
              const StageHandle s = b.add_stage("S", 1);
              p_ = b.add_place("S", s);
              ty_ = b.add_type("T");
              t_ = b.add_transition("t", ty_).from(p_).to(b.end());
              const core::TypeId ty = ty_;
              const core::PlaceId p = p_;
              b.add_independent_transition("gen")
                  .guard([](Counter& c, FireCtx&) { return c.generated < c.to_generate; })
                  .action([ty, p](Counter& c, FireCtx& ctx) {
                    core::InstructionToken* t = ctx.engine->acquire_pooled_instruction();
                    t->type = ty;
                    ++c.generated;
                    ctx.engine->emit_instruction(t, p);
                  })
                  .to(p_);
            },
            Counter{n, 0}) {}

  Simulator<Counter>& sim() { return sim_; }
  std::uint64_t run() {
    return sim_.drain([](const Counter& c) { return c.generated >= c.to_generate; },
                      1u << 20);
  }
  TransitionHandle t() const { return t_; }

 private:
  PlaceHandle p_;
  TypeHandle ty_;
  TransitionHandle t_;
  Simulator<Counter> sim_;
};

TEST(SimulatorFacade, RunsAndReports) {
  CounterSim cs(5);
  const std::uint64_t cycles = cs.run();
  EXPECT_GT(cycles, 0u);
  EXPECT_EQ(cs.sim().stats().retired, 5u);
  EXPECT_EQ(cs.sim().fires(cs.t()), 5u);
  EXPECT_EQ(cs.sim().machine().generated, 5u);
  const std::string rep = cs.sim().report();
  EXPECT_NE(rep.find("cycles"), std::string::npos);
  EXPECT_NE(rep.find("t:"), std::string::npos);
}

TEST(SimulatorFacade, ResetRerunRoundTripIsIdentical) {
  CounterSim cs(7);
  const std::uint64_t c1 = cs.run();
  const std::uint64_t retired1 = cs.sim().stats().retired;

  // load() resets the engine (clock, stats, tokens) then reloads the machine.
  cs.sim().load(std::uint64_t{7});
  EXPECT_EQ(cs.sim().clock(), 0u);
  EXPECT_EQ(cs.sim().stats().retired, 0u);
  EXPECT_EQ(cs.sim().machine().generated, 0u);

  const std::uint64_t c2 = cs.run();
  EXPECT_EQ(c1, c2);
  EXPECT_EQ(cs.sim().stats().retired, retired1);
  EXPECT_EQ(cs.sim().fires(cs.t()), 7u);
}

TEST(SimulatorFacade, FiresRejectsForeignOrDanglingHandles) {
  CounterSim cs(1);
  cs.run();
  EXPECT_EQ(cs.sim().fires(cs.t()), 1u);
  EXPECT_THROW(cs.sim().fires(TransitionHandle{}), ModelError);
  CounterSim other(1);
  EXPECT_THROW(cs.sim().fires(other.t()), ModelError);
}

TEST(SimulatorFacade, HooksFire) {
  CounterSim cs(3);
  std::uint64_t retired = 0;
  cs.sim().hooks().on_retire = [&](core::InstructionToken*) { ++retired; };
  cs.run();
  EXPECT_EQ(retired, 3u);
}

// ---------------------------------------------------------------------------
// Equivalence: ModelBuilder-built Fig 2 vs the legacy hand-wired net
// ---------------------------------------------------------------------------

/// The Figure 2 pipeline exactly as machines::SimplePipeline wired it before
/// the model API existed: raw core::Net ids, raw GuardFn/ActionFn delegates
/// with `this` as the environment (the only registration form the core layer
/// keeps; closures belong to the model layer).
class LegacyFig2 {
 public:
  explicit LegacyFig2(std::uint64_t to_generate)
      : net_("Fig2-legacy"), eng_(net_), to_generate_(to_generate) {
    const core::StageId s1 = net_.add_stage("L1", 1);
    const core::StageId s2 = net_.add_stage("L2", 1);
    l1_ = net_.add_place("L1", s1);
    l2_ = net_.add_place("L2", s2);
    type_a_ = net_.add_type("A");
    type_b_ = net_.add_type("B");

    u2_ = net_.add_transition("U2", type_a_).from(l1_).to(l2_).id();
    u3_ = net_.add_transition("U3", type_a_).from(l2_).to(net_.end_place()).id();
    u4_ = net_.add_transition("U4", type_b_).from(l1_).to(net_.end_place()).id();

    net_.add_independent_transition("U1")
        .guard(
            [](void* env, FireCtx&) {
              auto* self = static_cast<LegacyFig2*>(env);
              return self->generated_ < self->to_generate_;
            },
            this)
        .action(
            [](void* env, FireCtx& ctx) {
              auto* self = static_cast<LegacyFig2*>(env);
              core::InstructionToken* t = ctx.engine->acquire_pooled_instruction();
              t->type = (self->generated_ % 2 == 0) ? self->type_a_ : self->type_b_;
              ++self->generated_;
              ctx.engine->emit_instruction(t, self->l1_);
            },
            this)
        .to(l1_);

    eng_.build();
  }

  core::Engine& engine() { return eng_; }
  std::uint64_t generated() const { return generated_; }
  std::uint64_t to_generate() const { return to_generate_; }
  std::uint64_t fires(core::TransitionId t) const {
    return eng_.stats().transition_fires[static_cast<unsigned>(t)];
  }
  core::TransitionId u2() const { return u2_; }
  core::TransitionId u3() const { return u3_; }
  core::TransitionId u4() const { return u4_; }

 private:
  core::Net net_;
  core::Engine eng_;
  std::uint64_t to_generate_;
  std::uint64_t generated_ = 0;
  core::TypeId type_a_ = core::kNoType, type_b_ = core::kNoType;
  core::PlaceId l1_ = core::kNoPlace, l2_ = core::kNoPlace;
  core::TransitionId u2_ = -1, u3_ = -1, u4_ = -1;
};

TEST(ModelEquivalence, Fig2LockstepWithLegacyHandWiredNet) {
  for (const std::uint64_t n : {1ull, 2ull, 10ull, 101ull}) {
    LegacyFig2 legacy(n);
    machines::SimplePipeline modern(n);

    // Step both engines in lockstep; every cycle must agree on every
    // aggregate statistic — "cycle-for-cycle identical".
    std::uint64_t guard_cycles = 0;
    for (;;) {
      const bool legacy_done =
          legacy.generated() >= n && legacy.engine().tokens_in_flight() == 0;
      const bool modern_done =
          modern.generated() >= n && modern.engine().tokens_in_flight() == 0;
      EXPECT_EQ(legacy_done, modern_done) << "n=" << n << " cycle=" << guard_cycles;
      if (legacy_done || modern_done) break;

      legacy.engine().step();
      modern.engine().step();
      ++guard_cycles;
      ASSERT_LT(guard_cycles, 10'000u) << "lockstep run did not drain";

      const core::Stats& ls = legacy.engine().stats();
      const core::Stats& ms = modern.engine().stats();
      ASSERT_EQ(ls.cycles, ms.cycles);
      ASSERT_EQ(ls.firings, ms.firings) << "n=" << n << " cycle=" << guard_cycles;
      ASSERT_EQ(ls.retired, ms.retired) << "n=" << n << " cycle=" << guard_cycles;
      ASSERT_EQ(ls.fetched, ms.fetched) << "n=" << n << " cycle=" << guard_cycles;
      ASSERT_EQ(legacy.engine().tokens_in_flight(), modern.engine().tokens_in_flight());
    }

    // Final per-transition counts match (U2/U3/U4 share ids across the nets
    // because both declare them in the same order).
    EXPECT_EQ(legacy.fires(legacy.u2()), modern.u2_fires());
    EXPECT_EQ(legacy.fires(legacy.u3()), modern.u3_fires());
    EXPECT_EQ(legacy.fires(legacy.u4()), modern.u4_fires());
    EXPECT_EQ(legacy.engine().stats().cycles, modern.engine().stats().cycles);
  }
}

TEST(ModelEquivalence, Fig2RunHelperMatchesLockstepCycleCount) {
  LegacyFig2 legacy(10);
  while (!(legacy.generated() >= 10 && legacy.engine().tokens_in_flight() == 0))
    legacy.engine().step();

  machines::SimplePipeline modern(10);
  const std::uint64_t cycles = modern.run();
  EXPECT_EQ(cycles, legacy.engine().stats().cycles);
}

}  // namespace
}  // namespace rcpn::model
