// The simulator emitter (gen::emit_simulator) and its contract:
//
//  * determinism — two independently constructed instances of the same model
//    emit byte-identical sources (the program and the no-main engine TU
//    both); CI's generate→compile→verify pipeline depends on regeneration
//    being a pure function of the model description;
//  * coverage — every golden machine is fully emittable (every guard/action a
//    named delegate, machine type + includes registered), and the emitted
//    source contains the tables, the direct-call dispatch, the registrar and
//    (in the program) the session main() over the inlined runtime;
//  * refusal — models with anonymous closures are rejected with the offending
//    transitions named; Backend::generated without a linked generated TU is a
//    ModelError, not a silent fallback.
//
// The end-to-end proof that the emitted program *compiles and reproduces the
// golden traces* is the gen_fs_* ctest entries the build adds per machine
// (and the generated-sim CI job).
#include <gtest/gtest.h>

#include <string>

#include "desc/delegate_registry.hpp"
#include "gen/compiled_engine.hpp"
#include "gen/emit_simulator.hpp"
#include "gen/generated.hpp"
#include "machines/desc_machines.hpp"
#include "machines/golden_runner.hpp"
#include "model/simulator.hpp"

namespace rcpn {
namespace {

struct Emitted {
  /// The freestanding program: engine, registrar and main over the inlined
  /// runtime.
  std::string program;
  /// The linked engine TU (no main), #including the library.
  std::string no_main;
};

core::EngineOptions compiled() {
  core::EngineOptions opts;
  opts.backend = core::Backend::compiled;
  return opts;
}

/// Both artifacts of machine `key`'s emission from `session`, a compiled
/// construction of its model.
Emitted emit_session(const std::string& key, machines::GoldenSession& session) {
  Emitted out;
  const core::Net& net = session.engine().net();
  const auto& ce = dynamic_cast<const gen::CompiledEngine&>(session.engine());
  gen::EmitSimOptions main_opts;
  main_opts.machine_key = key;
  main_opts.session_expr = machines::golden_session_expr(key);
  main_opts.extra_roots.push_back(machines::golden_session_header(key));
  out.program = gen::emit_simulator(ce.compiled(), net, main_opts);
  out.no_main = gen::emit_simulator(ce.compiled(), net, gen::EmitSimOptions{});
  return out;
}

Emitted emit_machine(const std::string& key) {
  return emit_session(key, *machines::make_golden_session(key, compiled()));
}

/// The emitted `int main` block: from its signature (the last one, after the
/// inlined runtime) to the end of the source.
std::string main_block(const std::string& source) {
  const std::size_t at = source.rfind("int main(int argc, char** argv)");
  return at == std::string::npos ? std::string() : source.substr(at);
}

/// What the emitter itself writes after the inlined runtime: the Traits,
/// dispatch, registrar and main.
std::string generated_block(const std::string& source) {
  const std::size_t at = source.rfind("\nnamespace rcpn_gen {\n");
  return at == std::string::npos ? std::string() : source.substr(at);
}

/// The source line declaring `name`, or "" when absent.
std::string line_of(const std::string& source, const std::string& name) {
  const std::size_t at = source.find(name);
  if (at == std::string::npos) return {};
  const std::size_t begin = source.rfind('\n', at) + 1;
  return source.substr(begin, source.find('\n', at) - begin);
}

class Emitter : public ::testing::TestWithParam<std::string> {};

TEST_P(Emitter, DeterministicByteIdenticalAcrossConstructions) {
  const std::string key = GetParam();
  const Emitted first = emit_machine(key);
  const Emitted second = emit_machine(key);
  EXPECT_EQ(first.program, second.program) << key << ": program not deterministic";
  EXPECT_EQ(first.no_main, second.no_main) << key << ": engine TU not deterministic";
}

TEST_P(Emitter, FreestandingInlinesTheRuntimeWithZeroRepoIncludes) {
  const std::string key = GetParam();
  const Emitted e = emit_machine(key);

  // Zero quoted includes anywhere: the whole runtime subset is inlined.
  EXPECT_EQ(e.program.find("#include \""), std::string::npos);
  // The inlined pieces the program needs: token storage + arena, the static
  // engine, the model layer, and the golden-session trace IO + CLI.
  EXPECT_NE(e.program.find("class TokenStore"), std::string::npos);
  EXPECT_NE(e.program.find("class TokenArena"), std::string::npos);
  EXPECT_NE(e.program.find("class StaticEngine"), std::string::npos);
  EXPECT_NE(e.program.find("class ModelBuilderBase"), std::string::npos);
  EXPECT_NE(e.program.find("golden_cli_main"), std::string::npos);
  // The same Traits/dispatch/registrar structure as the engine TU.
  EXPECT_NE(e.program.find("struct Traits"), std::string::npos);
  EXPECT_NE(e.program.find("register_generated_engine"), std::string::npos);
  EXPECT_NE(e.program.find("int main(int argc, char** argv)"), std::string::npos);
  EXPECT_EQ(generated_block(e.program).rfind(generated_block(e.no_main), 0), 0u)
      << key << ": the program's engine differs from the engine TU's";
}

// A two-list ablation is a model edit, and the engine TU is a function of the
// model: the description with every stage pinned two-list emits that set,
// deterministically, under the same registrar and the same main as the
// shipped model (a program's main runs the machine's session whatever its
// tables).
TEST_P(Emitter, EmitsAblationVariantSchedules) {
  const std::string key = GetParam();
  const Emitted def = emit_machine(key);
  desc::Description d = machines::describe_machine(key);
  for (desc::DescStage& s : d.stages) s.forced_two_list = 1;
  const auto emit_edited = [&] {
    return emit_session(key, *machines::make_description_session(d, compiled()));
  };
  const Emitted all = emit_edited();
  EXPECT_NE(all.no_main, def.no_main)
      << key << ": the edited schedule emitted identical to the shipped one";
  EXPECT_EQ(all.no_main, emit_edited().no_main) << key << ": emission not deterministic";
  const std::string two_list = line_of(all.no_main, "kTwoListStages[");
  for (const desc::DescStage& s : d.stages)
    EXPECT_NE(two_list.find("/*" + s.name + "*/"), std::string::npos)
        << key << ": stage " << s.name << " missing from " << two_list;
  ASSERT_FALSE(main_block(all.program).empty()) << key;
  EXPECT_EQ(main_block(all.program), main_block(def.program)) << key;
}

TEST_P(Emitter, EmitsCompleteStandaloneSimulator) {
  const std::string key = GetParam();
  const Emitted e = emit_machine(key);
  const std::string model = machines::golden_model_name(key);

  // The standalone pieces: traits over the machine type, registrar, main.
  const std::string gen = generated_block(e.program);
  EXPECT_NE(gen.find("struct Traits"), std::string::npos);
  EXPECT_NE(gen.find("rcpn::gen::StaticEngine<Traits>"), std::string::npos);
  EXPECT_NE(gen.find("register_generated_engine("), std::string::npos);
  EXPECT_NE(gen.find("\"" + model + "\","), std::string::npos);
  EXPECT_NE(gen.find("int main(int argc, char** argv)"), std::string::npos);
  EXPECT_NE(gen.find("rcpn::machines::golden_cli_main(\n      argc, argv, \"" + key +
                     "\""),
            std::string::npos);
  EXPECT_NE(gen.find("return " + machines::golden_session_expr(key) + ";"),
            std::string::npos);
  EXPECT_EQ(e.no_main.find("int main"), std::string::npos);

  // Direct calls: at least one named delegate dispatched by symbol, and no
  // void*-environment indirection anywhere in the dispatch.
  EXPECT_NE(gen.find("case "), std::string::npos);
  EXPECT_NE(gen.find("::rcpn::machines::"), std::string::npos);
  EXPECT_EQ(gen.find("guard_env"), std::string::npos);
  EXPECT_EQ(gen.find("action_env"), std::string::npos);

  // Tables are constexpr data.
  EXPECT_NE(gen.find("static constexpr rcpn::gen::StaticTx kBody"), std::string::npos);
  EXPECT_NE(gen.find("kProcessOrder"), std::string::npos);
  EXPECT_NE(gen.find("kStageReserve"), std::string::npos);
  EXPECT_NE(gen.find("kHasGuard"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(AllMachines, Emitter,
                         ::testing::ValuesIn(machines::golden_machine_keys()),
                         [](const auto& info) { return info.param; });

// The engine TU's verification tables name each transition's bound
// delegates.
TEST(Emitter, TablesNameTheBoundDelegates) {
  const Emitted e = emit_machine("strongarm_crc");
  EXPECT_NE(line_of(e.no_main, "kGuardSym").find("\"rcpn::machines::pipe_issue_guard\""),
            std::string::npos);
  EXPECT_NE(line_of(e.no_main, "kActionSym").find("\"rcpn::machines::pipe_wb_action\""),
            std::string::npos);
}

struct ClosureMachine {
  int hits = 0;
};

/// Options asking for the program (a main over the inlined runtime); the
/// session expression is never compiled.
gen::EmitSimOptions program_options() {
  gen::EmitSimOptions o;
  o.machine_key = "fig2";
  o.session_expr = machines::golden_session_expr("fig2");
  o.extra_roots.push_back(machines::golden_session_header("fig2"));
  return o;
}

bool ctx_only_guard(core::FireCtx& ctx) { return ctx.token != nullptr; }
void machine_action(ClosureMachine& m, core::FireCtx&) { ++m.hits; }

const desc::DelegateRegistry& arity_delegates() {
  static const desc::DelegateRegistry reg = [] {
    desc::DelegateRegistry r("rcpn::ClosureMachine");
    r.bind<ClosureMachine>()
        .guard<&ctx_only_guard>("rcpn::ctx_only_guard")
        .action<&machine_action>("rcpn::machine_action");
    return r;
  }();
  return reg;
}

// Named delegates come in both arities; the emitted dispatch must call each
// with the arguments it was registered with.
TEST(Emitter, EmitsTheRegisteredDelegateArity) {
  core::EngineOptions opts;
  opts.backend = core::Backend::compiled;
  model::Simulator<ClosureMachine> sim(
      "arity", opts,
      [](model::ModelBuilder<ClosureMachine>& b, ClosureMachine&) {
        b.use_delegates(arity_delegates());
        const model::StageHandle s = b.add_stage("S", 1);
        const model::PlaceHandle p = b.add_place("P", s);
        const model::TypeHandle ty = b.add_type("T");
        b.add_transition("t", ty)
            .from(p)
            .guard_ref("rcpn::ctx_only_guard")
            .action_ref("rcpn::machine_action")
            .to(b.end());
      },
      ClosureMachine{});
  auto& ce = dynamic_cast<gen::CompiledEngine&>(sim.engine());
  const std::string src = gen::emit_simulator(ce.compiled(), sim.net());
  EXPECT_NE(src.find("::rcpn::ctx_only_guard(ctx)"), std::string::npos) << src;
  EXPECT_NE(src.find("::rcpn::machine_action(m, ctx)"), std::string::npos);
  // The binding symbols are in the verification tables too.
  EXPECT_NE(line_of(src, "kGuardSym").find("\"rcpn::ctx_only_guard\""), std::string::npos);
  EXPECT_NE(line_of(src, "kActionSym").find("\"rcpn::machine_action\""), std::string::npos);
}

TEST(Emitter, RejectsAnonymousClosuresNamingTheTransition) {
  core::EngineOptions opts;
  opts.backend = core::Backend::compiled;
  model::Simulator<ClosureMachine> sim(
      "closures", opts,
      [](model::ModelBuilder<ClosureMachine>& b, ClosureMachine&) {
        b.emit_machine_type("rcpn::ClosureMachine");
        const model::StageHandle s = b.add_stage("S", 1);
        const model::PlaceHandle p = b.add_place("P", s);
        const model::TypeHandle ty = b.add_type("T");
        int captured = 7;  // forces a boxed closure
        b.add_transition("boxed", ty)
            .from(p)
            .guard([captured](core::FireCtx&) { return captured > 0; })
            .to(b.end());
      },
      ClosureMachine{});
  auto& ce = dynamic_cast<gen::CompiledEngine&>(sim.engine());
  try {
    gen::emit_simulator(ce.compiled(), sim.net());
    FAIL() << "emit_simulator accepted an anonymous closure";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("guard of 'boxed'"), std::string::npos)
        << e.what();
  }
}

TEST(Emitter, RejectsModelsWithoutMachineType) {
  core::EngineOptions opts;
  opts.backend = core::Backend::compiled;
  model::Simulator<ClosureMachine> sim(
      "untyped", opts,
      [](model::ModelBuilder<ClosureMachine>& b, ClosureMachine&) {
        const model::StageHandle s = b.add_stage("S", 1);
        const model::PlaceHandle p = b.add_place("P", s);
        const model::TypeHandle ty = b.add_type("T");
        b.add_transition("t", ty).from(p).to(b.end());
      },
      ClosureMachine{});
  auto& ce = dynamic_cast<gen::CompiledEngine&>(sim.engine());
  EXPECT_THROW(gen::emit_simulator(ce.compiled(), sim.net()), std::runtime_error);
}

TEST(GeneratedBackend, UnregisteredModelThrowsModelError) {
  ASSERT_EQ(gen::find_generated_engine("never-registered"), nullptr);
  core::EngineOptions opts;
  opts.backend = core::Backend::generated;
  EXPECT_THROW(model::Simulator<ClosureMachine>(
                   "never-registered", opts,
                   [](model::ModelBuilder<ClosureMachine>& b, ClosureMachine&) {
                     const model::StageHandle s = b.add_stage("S", 1);
                     const model::PlaceHandle p = b.add_place("P", s);
                     const model::TypeHandle ty = b.add_type("T");
                     b.add_transition("t", ty).from(p).to(b.end());
                   },
                   ClosureMachine{}),
               model::ModelError);
}

// One artifact per model: the registry is keyed by the model name alone, and
// re-registration (the same TU linked twice) replaces.
TEST(GeneratedBackend, RegistryRoundTripKeyedByModel) {
  const gen::GeneratedFactory first = +[](core::Net& net, core::EngineOptions o)
      -> std::unique_ptr<core::Engine> { return std::make_unique<core::Engine>(net, o); };
  const gen::GeneratedFactory second = +[](core::Net& net, core::EngineOptions o)
      -> std::unique_ptr<core::Engine> { return std::make_unique<core::Engine>(net, o); };
  ASSERT_EQ(gen::find_generated_engine("test-registry-model"), nullptr);
  gen::register_generated_engine("test-registry-model", first);
  EXPECT_EQ(gen::find_generated_engine("test-registry-model"), first);
  EXPECT_EQ(gen::find_generated_engine("test-registry-model-2"), nullptr);
  gen::register_generated_engine("test-registry-model", second);
  EXPECT_EQ(gen::find_generated_engine("test-registry-model"), second);
}

// Program refusal: anonymous closures are rejected exactly as in the engine
// TU, and a model whose emit_include() is outside the embedded source set is
// rejected naming the offending path.
TEST(Emitter, FreestandingRejectsAnonymousClosures) {
  core::EngineOptions opts;
  opts.backend = core::Backend::compiled;
  model::Simulator<ClosureMachine> sim(
      "closures-fs", opts,
      [](model::ModelBuilder<ClosureMachine>& b, ClosureMachine&) {
        b.emit_machine_type("rcpn::ClosureMachine");
        const model::StageHandle s = b.add_stage("S", 1);
        const model::PlaceHandle p = b.add_place("P", s);
        const model::TypeHandle ty = b.add_type("T");
        int captured = 7;  // forces a boxed closure
        b.add_transition("boxed", ty)
            .from(p)
            .guard([captured](core::FireCtx&) { return captured > 0; })
            .to(b.end());
      },
      ClosureMachine{});
  auto& ce = dynamic_cast<gen::CompiledEngine&>(sim.engine());
  const gen::EmitSimOptions fs = program_options();
  try {
    gen::emit_simulator(ce.compiled(), sim.net(), fs);
    FAIL() << "program emission accepted an anonymous closure";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("guard of 'boxed'"), std::string::npos)
        << e.what();
  }
}

TEST(Emitter, FreestandingRejectsIncludesOutsideTheEmbeddedSet) {
  core::EngineOptions opts;
  opts.backend = core::Backend::compiled;
  model::Simulator<ClosureMachine> sim(
      "foreign-include", opts,
      [](model::ModelBuilder<ClosureMachine>& b, ClosureMachine&) {
        b.emit_machine_type("rcpn::ClosureMachine");
        b.emit_include("not/embedded.hpp");
        const model::StageHandle s = b.add_stage("S", 1);
        const model::PlaceHandle p = b.add_place("P", s);
        const model::TypeHandle ty = b.add_type("T");
        b.add_transition("t", ty).from(p).to(b.end());
      },
      ClosureMachine{});
  auto& ce = dynamic_cast<gen::CompiledEngine&>(sim.engine());
  const gen::EmitSimOptions fs = program_options();
  try {
    gen::emit_simulator(ce.compiled(), sim.net(), fs);
    FAIL() << "program emission accepted a non-embedded include";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("not/embedded.hpp"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace rcpn
