// Serialized model descriptions (.rcpn): canonical-text determinism, parser
// and loader error paths (unknown version / delegate symbol / arity / place /
// options flag, each named in the ModelError), and the round-trip contract —
// for every golden machine and 16 seeded fuzz topologies, build → describe →
// serialize → parse → load → build produces byte-identical retire traces and
// statistics on every in-process backend. The model zoo (models/*.rcpn) is
// pinned byte-for-byte against what the current library describes.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/options_signature.hpp"
#include "desc/delegate_registry.hpp"
#include "desc/description.hpp"
#include "gen/compiled_engine.hpp"
#include "gen/emit_simulator.hpp"
#include "machines/desc_machines.hpp"
#include "machines/fuzz_model.hpp"
#include "machines/golden_runner.hpp"
#include "model/simulator.hpp"
#include "regfile/register_file.hpp"

namespace rcpn {
namespace {

core::EngineOptions opts_for(core::Backend backend) {
  core::EngineOptions o;
  o.backend = backend;
  return o;
}

/// The full observable contract: retire trace plus every statistics field
/// (the same set the lockstep fuzz harness compares across backends).
void expect_runs_equal(const machines::GoldenRunResult& direct,
                       const machines::GoldenRunResult& loaded,
                       const std::string& label) {
  EXPECT_EQ(direct.trace, loaded.trace) << label;
  EXPECT_EQ(direct.stats.cycles, loaded.stats.cycles) << label;
  EXPECT_EQ(direct.stats.retired, loaded.stats.retired) << label;
  EXPECT_EQ(direct.stats.fetched, loaded.stats.fetched) << label;
  EXPECT_EQ(direct.stats.squashed, loaded.stats.squashed) << label;
  EXPECT_EQ(direct.stats.reservations, loaded.stats.reservations) << label;
  EXPECT_EQ(direct.stats.firings, loaded.stats.firings) << label;
  EXPECT_EQ(direct.stats.transition_fires, loaded.stats.transition_fires) << label;
  EXPECT_EQ(direct.stats.place_stalls, loaded.stats.place_stalls) << label;
  EXPECT_EQ(direct.stats.place_stall_causes, loaded.stats.place_stall_causes) << label;
}

/// describe → text → parse: the loaded-path description every test runs from
/// (so the serializer and parser are always in the loop, never bypassed).
desc::Description round_trip(const desc::Description& d) {
  return desc::parse(desc::to_text(d));
}

TEST(DescFormat, CanonicalTextIsByteDeterministic) {
  for (const std::string& key : machines::golden_machine_keys()) {
    const core::EngineOptions o = opts_for(core::Backend::compiled);
    const std::string a = desc::to_text(machines::describe_machine(key, o));
    const std::string b = desc::to_text(machines::describe_machine(key, o));
    EXPECT_EQ(a, b) << key;
    // parse(to_text) re-serializes to the same bytes: one spelling per model.
    EXPECT_EQ(desc::to_text(desc::parse(a)), a) << key;
  }
}

TEST(DescFormat, RecordsTheOptionsSignature) {
  core::EngineOptions o = opts_for(core::Backend::compiled);
  o.force_two_list_all = true;
  o.two_list_state_refs = false;
  const desc::Description d = machines::describe_machine("fig2", o);
  EXPECT_EQ(d.options, core::options_signature(o));
  // engine_options applies the recorded flags over a base and keeps the
  // base's backend.
  core::EngineOptions base = opts_for(core::Backend::interpreted);
  const core::EngineOptions applied = desc::engine_options(round_trip(d), base);
  EXPECT_TRUE(applied.force_two_list_all);
  EXPECT_FALSE(applied.two_list_state_refs);
  EXPECT_EQ(applied.backend, core::Backend::interpreted);
}

TEST(DescFormat, ParseRejectsUnknownVersionNamingIt) {
  // A future version and the previous ones alike: there is no loader for
  // older formats.
  for (const std::string version : {"rcpn-model/99", "rcpn-model/1", "rcpn-model/2"}) {
    try {
      desc::parse(version + "\nmodel X\n");
      ADD_FAILURE() << "parse accepted version " << version;
    } catch (const model::ModelError& e) {
      EXPECT_NE(std::string(e.what()).find(version), std::string::npos) << e.what();
    }
  }
}

TEST(DescFormat, NumbersAboveTheFieldRangeAreRejectedNamingTheLimit) {
  struct Case {
    const char* body;  // lines after the version and model lines
    const char* where;
    const char* attr;
    const char* limit;
  };
  const Case cases[] = {
      {"transition t type=T\n  from L1 priority=256\nend\n", "line 4", "priority",
       "255"},
      {"stage S capacity=4294967297\n", "line 3", "capacity", "4294967295"},
      {"place P stage=S delay=4294967296\n", "line 3", "delay", "4294967295"},
      {"transition t type=T\n  max_fires 4294967297\nend\n", "line 4", "max_fires",
       "2147483647"},
  };
  for (const Case& c : cases) {
    try {
      desc::parse(std::string(desc::kDescVersion) + "\nmodel X\n" + c.body);
      ADD_FAILURE() << "parse accepted an out-of-range " << c.attr;
    } catch (const model::ModelError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(c.where), std::string::npos) << what;
      EXPECT_NE(what.find(c.attr), std::string::npos) << what;
      EXPECT_NE(what.find(c.limit), std::string::npos) << what;
    }
  }
}

TEST(DescFormat, LoaderRejectsUnknownDelegateSymbolNamingIt) {
  desc::Description d =
      machines::describe_machine("fig2", opts_for(core::Backend::compiled));
  for (desc::DescTransition& t : d.transitions)
    if (t.guard.symbol == "rcpn::machines::fig2_u1_guard")
      t.guard.symbol = "rcpn::machines::no_such_guard";
  try {
    machines::run_description(round_trip(d), opts_for(core::Backend::compiled));
    FAIL() << "loader accepted an unknown delegate symbol";
  } catch (const model::ModelError& e) {
    EXPECT_NE(std::string(e.what()).find("rcpn::machines::no_such_guard"),
              std::string::npos)
        << e.what();
  }
}

TEST(DescFormat, LoaderRejectsArityMismatchNamingTheSymbol) {
  // fuzz_action_delay is registered ctx-only; declaring it machine-arity in
  // the description must be rejected, not silently rebound. Scan seeds for a
  // topology that drew the delay action (the generator makes it common).
  desc::Description d;
  bool flipped = false;
  for (unsigned seed = 0; seed < 64 && !flipped; ++seed) {
    d = machines::describe_machine("fuzz-" + std::to_string(seed),
                                   opts_for(core::Backend::compiled));
    for (desc::DescTransition& t : d.transitions)
      if (t.action.symbol == "rcpn::machines::fuzz_action_delay") {
        t.action.takes_machine = true;
        flipped = true;
      }
  }
  ASSERT_TRUE(flipped) << "no seed in [0,64) uses fuzz_action_delay any more";
  try {
    machines::run_description(round_trip(d), opts_for(core::Backend::compiled));
    FAIL() << "loader accepted a delegate arity mismatch";
  } catch (const model::ModelError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rcpn::machines::fuzz_action_delay"), std::string::npos)
        << what;
    EXPECT_NE(what.find("arity"), std::string::npos) << what;
  }
}

TEST(DescFormat, LoaderRejectsUnknownPlaceNamingIt) {
  desc::Description d =
      machines::describe_machine("fig2", opts_for(core::Backend::compiled));
  ASSERT_FALSE(d.transitions.empty());
  ASSERT_FALSE(d.transitions[0].in.empty());
  d.transitions[0].in[0].place = "NOWHERE";
  EXPECT_THROW(
      {
        try {
          machines::run_description(d, opts_for(core::Backend::compiled));
        } catch (const model::ModelError& e) {
          EXPECT_NE(std::string(e.what()).find("NOWHERE"), std::string::npos)
              << e.what();
          throw;
        }
      },
      model::ModelError);
}

TEST(DescFormat, OptionsRejectUnknownFlagNamingIt) {
  desc::Description d =
      machines::describe_machine("fig2", opts_for(core::Backend::compiled));
  d.options = "warp_drive=1";
  try {
    desc::engine_options(d);
    FAIL() << "engine_options accepted an unknown flag";
  } catch (const model::ModelError& e) {
    EXPECT_NE(std::string(e.what()).find("warp_drive"), std::string::npos)
        << e.what();
  }
}

TEST(DescFormat, UnknownModelFamilyIsRejectedNamingIt) {
  desc::Description d =
      machines::describe_machine("fig2", opts_for(core::Backend::compiled));
  d.model = "Mystery";
  try {
    machines::run_description(d, opts_for(core::Backend::compiled));
    FAIL() << "run_description accepted an unknown model family";
  } catch (const model::ModelError& e) {
    EXPECT_NE(std::string(e.what()).find("Mystery"), std::string::npos) << e.what();
  }
}

struct PlainMachine {};

TEST(DescFormat, DescribeRejectsAnonymousDelegatesNamingTheTransition) {
  core::EngineOptions o = opts_for(core::Backend::compiled);
  model::Simulator<PlainMachine> sim(
      "closures", o,
      [](model::ModelBuilder<PlainMachine>& b, PlainMachine&) {
        b.emit_machine_type("rcpn::PlainMachine");
        const model::StageHandle s = b.add_stage("S", 1);
        const model::PlaceHandle p = b.add_place("P", s);
        const model::TypeHandle ty = b.add_type("T");
        int captured = 7;  // forces a boxed closure
        b.add_transition("boxed", ty)
            .from(p)
            .guard([captured](core::FireCtx&) { return captured > 0; })
            .to(b.end());
      },
      PlainMachine{});
  try {
    desc::describe_net(sim.net(), o);
    FAIL() << "describe_net serialized an anonymous closure";
  } catch (const model::ModelError& e) {
    EXPECT_NE(std::string(e.what()).find("boxed"), std::string::npos) << e.what();
  }
}

// -- shapes no engine can fire --------------------------------------------------

/// Load the fig2 description with `stages` and `places` declared after its
/// own and `arcs` added to transition U2 (from L1, to L2); expect the
/// ModelError ModelBuilderBase::validate() raises, containing `fragment`.
void expect_fig2_variant_rejected(const std::string& stages, const std::string& places,
                                  const std::string& arcs, const std::string& fragment) {
  std::string text =
      desc::to_text(machines::describe_machine("fig2", opts_for(core::Backend::compiled)));
  const std::pair<std::string, std::string> inserts[] = {
      {"stage L2 capacity=1\n", stages},
      {"place L2 stage=L2\n", places},
      {"transition U2 type=A\n  from L1\n  to L2\n", arcs}};
  for (const auto& [anchor, extra] : inserts) {
    const std::size_t at = text.find(anchor);
    ASSERT_NE(at, std::string::npos) << anchor;
    text.insert(at + anchor.size(), extra);
  }
  try {
    machines::run_description(desc::parse(text), opts_for(core::Backend::compiled));
    ADD_FAILURE() << "loaded a model the engines cannot fire:\n" << text;
  } catch (const model::ModelError& e) {
    EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos) << e.what();
  }
}

TEST(DescLimits, FiveConsumeArcsAreRejected) {
  expect_fig2_variant_rejected(
      "stage R capacity=5\n",
      "place R0 stage=R\nplace R1 stage=R\nplace R2 stage=R\nplace R3 stage=R\n"
      "place R4 stage=R\n",
      "  consume R0\n  consume R1\n  consume R2\n  consume R3\n  consume R4\n",
      "transition 'U2': 5 consume arcs, more than the limit of 4");
}

TEST(DescLimits, ArcsOnNineStagesAreRejected) {
  std::string stages, places, arcs;
  for (int i = 1; i <= 7; ++i) {
    const std::string n = std::to_string(i);
    stages += "stage S" + n + " capacity=1\n";
    places += "place P" + n + " stage=S" + n + "\n";
    arcs += "  emit P" + n + "\n";
  }
  expect_fig2_variant_rejected(stages, places, arcs,
                               "transition 'U2': its arcs touch 9 distinct stages");
}

TEST(DescLimits, TwoConsumeArcsOnOnePlaceAreRejected) {
  expect_fig2_variant_rejected("stage R capacity=2\n", "place R0 stage=R\n",
                               "  consume R0\n  consume R0\n",
                               "transition 'U2': two consume arcs on place 'R0'");
}

// -- round-trip equality ------------------------------------------------------

class DescRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(DescRoundTrip, GoldenMachineMatchesOnEveryInProcessBackend) {
  const std::string key = GetParam();
  for (const core::Backend backend :
       {core::Backend::interpreted, core::Backend::compiled, core::Backend::generated}) {
    const core::EngineOptions o = opts_for(backend);
    const machines::GoldenRunResult direct = machines::run_golden_machine_full(key, o);
    const desc::Description d = round_trip(machines::describe_machine(key, o));
    EXPECT_EQ(machines::description_machine_key(d), key);
    const machines::GoldenRunResult loaded = machines::run_description(d, o);
    expect_runs_equal(direct, loaded,
                      key + "/backend=" + std::to_string(static_cast<int>(backend)));
  }
}

INSTANTIATE_TEST_SUITE_P(AllMachines, DescRoundTrip,
                         ::testing::Values("fig2", "fig5", "tomasulo",
                                           "strongarm_crc", "xscale_adpcm",
                                           "stallcause"));

TEST(DescRoundTripFuzz, SixteenSeededTopologiesMatchDirectBuilds) {
  for (unsigned seed = 0; seed < 16; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    for (const core::Backend backend :
         {core::Backend::interpreted, core::Backend::compiled}) {
      const core::EngineOptions o = machines::fuzz_options_for(seed, backend);
      const machines::GoldenRunResult direct =
          machines::finish_session(*machines::make_fuzz_session(seed, o));
      const desc::Description d = round_trip(
          machines::describe_machine("fuzz-" + std::to_string(seed), o));
      const machines::GoldenRunResult loaded = machines::run_description(d, o);
      expect_runs_equal(direct, loaded,
                        "fuzz-" + std::to_string(seed) + "/backend=" +
                            std::to_string(static_cast<int>(backend)));
    }
  }
}

// The sweep draws fuzz seeds up to 2^20: a seed past 10^6 must describe and
// load like any other.
TEST(DescRoundTripFuzz, SeedsBeyondAMillionDescribeAndLoad) {
  const unsigned seed = 1u << 20;
  const core::EngineOptions o = machines::fuzz_options_for(seed, core::Backend::compiled);
  const desc::Description d = round_trip(machines::describe_machine("fuzz-1048576", o));
  EXPECT_EQ(d.model, "fuzz-1048576");
  expect_runs_equal(machines::finish_session(*machines::make_fuzz_session(seed, o)),
                    machines::run_description(d, o), "fuzz-1048576");
}

// Every name fuzz_model_name prints parses back, up to the 32-bit limit (the
// rejections are FarmFaults.MalformedFuzzKeysFailTheJob's inputs).
TEST(FuzzModelName, ParserAcceptsExactlyThePrintedNames) {
  for (const unsigned seed : {0u, 7u, 1048576u, 4294967295u})
    EXPECT_EQ(machines::parse_fuzz_model_name(machines::fuzz_model_name(seed)), seed);
  EXPECT_FALSE(machines::parse_fuzz_model_name("fuzz-4294967296").has_value());
}

// -- emitted-artifact parity --------------------------------------------------

TEST(DescEmit, SimulatorSourceFromDescriptionMatchesDirectEmission) {
  // The generated backend (the linked engine TU) and the freestanding program
  // consume emitted source, so byte-identical emission from the loaded model
  // extends round-trip equality to both without compiling anything here (CI
  // compiles and golden-diffs the .rcpn-emitted program).
  const std::string key = "strongarm_crc";
  const core::EngineOptions o = opts_for(core::Backend::compiled);

  const auto emit_from = [&](machines::GoldenSession& session) {
    const core::Net& net = session.engine().net();
    const auto& ce = dynamic_cast<const gen::CompiledEngine&>(session.engine());
    gen::EmitSimOptions no_main;
    no_main.engine_options = o;
    gen::EmitSimOptions program = no_main;
    program.machine_key = key;
    program.session_expr = machines::golden_session_expr(key);
    program.extra_roots.push_back(machines::golden_session_header(key));
    return std::pair<std::string, std::string>{
        gen::emit_simulator(ce.compiled(), net, no_main),
        gen::emit_simulator(ce.compiled(), net, program)};
  };

  const auto direct = emit_from(*machines::make_golden_session(key, o));
  const desc::Description d = round_trip(machines::describe_machine(key, o));
  const auto loaded = emit_from(*machines::make_description_session(d, o));
  EXPECT_EQ(direct.first, loaded.first);
  EXPECT_EQ(direct.second, loaded.second);
}

// -- the model zoo ------------------------------------------------------------

#ifdef RCPN_MODELS_DIR
std::string read_text_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return in ? out.str() : "";
}

TEST(DescZoo, CheckedInModelFilesMatchTheLibrary) {
  // models/*.rcpn are regenerated by `rcpn_emit describe <key>`; a drifted
  // file means the serializer or a machine's model changed without the zoo
  // being refreshed (CI diffs the same way).
  for (const std::string& key : machines::golden_machine_keys()) {
    const desc::Description d =
        machines::describe_machine(key, opts_for(core::Backend::compiled));
    const std::string path =
        std::string(RCPN_MODELS_DIR) + "/" + desc::canonical_file_name(d);
    const std::string checked_in = read_text_file(path);
    ASSERT_FALSE(checked_in.empty()) << "missing zoo file " << path;
    EXPECT_EQ(checked_in, desc::to_text(d)) << path << " is stale; regenerate with "
                                            << "rcpn_emit describe " << key;
  }
}

TEST(DescZoo, ZooFilesLoadAndRunEveryMachine) {
  for (const std::string& key : machines::golden_machine_keys()) {
    const desc::Description probe =
        machines::describe_machine(key, opts_for(core::Backend::compiled));
    const desc::Description d = desc::read_file(
        std::string(RCPN_MODELS_DIR) + "/" + desc::canonical_file_name(probe));
    const core::EngineOptions o =
        desc::engine_options(d, opts_for(core::Backend::compiled));
    const machines::GoldenRunResult loaded = machines::run_description(d, o);
    expect_runs_equal(machines::run_golden_machine_full(key, o), loaded, key);
  }
}

/// `models/<file>` with the first occurrence of `from` replaced by `to`.
std::string zoo_variant(const std::string& file, const std::string& from,
                        const std::string& to) {
  std::string text = read_text_file(std::string(RCPN_MODELS_DIR) + "/" + file);
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << file << ": " << from;
  return at == std::string::npos ? text : text.replace(at, from.size(), to);
}

TEST(DescLimits, IndependentTransitionWithTwoMoveArcsIsRejected) {
  const desc::Description d = desc::parse(
      zoo_variant("tomasulo.rcpn", "independent Fetch\n  to DISP\n",
                  "independent Fetch\n  to DISP\n  to DISP\n"));
  try {
    machines::run_description(d, desc::engine_options(d, opts_for(core::Backend::compiled)));
    ADD_FAILURE() << "loaded an independent transition with two move arcs";
  } catch (const model::ModelError& e) {
    EXPECT_NE(std::string(e.what()).find("transition 'Fetch'"), std::string::npos)
        << e.what();
  }
}

/// Run `file` with its fetch guard deleted: fetch runs past the end of the
/// program, and decoding that pc must throw naming it and the program length
/// instead of reading past the program.
void expect_fetch_past_program_throws(const std::string& file, const std::string& guard,
                                      const std::string& needle) {
  const desc::Description d = desc::parse(zoo_variant(file, guard, ""));
  for (const core::Backend b : {core::Backend::interpreted, core::Backend::compiled}) {
    try {
      machines::run_description(d, desc::engine_options(d, opts_for(b)));
      ADD_FAILURE() << file << " on backend " << static_cast<int>(b)
                    << " ran past the end of its program";
    } catch (const std::out_of_range& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
    }
  }
}

TEST(DescBounds, Fig5FetchPastTheProgramThrows) {
  expect_fetch_past_program_throws(
      "fig5.rcpn", "  guard rcpn::machines::fig5_fetch_guard machine\n",
      "Fig5: no instruction at pc 8 (the program has 8 instructions)");
}

TEST(DescBounds, TomasuloFetchPastTheProgramThrows) {
  expect_fetch_past_program_throws(
      "tomasulo.rcpn", "  guard rcpn::machines::tomasulo_fetch_guard machine\n",
      "Tomasulo: no instruction at pc 6 (the program has 6 instructions)");
}

/// Replace every occurrence of `from` in `text` with `to`; the count replaced.
std::size_t replace_all(std::string& text, const std::string& from, const std::string& to) {
  std::size_t n = 0;
  for (std::size_t at = text.find(from); at != std::string::npos;
       at = text.find(from, at + to.size())) {
    text.replace(at, from.size(), to);
    ++n;
  }
  return n;
}

TEST(DescHazard, StrongArmWithoutIssueGuardThrowsHazardError) {
  // A description that drops the hazard guard of every issue transition (and
  // widens MW so writers pile up behind a slow memory stage) lets the issue
  // action read operands that have no readable source and stack write
  // reservations past a cell's writer stack. Either breach must surface as a
  // named HazardError on every backend and in every build — never an abort,
  // a stale read or an out-of-bounds write.
  std::string text = read_text_file(std::string(RCPN_MODELS_DIR) + "/strongarm.rcpn");
  ASSERT_FALSE(text.empty());
  ASSERT_EQ(replace_all(text, "  guard rcpn::machines::pipe_issue_guard machine\n", ""), 6u);
  ASSERT_EQ(replace_all(text, "stage MW capacity=1\n", "stage MW capacity=255\n"), 1u);
  ASSERT_EQ(replace_all(text, "place MW stage=MW\n", "place MW stage=MW delay=200\n"),
            1u);
  const desc::Description d = desc::parse(text);
  for (const core::Backend b : {core::Backend::interpreted, core::Backend::compiled}) {
    try {
      machines::run_description(d, desc::engine_options(d, opts_for(b)));
      ADD_FAILURE() << "backend " << static_cast<int>(b) << " ran the unguarded model";
    } catch (const regfile::HazardError& e) {
      EXPECT_NE(std::string(e.what()).find("register"), std::string::npos) << e.what();
    }
  }
}

TEST(DescHazard, StrongArmWithoutIssueActionThrowsHazardError) {
  // Without its issue action no instruction reserves its destination, so the
  // first writeback releases a reservation its cell never took. That must be
  // a named HazardError on every backend and in every build — not an abort,
  // and not a run that retires twice the golden count unchecked.
  std::string text = read_text_file(std::string(RCPN_MODELS_DIR) + "/strongarm.rcpn");
  ASSERT_FALSE(text.empty());
  ASSERT_EQ(replace_all(text, "  action rcpn::machines::pipe_issue_action machine\n", ""),
            6u);
  const desc::Description d = desc::parse(text);
  for (const core::Backend b : {core::Backend::interpreted, core::Backend::compiled}) {
    try {
      machines::run_description(d, desc::engine_options(d, opts_for(b)));
      ADD_FAILURE() << "backend " << static_cast<int>(b)
                    << " wrote back without a reservation";
    } catch (const regfile::HazardError& e) {
      EXPECT_NE(std::string(e.what()).find("holds no write reservation"),
                std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("register file: cell "), std::string::npos)
          << e.what();
    }
  }
}
#endif  // RCPN_MODELS_DIR

}  // namespace
}  // namespace rcpn
