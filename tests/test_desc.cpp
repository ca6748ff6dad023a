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
#include <string>
#include <vector>

#include "core/options_signature.hpp"
#include "desc/delegate_registry.hpp"
#include "desc/description.hpp"
#include "gen/compiled_engine.hpp"
#include "gen/embed.hpp"
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
  o.linear_search = true;
  const desc::Description d = machines::describe_machine("fig2", o);
  EXPECT_EQ(d.options, core::options_signature(o));
  // engine_options applies the recorded flags over a base and keeps the
  // base's backend.
  core::EngineOptions base = opts_for(core::Backend::interpreted);
  const core::EngineOptions applied = desc::engine_options(round_trip(d), base);
  EXPECT_TRUE(applied.force_two_list_all);
  EXPECT_TRUE(applied.linear_search);
  EXPECT_EQ(applied.backend, core::Backend::interpreted);
}

TEST(DescFormat, ParseRejectsUnknownVersionNamingIt) {
  try {
    desc::parse("rcpn-model/99\nmodel X\n");
    FAIL() << "parse accepted an unknown version";
  } catch (const model::ModelError& e) {
    EXPECT_NE(std::string(e.what()).find("rcpn-model/99"), std::string::npos)
        << e.what();
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
  std::vector<core::Backend> backends = {core::Backend::interpreted,
                                         core::Backend::compiled};
#ifdef RCPN_HAVE_GENERATED
  backends.push_back(core::Backend::generated);
#endif
  for (const core::Backend backend : backends) {
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
      const machines::GoldenRunResult direct = machines::golden_run_fuzz(seed, o);
      const desc::Description d = round_trip(
          machines::describe_machine("fuzz-" + std::to_string(seed), o));
      const machines::GoldenRunResult loaded = machines::run_description(d, o);
      expect_runs_equal(direct, loaded,
                        "fuzz-" + std::to_string(seed) + "/backend=" +
                            std::to_string(static_cast<int>(backend)));
    }
  }
}

// -- emitted-artifact parity --------------------------------------------------

TEST(DescEmit, SimulatorSourceFromDescriptionMatchesDirectEmission) {
  // The generated and freestanding backends consume emitted source, so
  // byte-identical emission from the loaded model extends round-trip
  // equality to both without compiling anything here (CI compiles and
  // golden-diffs the .rcpn-emitted freestanding artifact).
  const std::string key = "strongarm_crc";
  const core::EngineOptions o = opts_for(core::Backend::compiled);

  const auto emit_from = [&](auto&& fn_runner) {
    std::string linked, freestanding;
    fn_runner([&](core::Net& net, core::Engine& eng) {
      auto& ce = dynamic_cast<gen::CompiledEngine&>(eng);
      gen::EmitSimOptions main_opts;
      main_opts.machine_key = key;
      main_opts.engine_options = o;
      linked = gen::emit_simulator(ce.compiled(), net, main_opts);
      if (!gen::embedded_file_paths().empty()) {
        gen::EmitSimOptions fs;
        fs.mode = gen::EmitMode::freestanding;
        fs.engine_options = o;
        fs.machine_key = key;
        fs.run_expr = machines::golden_run_expr(key);
        fs.extra_roots.push_back(machines::golden_run_header(key));
        freestanding = gen::emit_simulator(ce.compiled(), net, fs);
      }
    });
    return std::pair<std::string, std::string>{linked, freestanding};
  };

  const auto direct = emit_from([&](const machines::GoldenInspectFn& fn) {
    machines::inspect_golden_machine(key, o, fn);
  });
  const desc::Description d = round_trip(machines::describe_machine(key, o));
  const auto loaded = emit_from([&](const machines::GoldenInspectFn& fn) {
    machines::inspect_description(d, o, fn);
  });
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

TEST(DescHazard, StrongArmWithoutIssueGuardThrowsHazardError) {
  // A description that drops the hazard guard of every issue transition (and
  // widens MW so writers pile up behind a slow memory stage) lets the issue
  // action read operands that have no readable source and stack write
  // reservations past a cell's writer stack. Either breach must surface as a
  // named HazardError on every backend and in every build — never an abort,
  // a stale read or an out-of-bounds write.
  std::string text = read_text_file(std::string(RCPN_MODELS_DIR) + "/strongarm.rcpn");
  ASSERT_FALSE(text.empty());
  auto replace_all = [&text](const std::string& from, const std::string& to) {
    std::size_t n = 0;
    for (std::size_t at = text.find(from); at != std::string::npos;
         at = text.find(from, at + to.size())) {
      text.replace(at, from.size(), to);
      ++n;
    }
    return n;
  };
  ASSERT_EQ(replace_all("  guard rcpn::machines::pipe_issue_guard machine\n", ""), 6u);
  ASSERT_EQ(replace_all("stage MW capacity=1\n", "stage MW capacity=255\n"), 1u);
  ASSERT_EQ(replace_all("place MW stage=MW\n", "place MW stage=MW delay=200\n"), 1u);
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
#endif  // RCPN_MODELS_DIR

}  // namespace
}  // namespace rcpn
