// Randomized lockstep-equivalence fuzzing: the compiled backend's contract
// (cycle-for-cycle equality with the interpreted engine) pinned on *generated*
// models, not just the five curated machines.
//
// A seeded generator builds random pipeline topologies through ModelBuilder —
// varying stage counts and capacities, place delays, fork/join edges,
// multi-issue fetch widths, guard mixes (periodic stalls, clock windows,
// state-referencing backpressure), token delay overrides, reservation
// emit/consume pairs, age-based flushes and *looping* topologies (Fig 5-style
// feedback arcs that send a token back to an earlier place a bounded number
// of times, forcing real token cycles through the SCC/two-list analysis) —
// and runs the interpreted and compiled engines in lockstep, comparing the
// clock, in-flight counts and aggregate stats after every cycle, and the full
// cycle-stamped retire and squash traces plus per-transition/per-place
// statistics at the end.
//
// Every seed is a different machine; a divergence report names the seed, so
// any future backend change that breaks token semantics reproduces with
// FuzzLockstep + that seed. Every token-storage rewrite lands gated on this
// suite.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <sys/wait.h>
#include <vector>

#include "gen/compiled_engine.hpp"
#include "gen/emit_simulator.hpp"
#include "machines/fuzz_model.hpp"
#include "model/simulator.hpp"

namespace rcpn {
namespace {

using machines::FuzzMachine;

struct TraceEvent {
  core::Cycle cycle = 0;
  std::uint64_t pc = 0;
  std::uint32_t seq = 0;
  bool operator==(const TraceEvent&) const = default;
};

struct Traces {
  std::vector<TraceEvent> retired;
  std::vector<TraceEvent> squashed;
};

void record(core::Engine& eng, Traces& out) {
  eng.hooks().on_retire = [&eng, &out](core::InstructionToken* t) {
    out.retired.push_back(TraceEvent{eng.clock(), t->pc, t->seq});
  };
  eng.hooks().on_squash = [&eng, &out](core::InstructionToken* t) {
    out.squashed.push_back(TraceEvent{eng.clock(), t->pc, t->seq});
  };
}


void expect_stats_equal(unsigned seed, const core::Stats& i, const core::Stats& c) {
  EXPECT_EQ(i.cycles, c.cycles) << "seed=" << seed;
  EXPECT_EQ(i.retired, c.retired) << "seed=" << seed;
  EXPECT_EQ(i.fetched, c.fetched) << "seed=" << seed;
  EXPECT_EQ(i.squashed, c.squashed) << "seed=" << seed;
  EXPECT_EQ(i.reservations, c.reservations) << "seed=" << seed;
  EXPECT_EQ(i.firings, c.firings) << "seed=" << seed;
  EXPECT_EQ(i.transition_fires, c.transition_fires) << "seed=" << seed;
  EXPECT_EQ(i.place_stalls, c.place_stalls) << "seed=" << seed;
  EXPECT_EQ(i.place_stall_causes, c.place_stall_causes) << "seed=" << seed;
}

/// Aggregate workload exercised by a seed range: guards that the corpus
/// really covers the mechanisms it claims to fuzz (flushes happened,
/// reservations were emitted and consumed, stalls occurred, some models ran
/// two-list stages), not just straight-line pipelines.
struct Coverage {
  std::uint64_t retired = 0;
  std::uint64_t squashed = 0;
  std::uint64_t reservations = 0;
  std::uint64_t stalls = 0;
  std::uint64_t loops_taken = 0;
  unsigned models_with_two_list = 0;
};

void run_seed(unsigned seed, Coverage& cov) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  auto make = [seed](core::Backend backend) {
    return std::make_unique<model::Simulator<FuzzMachine>>(
        machines::fuzz_model_name(seed), machines::fuzz_options_for(seed, backend),
        [seed](model::ModelBuilder<FuzzMachine>& b, FuzzMachine& m) {
          machines::describe_fuzz_model(seed, b, m);
        },
        FuzzMachine{});
  };
  auto interp = make(core::Backend::interpreted);
  auto comp = make(core::Backend::compiled);
  ASSERT_NE(dynamic_cast<gen::CompiledEngine*>(&comp->engine()), nullptr);
  ASSERT_EQ(dynamic_cast<gen::CompiledEngine*>(&interp->engine()), nullptr);

  Traces ti, tc;
  record(interp->engine(), ti);
  record(comp->engine(), tc);

  // Lockstep: compare the cheap aggregates after every cycle so a divergence
  // is localized to the first bad cycle, not discovered at the end.
  constexpr std::uint64_t kMaxCycles = 25000;
  std::uint64_t cycle = 0;
  for (; cycle < kMaxCycles; ++cycle) {
    const bool idone = interp->machine().emitted >= interp->machine().to_emit &&
                       interp->engine().tokens_in_flight() == 0;
    const bool cdone = comp->machine().emitted >= comp->machine().to_emit &&
                       comp->engine().tokens_in_flight() == 0;
    ASSERT_EQ(idone, cdone) << "seed=" << seed << " cycle=" << cycle;
    if (idone) break;
    ASSERT_TRUE(interp->step()) << "seed=" << seed << " interpreted engine stopped"
                                << " (deadlocked model?) at cycle " << cycle;
    ASSERT_TRUE(comp->step()) << "seed=" << seed << " compiled engine stopped"
                              << " (deadlocked model?) at cycle " << cycle;
    ASSERT_EQ(interp->clock(), comp->clock()) << "seed=" << seed;
    ASSERT_EQ(interp->engine().tokens_in_flight(), comp->engine().tokens_in_flight())
        << "seed=" << seed << " cycle=" << cycle;
    ASSERT_EQ(interp->stats().retired, comp->stats().retired)
        << "seed=" << seed << " cycle=" << cycle;
    ASSERT_EQ(interp->stats().firings, comp->stats().firings)
        << "seed=" << seed << " cycle=" << cycle;
  }
  ASSERT_LT(cycle, kMaxCycles) << "seed=" << seed << ": model did not drain "
                               << "(emitted=" << interp->machine().emitted << "/"
                               << interp->machine().to_emit << ", in flight "
                               << interp->engine().tokens_in_flight() << ")";

  // Full end-state comparison: every retirement and squash, cycle-stamped and
  // in order; all statistics; all machine-side counters.
  EXPECT_EQ(ti.retired, tc.retired) << "seed=" << seed;
  EXPECT_EQ(ti.squashed, tc.squashed) << "seed=" << seed;
  expect_stats_equal(seed, interp->stats(), comp->stats());
  EXPECT_EQ(interp->machine().emitted, comp->machine().emitted) << "seed=" << seed;
  EXPECT_EQ(interp->machine().actions_run, comp->machine().actions_run)
      << "seed=" << seed;
  EXPECT_EQ(interp->machine().flushes, comp->machine().flushes) << "seed=" << seed;
  EXPECT_EQ(interp->machine().loops_taken, comp->machine().loops_taken)
      << "seed=" << seed;
  // Conservation: every fetched token either retired or was squashed.
  EXPECT_EQ(interp->stats().fetched,
            interp->stats().retired + interp->stats().squashed)
      << "seed=" << seed;

  cov.retired += interp->stats().retired;
  cov.squashed += interp->stats().squashed;
  cov.reservations += interp->stats().reservations;
  cov.loops_taken += interp->machine().loops_taken;
  for (std::uint64_t s : interp->stats().place_stalls) cov.stalls += s;
  for (unsigned s = 0; s < interp->net().num_stages(); ++s)
    if (interp->engine().stage_is_two_list(static_cast<core::StageId>(s))) {
      ++cov.models_with_two_list;
      break;
    }
}

Coverage run_seed_range(unsigned first, unsigned last) {
  Coverage cov;
  for (unsigned seed = first; seed <= last; ++seed) run_seed(seed, cov);
  // Each ~40-seed shard must have exercised every fuzzed mechanism.
  EXPECT_GT(cov.retired, 1000u);
  EXPECT_GT(cov.squashed, 0u) << "no flush ever squashed an instruction";
  EXPECT_GT(cov.reservations, 0u) << "no reservation token was ever emitted";
  EXPECT_GT(cov.stalls, 0u) << "no guard or capacity stall ever happened";
  EXPECT_GT(cov.models_with_two_list, 0u) << "no model used a two-list stage";
  EXPECT_GT(cov.loops_taken, 0u)
      << "no token ever traversed a feedback arc — looping topologies uncovered";
  return cov;
}

// 128 seeds ≥ the 100 the acceptance bar asks for; three shards keep any
// failure's scope (and ctest's parallelism) reasonable.
TEST(FuzzLockstep, Seeds1To48) { run_seed_range(1, 48); }

TEST(FuzzLockstep, Seeds49To88) { run_seed_range(49, 88); }

TEST(FuzzLockstep, Seeds89To128) { run_seed_range(89, 128); }

// ---------------------------------------------------------------------------
// Freestanding shard: fuzz coverage reaches the *emitter*, not just the
// in-process backends. A small CI-budgeted set of seeded topologies is
// emitted as freestanding single-file simulator programs (gen::emit_simulator
// with a main), compiled at test time with the configured host
// compiler — zero repo includes, no library objects on the link line — run,
// and trace-diffed against the interpreted backend through the emitted
// binary's own --golden first-diverging-cycle reporting. The seeds cross the
// option mix of fuzz_options_for, so ablation-variant emission is fuzzed too.
// ---------------------------------------------------------------------------

int run_command(const std::string& cmd) {
  const int status = std::system(cmd.c_str());
  if (status < 0 || !WIFEXITED(status)) return -1;  // signal death != exit 0
  return WEXITSTATUS(status);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

TEST(FuzzFreestanding, EmittedShardMatchesInterpretedTraces) {
#ifndef RCPN_CXX_COMPILER
  GTEST_SKIP() << "host compiler not configured (RCPN_CXX_COMPILER)";
#else
  const std::string dir = ::testing::TempDir() + "fuzz_freestanding";
  ASSERT_EQ(run_command("mkdir -p " + dir), 0);

  unsigned emitted_variants = 0;
  for (unsigned seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const std::string name = machines::fuzz_model_name(seed);
    const core::EngineOptions opts =
        machines::fuzz_options_for(seed, core::Backend::compiled);
    if (opts.force_two_list_all || !opts.two_list_state_refs) ++emitted_variants;

    // Emit the freestanding TU from a lowered in-process construction.
    model::Simulator<FuzzMachine> sim(
        name, opts,
        [seed](model::ModelBuilder<FuzzMachine>& b, FuzzMachine& m) {
          machines::describe_fuzz_model(seed, b, m);
        },
        FuzzMachine{});
    auto& ce = dynamic_cast<gen::CompiledEngine&>(sim.engine());
    gen::EmitSimOptions fs;
    fs.engine_options = opts;
    fs.machine_key = name;
    fs.session_expr =
        "rcpn::machines::make_fuzz_session(" + std::to_string(seed) + "u, options)";
    fs.extra_roots.push_back("machines/fuzz_model.hpp");
    const std::string src = gen::emit_simulator(ce.compiled(), sim.net(), fs);
    ASSERT_EQ(src.find("#include \""), std::string::npos)
        << "freestanding TU pulled a repo include";
    ASSERT_NE(src.find("fuzz_"), std::string::npos)
        << "dispatch lost the fuzz delegates";

    const std::string base = dir + "/" + name;
    { std::ofstream(base + ".cpp") << src; }

    // The interpreted backend's trace is the reference the binary diffs.
    const machines::GoldenRunResult interp =
        machines::finish_session(*machines::make_fuzz_session(
            seed, machines::fuzz_options_for(seed, core::Backend::interpreted)));
    ASSERT_FALSE(interp.trace.empty());
    { std::ofstream(base + ".trace") << machines::format_golden_trace(name, interp.trace); }

    // Compile standalone: no include dirs, no library objects.
    const std::string compile = std::string(RCPN_CXX_COMPILER) + " -std=c++20 -O0 -o " +
                                base + " " + base + ".cpp 2> " + base + ".err";
    ASSERT_EQ(run_command(compile), 0)
        << "freestanding TU failed to compile:\n" << slurp(base + ".err");

    const std::string run = base + " --golden " + base + ".trace > " + base +
                            ".out 2>&1";
    EXPECT_EQ(run_command(run), 0)
        << "freestanding binary diverged from the interpreted backend:\n"
        << slurp(base + ".out");
  }
  EXPECT_GT(emitted_variants, 0u)
      << "the shard never emitted an ablation-variant schedule";
#endif
}

}  // namespace
}  // namespace rcpn
