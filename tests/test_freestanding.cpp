// Four-way differential harness over the golden workloads: for every machine,
// the *same* fixed workload runs on
//
//   1. the interpreted engine (core::Engine, in-process),
//   2. the compiled engine (gen::CompiledEngine, in-process),
//   3. the generated engine (gen::StaticEngine from the emitted no-main TUs
//      linked into this binary),
//   4. the freestanding binary (gen_fs_<key>, a single emitted TU compiled
//      with zero repo includes and no library objects — spawned as a child
//      process),
//
// and every pair must agree on the full cycle-stamped retire trace (diffed
// with first-diverging-cycle reporting, reusing the golden_runner diff) and
// on the engine statistics. The checked-in tests/golden/*.trace files pin
// the absolute behaviour; the four-way comparison pins that no backend — in
// particular the freestanding artifact, whose whole runtime is an inlined
// copy — can drift from the others.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <sys/stat.h>
#include <sys/wait.h>

#include "gen/generated.hpp"
#include "machines/golden_runner.hpp"
#include "machines/simple_pipeline.hpp"
#include "machines/stallcause.hpp"
#include "model/simulator.hpp"

namespace rcpn {
namespace {

using machines::GoldenRunResult;

core::EngineOptions options_for(core::Backend backend) {
  core::EngineOptions o;
  o.backend = backend;
  return o;
}

void expect_traces_equal(const std::string& key, const std::string& what,
                         const GoldenRunResult& a, const GoldenRunResult& b) {
  const std::string diff = machines::diff_golden_traces(a.trace, b.trace);
  EXPECT_TRUE(diff.empty()) << key << " " << what << ": " << diff;
}

void expect_stats_equal(const std::string& key, const std::string& what,
                        const core::Stats& a, const core::Stats& b) {
  EXPECT_EQ(a.cycles, b.cycles) << key << " " << what;
  EXPECT_EQ(a.retired, b.retired) << key << " " << what;
  EXPECT_EQ(a.fetched, b.fetched) << key << " " << what;
  EXPECT_EQ(a.squashed, b.squashed) << key << " " << what;
  EXPECT_EQ(a.reservations, b.reservations) << key << " " << what;
  EXPECT_EQ(a.firings, b.firings) << key << " " << what;
  EXPECT_EQ(a.quiesced_cycles, b.quiesced_cycles) << key << " " << what;
  EXPECT_EQ(a.transition_fires, b.transition_fires) << key << " " << what;
  EXPECT_EQ(a.place_stalls, b.place_stalls) << key << " " << what;
  EXPECT_EQ(a.place_stall_causes, b.place_stall_causes) << key << " " << what;
}

/// Run `cmd`, capture stdout+stderr (a failing binary's verification or
/// divergence message must reach the assertion output); returns the process
/// exit code (-1 on spawn failure).
int run_capture(const std::string& cmd, std::string& out) {
  out.clear();
  FILE* pipe = popen((cmd + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return -1;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) out.append(buf, n);
  const int status = pclose(pipe);
  if (status < 0 || !WIFEXITED(status)) return -1;  // signal death != exit 0
  return WEXITSTATUS(status);
}

class FourWay : public ::testing::TestWithParam<const char*> {};

TEST_P(FourWay, InProcessBackendsAndGoldenAgree) {
  const std::string key = GetParam();
  const GoldenRunResult interp =
      machines::run_golden_machine_full(key, options_for(core::Backend::interpreted));
  ASSERT_FALSE(interp.trace.empty()) << key;

  // The checked-in golden trace is the absolute reference.
  std::vector<machines::GoldenRetireEvent> golden;
  ASSERT_TRUE(machines::load_golden_trace(std::string(RCPN_GOLDEN_DIR) + "/" + key +
                                              ".trace",
                                          golden))
      << key << ": missing golden file (RCPN_REGEN_GOLDEN=1 regenerates)";
  const std::string gdiff = machines::diff_golden_traces(golden, interp.trace);
  EXPECT_TRUE(gdiff.empty()) << key << " interpreted vs golden file: " << gdiff;

  const GoldenRunResult comp =
      machines::run_golden_machine_full(key, options_for(core::Backend::compiled));
  expect_traces_equal(key, "interpreted vs compiled", interp, comp);
  expect_stats_equal(key, "interpreted vs compiled", interp.stats, comp.stats);

  ASSERT_NE(gen::find_generated_engine(machines::golden_model_name(key)), nullptr)
      << key << ": generated TU not registered despite being linked in";
  const GoldenRunResult genr =
      machines::run_golden_machine_full(key, options_for(core::Backend::generated));
  expect_traces_equal(key, "interpreted vs generated", interp, genr);
  expect_stats_equal(key, "interpreted vs generated", interp.stats, genr.stats);
}

TEST_P(FourWay, FreestandingBinaryMatchesInProcess) {
  const std::string key = GetParam();
  const std::string bin = std::string(RCPN_BIN_DIR) + "/gen_fs_" + key;
  struct stat st{};
  ASSERT_EQ(::stat(bin.c_str(), &st), 0)
      << bin << " missing — build the gen_fs_* targets first";

  std::string out;
  const int rc = run_capture(bin + " --stats", out);
  ASSERT_EQ(rc, 0) << bin << " exited with " << rc << "\n" << out;

  std::vector<machines::GoldenRetireEvent> fs_trace;
  ASSERT_TRUE(machines::parse_golden_trace(out, fs_trace)) << out;
  core::Stats fs_stats;
  ASSERT_TRUE(machines::parse_golden_stats(out, fs_stats)) << out;

  const GoldenRunResult interp =
      machines::run_golden_machine_full(key, options_for(core::Backend::interpreted));
  const std::string diff = machines::diff_golden_traces(interp.trace, fs_trace);
  EXPECT_TRUE(diff.empty()) << key << " interpreted vs freestanding binary: " << diff;
  EXPECT_EQ(interp.stats.cycles, fs_stats.cycles) << key;
  EXPECT_EQ(interp.stats.retired, fs_stats.retired) << key;
  EXPECT_EQ(interp.stats.fetched, fs_stats.fetched) << key;
  EXPECT_EQ(interp.stats.squashed, fs_stats.squashed) << key;
  EXPECT_EQ(interp.stats.reservations, fs_stats.reservations) << key;
  EXPECT_EQ(interp.stats.firings, fs_stats.firings) << key;

  // The freestanding binary prints its stall-cause breakdown as
  // `# stallcause ...` comment lines; it must match the in-process
  // attribution counter for counter.
  std::vector<std::uint64_t> fs_causes;
  ASSERT_TRUE(machines::parse_stall_causes(
      out, static_cast<unsigned>(interp.stats.place_stalls.size()), fs_causes))
      << out;
  EXPECT_EQ(interp.stats.place_stall_causes, fs_causes)
      << key << " interpreted vs freestanding stall causes";
}

INSTANTIATE_TEST_SUITE_P(AllMachines, FourWay,
                         ::testing::Values("fig2", "fig5", "tomasulo", "strongarm_crc",
                                           "xscale_adpcm", "stallcause"),
                         [](const auto& info) { return std::string(info.param); });

// The stallcause workload is built so that a worker token in PA is rejected
// by BOTH of its candidates in the same cycle for different causes: the
// priority-0 move is capacity-blocked by the parked token in PB, then the
// priority-1 escape is guard-rejected. The attribution contract is
// last-candidate-wins, so PA must show only guard_rejected — an
// implementation that recorded the first candidate's cause would show the
// exact opposite split. (The FourWay stats comparison above already pins
// that every backend agrees on these numbers.)
TEST(StallCauseAttribution, LastCandidateWinsOnDualRejection) {
  const GoldenRunResult r = machines::run_golden_machine_full(
      "stallcause", options_for(core::Backend::interpreted));
  core::EngineOptions opts = options_for(core::Backend::interpreted);
  machines::StallCauseModel probe(0, opts);
  const unsigned pa = static_cast<unsigned>(probe.pa());
  const unsigned pb = static_cast<unsigned>(probe.pb());
  const auto cause = [&](unsigned place, core::StallCause c) {
    return r.stats.place_stall_causes[place * core::kNumStallCauses +
                                      static_cast<unsigned>(c)];
  };
  // PA: both candidates rejected each stall cycle; the guard (last) wins.
  EXPECT_GT(cause(pa, core::StallCause::guard_rejected), 0u);
  EXPECT_EQ(cause(pa, core::StallCause::capacity_backpressure), 0u);
  EXPECT_EQ(cause(pa, core::StallCause::no_ready_token), 0u);
  // PB: the parker's only candidate is its guarded exit.
  EXPECT_GT(cause(pb, core::StallCause::guard_rejected), 0u);
}

// The registry keys generated engines by (model, schedule options): asking
// for an ablation variant whose TU is not linked in is a ModelError naming
// the options, never a silent fall-through to the default-schedule artifact.
TEST(GeneratedVariants, MissingVariantIsAModelError) {
  core::EngineOptions opts;
  opts.backend = core::Backend::generated;
  opts.force_two_list_all = true;
  try {
    machines::SimplePipeline sim(8, opts);
    FAIL() << "Backend::generated accepted an unregistered ablation variant";
  } catch (const model::ModelError& e) {
    EXPECT_NE(std::string(e.what()).find("force_two_list_all"), std::string::npos)
        << e.what();
  }
}

// A generated engine refuses to *run* under options other than the ones its
// tables were emitted for (the stamped-options verification), instead of
// silently simulating a different schedule.
TEST(GeneratedVariants, WrongOptionsAtBuildTimeThrow) {
  core::EngineOptions opts;
  opts.backend = core::Backend::generated;
  machines::SimplePipeline sim(8, opts);  // default schedule: registered, fine
  sim.engine().options().force_two_list_all = true;
  try {
    sim.engine().build();
    FAIL() << "StaticEngine::build() accepted mismatched EngineOptions";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("EngineOptions"), std::string::npos)
        << e.what();
  }
}

/// The Fig 2 net as SimplePipeline declares it, but with place L1 at
/// `l1_delay` and U1 with or without its guard.
void describe_fig2_variant(model::ModelBuilder<machines::Fig2Machine>& b,
                           std::uint32_t l1_delay, bool u1_guard) {
  b.use_delegates(machines::fig2_delegates());
  const model::StageHandle s1 = b.add_stage("L1", 1);
  const model::StageHandle s2 = b.add_stage("L2", 1);
  const model::PlaceHandle l1 = b.add_place("L1", s1, l1_delay);
  const model::PlaceHandle l2 = b.add_place("L2", s2);
  const model::TypeHandle type_a = b.add_type("A");
  const model::TypeHandle type_b = b.add_type("B");
  b.add_transition("U2", type_a).from(l1).to(l2);
  b.add_transition("U3", type_a).from(l2).to(b.end());
  b.add_transition("U4", type_b).from(l1).to(b.end());
  auto u1 = b.add_independent_transition("U1");
  if (u1_guard) u1.guard_ref("rcpn::machines::fig2_u1_guard");
  u1.action_ref("rcpn::machines::fig2_u1_action").to(l1);
}

// The linked Fig2 engine's tables were emitted from the shipped model. A model
// of the same name and options that differs from them must be refused at
// build(), naming what differs, instead of running the stale tables.
TEST(GeneratedVariants, StaleTablesAreRefusedNamingTheMismatch) {
  core::EngineOptions opts;
  opts.backend = core::Backend::generated;
  const auto build = [&opts](std::uint32_t l1_delay, bool u1_guard) {
    model::Simulator<machines::Fig2Machine> sim(
        "Fig2", opts,
        [=](model::ModelBuilder<machines::Fig2Machine>& b, machines::Fig2Machine&) {
          describe_fig2_variant(b, l1_delay, u1_guard);
        },
        machines::Fig2Machine{});
  };
  ASSERT_NO_THROW(build(1, true)) << "the unedited model must match its tables";

  const struct {
    std::uint32_t l1_delay;
    bool u1_guard;
    const char* needle;
  } stale[] = {
      {2, true, "(residence delay of place 'L1')"},
      {1, false, "(guard presence on transition 'U1')"},
  };
  for (const auto& v : stale) {
    try {
      build(v.l1_delay, v.u1_guard);
      ADD_FAILURE() << "the generated engine ran stale tables: " << v.needle;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(v.needle), std::string::npos) << e.what();
    }
  }
}

}  // namespace
}  // namespace rcpn
