// Golden cycle-stamped retire traces for the golden machine models.
//
// Each trace file under tests/golden/ records, for a small fixed workload,
// every retirement as `cycle pc seq` in retire order — the full observable
// timing behaviour of the model, captured once and checked in. Both library
// backends are diffed against the same file, so an equivalence regression
// (or an accidental timing change in a model or in either engine) fails by
// naming the machine, the backend and the *first diverging cycle*, instead
// of a distant aggregate mismatch. The workload/trace machinery itself lives
// in machines/golden_runner.{hpp,cpp}, shared with the generated-simulator
// programs (gen_fs_*) that CI diffs against the same files — three engines,
// one reference.
//
// Regenerate after an intentional timing change with:
//   RCPN_REGEN_GOLDEN=1 ./test_golden_traces
// which rewrites the files in the source tree from the interpreted engine
// (the reference semantics) and still asserts the compiled engine agrees.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "machines/golden_runner.hpp"

namespace rcpn {
namespace {

using machines::GoldenRetireEvent;

std::vector<GoldenRetireEvent> run_machine(const std::string& name,
                                           core::Backend backend) {
  core::EngineOptions opts;
  opts.backend = backend;
  return machines::run_golden_machine_full(name, opts).trace;
}

std::string golden_path(const std::string& name) {
  return std::string(RCPN_GOLDEN_DIR) + "/" + name + ".trace";
}

void write_golden(const std::string& name, const std::vector<GoldenRetireEvent>& trace) {
  std::ofstream out(golden_path(name));
  ASSERT_TRUE(out.good()) << "cannot write " << golden_path(name);
  out << machines::format_golden_trace(name, trace);
}

void expect_matches_golden(const std::string& name, const char* backend,
                           const std::vector<GoldenRetireEvent>& golden,
                           const std::vector<GoldenRetireEvent>& trace) {
  const std::string diff = machines::diff_golden_traces(golden, trace);
  EXPECT_TRUE(diff.empty()) << name << " (" << backend << "): " << diff;
}

class GoldenTrace : public ::testing::TestWithParam<const char*> {};

TEST_P(GoldenTrace, BothBackendsMatchCheckedInTrace) {
  const std::string name = GetParam();
  const std::vector<GoldenRetireEvent> interp =
      run_machine(name, core::Backend::interpreted);
  const std::vector<GoldenRetireEvent> comp = run_machine(name, core::Backend::compiled);
  ASSERT_FALSE(interp.empty()) << name << ": workload retired nothing";

  if (std::getenv("RCPN_REGEN_GOLDEN") != nullptr) {
    write_golden(name, interp);
    expect_matches_golden(name, "compiled-vs-regenerated", interp, comp);
    GTEST_LOG_(INFO) << "regenerated " << golden_path(name) << " (" << interp.size()
                     << " retirements)";
    return;
  }

  std::vector<GoldenRetireEvent> golden;
  ASSERT_TRUE(machines::load_golden_trace(golden_path(name), golden))
      << "missing or malformed golden file " << golden_path(name)
      << " — regenerate with RCPN_REGEN_GOLDEN=1 ./test_golden_traces";
  expect_matches_golden(name, "interpreted", golden, interp);
  expect_matches_golden(name, "compiled", golden, comp);
}

INSTANTIATE_TEST_SUITE_P(AllMachines, GoldenTrace,
                         ::testing::Values("fig2", "fig5", "tomasulo", "strongarm_crc",
                                           "xscale_adpcm", "stallcause"),
                         [](const auto& info) { return std::string(info.param); });

// The trace keys and the golden runner's canonical key list must agree (the
// gen_fs_* CI jobs iterate the runner's list).
TEST(GoldenTrace, KeysMatchRunner) {
  const std::vector<std::string> expected = {
      "fig2", "fig5", "tomasulo", "strongarm_crc", "xscale_adpcm", "stallcause"};
  EXPECT_EQ(machines::golden_machine_keys(), expected);
}

}  // namespace
}  // namespace rcpn
