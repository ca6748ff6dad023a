// Checkpoint/restore with deterministic resume: the byte-equality contract.
//
// The contract under test: run-to-T + snapshot + restore-into-a-fresh-session
// + run-to-completion must be byte-identical — full formatted trace, stats
// line and stall-cause attribution — to the straight run, on every backend.
// The backend is deliberately NOT part of the snapshot identity (all dynamic
// state lives in the engine base), so a snapshot written under interpreted
// must restore into a compiled or generated(linked) session; the freestanding
// leg (gen_fs_* binaries, plus a freestanding binary restoring a checkpoint
// written by this linked build) rides behind RCPN_HAVE_FS_BINARIES.
//
// Alongside the six golden machines an 8-seed fuzz shard snapshots generated
// topologies at a seed-derived split point and restores them across backends
// — coverage on machines nobody curated.
//
// Everything else a checkpoint could silently get wrong is pinned as an
// error path: format-version, machine, model-digest, workload and
// options-signature mismatches must be rejected with a CkptError naming the
// offender (desc-style), and truncated files or forged element counts must
// never half-restore or allocate from the forged count.
//
// The reset oracle (the state-leak sweep): re-running a workload on an
// already-used simulator — via the machine load path or a bare
// Engine::reset() — must be byte-identical to a fresh construction. This is
// what makes restore-into-reused-context sound, and it pins that no hidden
// state (decode-cache runtime entries, predictor or syscall residue)
// survives a reset.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#ifdef RCPN_HAVE_FS_BINARIES
#include <sys/stat.h>
#include <sys/wait.h>
#endif

#include "ckpt/snapshot.hpp"
#include "ckpt/state_io.hpp"
#include "machines/fig5_processor.hpp"
#include "machines/fuzz_model.hpp"
#include "machines/golden_runner.hpp"
#include "machines/simple_pipeline.hpp"
#include "machines/strongarm.hpp"
#include "machines/tomasulo.hpp"
#include "machines/xscale.hpp"
#include "obs/probe.hpp"

namespace rcpn {
namespace {

using machines::GoldenRunResult;

core::EngineOptions options_for(core::Backend backend) {
  core::EngineOptions o;
  o.backend = backend;
  return o;
}

/// The full observable output of a run, as the byte-equality contract defines
/// it: formatted trace + stats line + stall-cause attribution.
std::string formatted(const std::string& name, const GoldenRunResult& r) {
  return machines::format_golden_trace(name, r.trace) +
         machines::format_golden_stats(r.stats) +
         machines::format_stall_causes(r.stats);
}

/// Mid-run split points, chosen inside each machine's busy window (deep
/// enough that ARM machines carry in-flight loads, resolved branches and
/// decode-cache clones across the boundary).
std::uint64_t mid_cycle(const std::string& key) {
  if (key == "fig2") return 30;
  if (key == "fig5") return 7;
  if (key == "tomasulo") return 9;
  if (key == "stallcause") return 11;
  return 700;  // strongarm_crc / xscale_adpcm: mid-kernel
}

/// Snapshot machine `key` at cycle `t` under `write_backend`, restore into a
/// fresh session under `read_backend`, run to completion and demand byte
/// equality with the straight run.
void roundtrip_expect(const std::string& key, core::Backend write_backend,
                      core::Backend read_backend, std::uint64_t t) {
  const GoldenRunResult straight =
      machines::run_golden_machine_full(key, options_for(read_backend));
  ASSERT_FALSE(straight.trace.empty()) << key;

  auto writer = machines::make_golden_session(key, options_for(write_backend));
  writer->advance(t);
  const std::string snap = machines::write_checkpoint(*writer);

  auto reader = machines::make_golden_session(key, options_for(read_backend));
  machines::read_checkpoint(*reader, snap);
  const GoldenRunResult resumed = machines::finish_session(*reader);

  EXPECT_EQ(formatted(key, resumed), formatted(key, straight))
      << key << ": restore at cycle " << t << " diverged from the straight run";
}

class SnapshotRestore : public ::testing::TestWithParam<const char*> {};

TEST_P(SnapshotRestore, InterpretedRoundTrip) {
  const std::string key = GetParam();
  roundtrip_expect(key, core::Backend::interpreted, core::Backend::interpreted,
                   mid_cycle(key));
}

TEST_P(SnapshotRestore, CompiledRoundTrip) {
  const std::string key = GetParam();
  roundtrip_expect(key, core::Backend::compiled, core::Backend::compiled,
                   mid_cycle(key));
}

// Backend is not snapshot identity: a snapshot written by the interpreted
// engine restores into a compiled session (and stays byte-identical).
TEST_P(SnapshotRestore, InterpretedSnapshotRestoresIntoCompiled) {
  const std::string key = GetParam();
  roundtrip_expect(key, core::Backend::interpreted, core::Backend::compiled,
                   mid_cycle(key));
}

#ifdef RCPN_HAVE_GENERATED
TEST_P(SnapshotRestore, GeneratedRoundTrip) {
  const std::string key = GetParam();
  roundtrip_expect(key, core::Backend::generated, core::Backend::generated,
                   mid_cycle(key));
}

TEST_P(SnapshotRestore, CompiledSnapshotRestoresIntoGenerated) {
  const std::string key = GetParam();
  roundtrip_expect(key, core::Backend::compiled, core::Backend::generated,
                   mid_cycle(key));
}
#endif

// Two independent sessions advanced to the same cycle must serialize to the
// same bytes — snapshotting is a pure function of the run state.
TEST_P(SnapshotRestore, SnapshotIsDeterministic) {
  const std::string key = GetParam();
  const std::uint64_t t = mid_cycle(key);
  auto a = machines::make_golden_session(key, options_for(core::Backend::interpreted));
  auto b = machines::make_golden_session(key, options_for(core::Backend::interpreted));
  a->advance(t);
  b->advance(t);
  EXPECT_EQ(machines::write_checkpoint(*a), machines::write_checkpoint(*b)) << key;
}

INSTANTIATE_TEST_SUITE_P(AllMachines, SnapshotRestore,
                         ::testing::Values("fig2", "fig5", "tomasulo", "strongarm_crc",
                                           "xscale_adpcm", "stallcause"),
                         [](const auto& info) { return std::string(info.param); });

// -- boundary positions -------------------------------------------------------

// Snapshot before the first cycle: restoring a cycle-0 checkpoint replays
// the whole run.
TEST(SnapshotEdges, SnapshotBeforeFirstCycleReplaysWholeRun) {
  roundtrip_expect("fig5", core::Backend::interpreted, core::Backend::interpreted, 0);
}

// Snapshot after completion: the restored session has nothing left to run
// and its result is the finished run.
TEST(SnapshotEdges, SnapshotAfterCompletionRestoresFinishedRun) {
  const std::string key = "fig2";
  const GoldenRunResult straight =
      machines::run_golden_machine_full(key, options_for(core::Backend::interpreted));

  auto writer = machines::make_golden_session(key, options_for(core::Backend::interpreted));
  while (writer->advance(1000)) {
  }
  const std::string snap = machines::write_checkpoint(*writer);

  auto reader = machines::make_golden_session(key, options_for(core::Backend::interpreted));
  machines::read_checkpoint(*reader, snap);
  const GoldenRunResult resumed = machines::finish_session(*reader);
  EXPECT_EQ(formatted(key, resumed), formatted(key, straight));
}

// -- fuzz shard ---------------------------------------------------------------

// Eight generated topologies: snapshot the interpreted engine at a
// seed-derived split point inside the run, restore into a *compiled* session
// and demand byte equality with the straight compiled run. Loops, flushes,
// reservations and multi-issue fetch all cross the resume boundary here.
TEST(CkptFuzz, EightSeedSnapshotAtSeededCycleRestoresAcrossBackends) {
  for (unsigned seed = 9200; seed < 9208; ++seed) {
    const core::EngineOptions oi =
        machines::fuzz_options_for(seed, core::Backend::interpreted);
    const core::EngineOptions oc =
        machines::fuzz_options_for(seed, core::Backend::compiled);
    const GoldenRunResult straight = machines::golden_run_fuzz(seed, oc);
    ASSERT_FALSE(straight.trace.empty()) << "seed=" << seed;

    // Deterministic pseudo-random split point strictly inside the run.
    const std::uint64_t t =
        1 + (seed * 2654435761u) % (straight.stats.cycles > 1
                                        ? straight.stats.cycles - 1
                                        : 1);
    auto writer = machines::make_fuzz_session(seed, oi);
    writer->advance(t);
    const std::string snap = machines::write_checkpoint(*writer);

    auto reader = machines::make_fuzz_session(seed, oc);
    machines::read_checkpoint(*reader, snap);
    const GoldenRunResult resumed = machines::finish_session(*reader);

    const std::string name = machines::fuzz_model_name(seed);
    EXPECT_EQ(formatted(name, resumed), formatted(name, straight))
        << "seed=" << seed << " split at cycle " << t;
  }
}

// -- error paths --------------------------------------------------------------

std::string snapshot_of(const std::string& key, std::uint64_t t) {
  auto s = machines::make_golden_session(key, options_for(core::Backend::interpreted));
  s->advance(t);
  return machines::write_checkpoint(*s);
}

/// Replace the value of `field` ("digest=", ...) in the snapshot text with
/// `repl` (values end at the next space or newline).
std::string tamper(std::string text, const std::string& field, const std::string& repl) {
  const std::size_t pos = text.find(field);
  EXPECT_NE(pos, std::string::npos) << field;
  const std::size_t start = pos + field.size();
  const std::size_t end = text.find_first_of(" \n", start);
  return text.replace(start, end - start, repl);
}

void expect_rejects(const std::string& key, const std::string& snap,
                    const std::string& needle) {
  auto s = machines::make_golden_session(key, options_for(core::Backend::interpreted));
  try {
    machines::read_checkpoint(*s, snap);
    FAIL() << "restore accepted a snapshot that should be rejected (" << needle << ")";
  } catch (const ckpt::CkptError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
  }
}

TEST(CkptErrors, UnsupportedFormatVersionIsNamed) {
  std::string snap = snapshot_of("fig2", 10);
  snap.replace(0, snap.find('\n'), "rcpn-ckpt/1");
  expect_rejects("fig2", snap, "unsupported format");
}

TEST(CkptErrors, MachineMismatchNamesBothSides) {
  const std::string snap = snapshot_of("fig2", 10);
  auto s = machines::make_golden_session("stallcause",
                                         options_for(core::Backend::interpreted));
  try {
    machines::read_checkpoint(*s, snap);
    FAIL() << "restore accepted a snapshot of a different machine";
  } catch (const ckpt::CkptError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("machine mismatch"), std::string::npos) << what;
    EXPECT_NE(what.find("fig2"), std::string::npos) << what;
    EXPECT_NE(what.find("stallcause"), std::string::npos) << what;
  }
}

TEST(CkptErrors, ModelDigestMismatchIsNamed) {
  const std::string snap = tamper(snapshot_of("fig2", 10), "digest=", "deadbeef");
  expect_rejects("fig2", snap, "model digest mismatch");
}

TEST(CkptErrors, WorkloadMismatchIsNamed) {
  const std::string snap = tamper(snapshot_of("fig2", 10), "workload=", "golden-32");
  expect_rejects("fig2", snap, "workload mismatch");
}

TEST(CkptErrors, OptionsSignatureMismatchIsNamed) {
  const std::string snap = snapshot_of("fig2", 10);
  core::EngineOptions o = options_for(core::Backend::compiled);
  o.force_two_list_all = true;  // schedule flag: part of the options signature
  auto s = machines::make_golden_session("fig2", o);
  try {
    machines::read_checkpoint(*s, snap);
    FAIL() << "restore accepted a snapshot taken under different schedule options";
  } catch (const ckpt::CkptError& e) {
    EXPECT_NE(std::string(e.what()).find("options-signature mismatch"),
              std::string::npos)
        << e.what();
  }
}

TEST(CkptErrors, TruncatedSnapshotIsRejectedNotHalfRestored) {
  const std::string snap = snapshot_of("fig5", 7);
  for (const double frac : {0.25, 0.5, 0.9}) {
    const std::string cut = snap.substr(0, static_cast<std::size_t>(snap.size() * frac));
    auto s = machines::make_golden_session("fig5", options_for(core::Backend::interpreted));
    EXPECT_THROW(machines::read_checkpoint(*s, cut), ckpt::CkptError)
        << "truncated to " << frac;
  }
}

// Element counts come from the file: restore must reject a forged count
// through the record checks, never size an allocation from it.
TEST(CkptErrors, ForgedCountsAreRejectedWithoutAllocating) {
  const std::string snap = snapshot_of("fig5", 7);
  for (const char* n : {"18446744073709551615", "3000000000"})
    expect_rejects("fig5", tamper(snap, "trace n=", n), "expected a 't' record");
  expect_rejects("fig5",
                 tamper(snap, "vec name=transition_fires n=", "18446744073709551615"),
                 "vector 'transition_fires' declares 18446744073709551615 elements");
}

// -- obs stream equality (probes compiled in only) ----------------------------

// With a Hub attached on both sides, the restored run's event stream and
// profile must equal the straight observed run's — the obs state crosses the
// resume boundary too. In RCPN_OBS=OFF builds the probes are compiled out,
// so there is nothing to compare.
TEST(CkptObs, RestoredRunReplaysIdenticalEventStreamAndProfile) {
#if !RCPN_OBS
  GTEST_SKIP() << "observability probes not compiled in (RCPN_OBS=OFF)";
#else
  const std::string key = "fig5";
  obs::Hub hub_straight, hub_writer, hub_reader;

  core::EngineOptions os = options_for(core::Backend::interpreted);
  os.obs = &hub_straight;
  const GoldenRunResult straight = machines::run_golden_machine_full(key, os);

  core::EngineOptions ow = options_for(core::Backend::interpreted);
  ow.obs = &hub_writer;
  auto writer = machines::make_golden_session(key, ow);
  writer->advance(7);
  const std::string snap = machines::write_checkpoint(*writer);

  core::EngineOptions orr = options_for(core::Backend::interpreted);
  orr.obs = &hub_reader;
  auto reader = machines::make_golden_session(key, orr);
  machines::read_checkpoint(*reader, snap);
  const GoldenRunResult resumed = machines::finish_session(*reader);

  EXPECT_EQ(formatted(key, resumed), formatted(key, straight));
  const std::vector<obs::Event> es = hub_straight.sink().snapshot();
  const std::vector<obs::Event> er = hub_reader.sink().snapshot();
  ASSERT_EQ(es.size(), er.size());
  EXPECT_TRUE(es == er) << key << ": restored event stream diverges";
  EXPECT_TRUE(hub_reader.profile() == hub_straight.profile())
      << key << ": restored profile diverges";
#endif
}

// -- the reset oracle (state-leak sweep) --------------------------------------

/// Re-running the golden workload on an already-used simulator must be
/// byte-identical to a fresh construction — no hidden state survives the
/// machine's load path (decode-cache runtime entries, syscall capture,
/// predictor history) or the engine's reset.
template <typename Sim, typename Finish>
void reset_rerun_expect(const std::string& key, core::Backend backend, Sim& sim,
                        Finish finish) {
  (void)finish(sim);  // first run: dirties every piece of run state
  const GoldenRunResult again = finish(sim);
  const GoldenRunResult fresh =
      machines::run_golden_machine_full(key, options_for(backend));
  EXPECT_EQ(formatted(key, again), formatted(key, fresh))
      << key << " on backend " << static_cast<int>(backend)
      << ": rerun after reset diverged from a fresh run — state leaked";
}

TEST(ResetOracle, Fig5RerunEqualsFreshRun) {
  for (const auto backend : {core::Backend::interpreted, core::Backend::compiled}) {
    machines::Fig5Processor sim(options_for(backend));
    reset_rerun_expect("fig5", backend, sim,
                       [](auto& s) { return machines::golden_finish_fig5(s); });
  }
}

TEST(ResetOracle, TomasuloRerunEqualsFreshRun) {
  for (const auto backend : {core::Backend::interpreted, core::Backend::compiled}) {
    machines::TomasuloCore sim(4, 2, options_for(backend));
    reset_rerun_expect("tomasulo", backend, sim,
                       [](auto& s) { return machines::golden_finish_tomasulo(s); });
  }
}

TEST(ResetOracle, StrongArmRerunEqualsFreshRun) {
  for (const auto backend : {core::Backend::interpreted, core::Backend::compiled}) {
    machines::StrongArmConfig cfg;
    cfg.engine = options_for(backend);
    machines::StrongArmSim sim(cfg);
    reset_rerun_expect("strongarm_crc", backend, sim,
                       [](auto& s) { return machines::golden_finish_strongarm_crc(s); });
  }
}

TEST(ResetOracle, XScaleRerunEqualsFreshRun) {
  for (const auto backend : {core::Backend::interpreted, core::Backend::compiled}) {
    machines::XScaleConfig cfg;
    cfg.engine = options_for(backend);
    machines::XScaleSim sim(cfg);
    reset_rerun_expect("xscale_adpcm", backend, sim,
                       [](auto& s) { return machines::golden_finish_xscale_adpcm(s); });
  }
}

// A bare Engine::reset() (no machine load path in between) must scrub every
// engine-side latch — clock, in-flight accounting, activity snapshots, stats
// including the stall-cause tables.
TEST(ResetOracle, BareEngineResetClearsAllRunState) {
  for (const auto backend : {core::Backend::interpreted, core::Backend::compiled}) {
    machines::SimplePipeline sim(64, options_for(backend));
    (void)machines::golden_finish_fig2(sim);
    sim.engine().reset();
    sim.machine().generated = 0;  // the machine context's only mutable field
    const GoldenRunResult again = machines::golden_finish_fig2(sim);
    const GoldenRunResult fresh =
        machines::run_golden_machine_full("fig2", options_for(backend));
    EXPECT_EQ(formatted("fig2", again), formatted("fig2", fresh))
        << "backend " << static_cast<int>(backend)
        << ": Engine::reset() left residue behind";
  }
}

// Restore must also work into a *reused* session context: run a session to
// completion, then reuse its machine via a second fresh session — the pair
// (reset oracle + this) is what makes checkpoint branch-off exploration
// sound in long-lived processes.
TEST(ResetOracle, RestoreAfterPriorRunOnFreshSessionMatches) {
  const std::string key = "strongarm_crc";
  const GoldenRunResult straight =
      machines::run_golden_machine_full(key, options_for(core::Backend::interpreted));

  auto writer = machines::make_golden_session(key, options_for(core::Backend::interpreted));
  writer->advance(mid_cycle(key));
  const std::string snap = machines::write_checkpoint(*writer);

  // Dirty a full run first, then restore on a brand-new session.
  (void)machines::run_golden_machine_full(key, options_for(core::Backend::interpreted));
  auto reader = machines::make_golden_session(key, options_for(core::Backend::interpreted));
  machines::read_checkpoint(*reader, snap);
  const GoldenRunResult resumed = machines::finish_session(*reader);
  EXPECT_EQ(formatted(key, resumed), formatted(key, straight));
}

// -- freestanding binaries ----------------------------------------------------

#ifdef RCPN_HAVE_FS_BINARIES
/// Run `cmd`, capture stdout+stderr; returns the exit code (-1 on spawn
/// failure or signal death).
int run_capture(const std::string& cmd, std::string& out) {
  out.clear();
  FILE* pipe = popen((cmd + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return -1;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) out.append(buf, n);
  const int status = pclose(pipe);
  if (status < 0 || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}
#endif

// The freestanding leg of the contract: the emitted single-TU binary
// checkpoints and restores itself byte-identically, and — the cross-build
// half — restores a checkpoint written by THIS linked build's interpreted
// engine (backend and build flavor are not snapshot identity).
TEST(CkptFreestanding, RoundTripAndCrossBuildRestore) {
#ifndef RCPN_HAVE_FS_BINARIES
  GTEST_SKIP() << "no freestanding binaries in this build "
                  "(RCPN_GENERATED_SIMS=OFF or RCPN_NO_EMBED=ON)";
#else
  const std::string key = "strongarm_crc";
  const std::string bin = std::string(RCPN_BIN_DIR) + "/gen_fs_" + key;
  struct stat st{};
  ASSERT_EQ(::stat(bin.c_str(), &st), 0)
      << bin << " missing — build the gen_fs_* targets first";
  const std::string dir = ::testing::TempDir();

  std::string straight;
  ASSERT_EQ(run_capture(bin + " --stats", straight), 0) << straight;

  // Leg 1: freestanding writes, freestanding restores.
  const std::string fs_ckpt = dir + "ckpt_fs_" + key;
  std::string out;
  ASSERT_EQ(run_capture(bin + " --checkpoint-at 700 --checkpoint-out " + fs_ckpt, out),
            0)
      << out;
  std::string restored;
  ASSERT_EQ(run_capture(bin + " --restore " + fs_ckpt + " --stats", restored), 0)
      << restored;
  EXPECT_EQ(restored, straight) << key << ": freestanding round trip diverged";

  // Leg 2: the linked build's interpreted engine writes, the freestanding
  // binary restores.
  auto writer = machines::make_golden_session(key, options_for(core::Backend::interpreted));
  writer->advance(700);
  const std::string linked_ckpt = dir + "ckpt_linked_" + key;
  {
    std::ofstream f(linked_ckpt, std::ios::binary);
    ASSERT_TRUE(f.is_open()) << linked_ckpt;
    f << machines::write_checkpoint(*writer);
  }
  std::string cross;
  ASSERT_EQ(run_capture(bin + " --restore " + linked_ckpt + " --stats", cross), 0)
      << cross;
  EXPECT_EQ(cross, straight) << key << ": linked-writer -> freestanding restore diverged";
#endif
}

// The periodic checkpoint ring: --checkpoint-every K writes alternating
// FILE.0/FILE.1 slots while still completing the run; the last slot restores
// to the straight result.
TEST(CkptFreestanding, CheckpointRingSlotsRestore) {
#ifndef RCPN_HAVE_FS_BINARIES
  GTEST_SKIP() << "no freestanding binaries in this build";
#else
  const std::string bin = std::string(RCPN_BIN_DIR) + "/gen_fs_fig2";
  struct stat st{};
  ASSERT_EQ(::stat(bin.c_str(), &st), 0) << bin;
  const std::string ring = ::testing::TempDir() + "ckpt_ring_fig2";

  std::string straight;
  ASSERT_EQ(run_capture(bin + " --stats", straight), 0) << straight;
  std::string out;
  ASSERT_EQ(
      run_capture(bin + " --checkpoint-every 10 --checkpoint-out " + ring + " --stats",
                  out),
      0)
      << out;
  // The ring run's own stdout is still the full straight run.
  EXPECT_EQ(out, straight);

  for (const char* slot : {".0", ".1"}) {
    std::string restored;
    ASSERT_EQ(run_capture(bin + " --restore " + ring + slot + " --stats", restored), 0)
        << restored;
    EXPECT_EQ(restored, straight) << "ring slot " << slot << " diverged";
  }
#endif
}

}  // namespace
}  // namespace rcpn
