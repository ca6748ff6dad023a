// Checkpoint/restore with deterministic resume: the byte-equality contract.
//
// The contract under test: run-to-T + snapshot + restore-into-a-fresh-session
// + run-to-completion must be byte-identical — full formatted trace, stats
// line and stall-cause attribution — to the straight run, on every backend.
// The backend is deliberately NOT part of the snapshot identity (all dynamic
// state lives in the engine base), so a snapshot written under interpreted
// must restore into a compiled or generated(linked) session, and the
// freestanding gen_fs_* binaries restore their own checkpoints and ones this
// linked build writes. Besides one mid-run split point per machine, every
// golden machine is split at every cycle of its run, interpreted into
// compiled and compiled into generated.
//
// Alongside the six golden machines an 8-seed fuzz shard snapshots generated
// topologies at a seed-derived split point and restores them across backends
// — coverage on machines nobody curated.
//
// Everything else a checkpoint could silently get wrong is pinned as an
// error path: format-version, machine, model-digest (structure and
// schedule) and workload mismatches must be rejected with a CkptError naming the
// offender (desc-style), truncated files or forged element counts must never
// half-restore or allocate from the forged count, and a token record's ids
// must name entries of the restoring net.
//
// The reset oracle (the state-leak sweep): the golden session of an
// already-used simulator — reset via the machine load path or a bare
// Engine::reset() — must be byte-identical to a fresh construction. This is
// what makes restore-into-reused-context sound, and it pins that no hidden
// state (decode-cache runtime entries, predictor or syscall residue)
// survives a reset.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <sys/stat.h>
#include <sys/wait.h>

#include "ckpt/snapshot.hpp"
#include "ckpt/state_io.hpp"
#include "desc/description.hpp"
#include "machines/desc_machines.hpp"
#include "machines/fig5_processor.hpp"
#include "machines/fuzz_model.hpp"
#include "machines/golden_runner.hpp"
#include "machines/simple_pipeline.hpp"
#include "machines/strongarm.hpp"
#include "machines/tomasulo.hpp"
#include "machines/xscale.hpp"
#include "obs/observer.hpp"
#include "workloads/workloads.hpp"

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

/// Snapshot machine `key` under `write_backend` at every cycle of its run,
/// from cycle 0 to the end, restore each snapshot into a fresh session under
/// `read_backend` and demand byte equality with the straight run. Stops at
/// the first divergence.
void sweep_every_cycle(const std::string& key, core::Backend write_backend,
                       core::Backend read_backend) {
  const std::string whole =
      formatted(key, machines::run_golden_machine_full(key, options_for(read_backend)));
  auto writer = machines::make_golden_session(key, options_for(write_backend));
  std::uint64_t splits = 0;
  do {
    auto reader = machines::make_golden_session(key, options_for(read_backend));
    machines::read_checkpoint(*reader, machines::write_checkpoint(*writer));
    ++splits;
    if (reader->engine().clock() != writer->engine().clock()) {
      ADD_FAILURE() << key << ": restore at cycle " << writer->engine().clock()
                    << " resumed at cycle " << reader->engine().clock();
      return;
    }
    if (formatted(key, machines::finish_session(*reader)) != whole) {
      ADD_FAILURE() << key << ": restore at cycle " << writer->engine().clock()
                    << " diverged from the straight run";
      return;
    }
  } while (writer->advance(1));
  EXPECT_GE(splits, writer->engine().clock()) << key;
}

TEST_P(SnapshotRestore, EveryCycleInterpretedSnapshotRestoresIntoCompiled) {
  sweep_every_cycle(GetParam(), core::Backend::interpreted, core::Backend::compiled);
}

TEST_P(SnapshotRestore, EveryCycleCompiledSnapshotRestoresIntoGenerated) {
  sweep_every_cycle(GetParam(), core::Backend::compiled, core::Backend::generated);
}

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

// -- chunk size ---------------------------------------------------------------

// The farm advances a session in 4,096-cycle chunks, a --checkpoint-every K
// ring in K-cycle chunks and finish_session in a single one: the chunk size
// must never change a run, and each backend's run loop must resume exactly
// where the last chunk stopped. Every golden machine (on all three backends;
// the generated engines are linked in) and fuzz seeds 1-4 (on both library
// backends), advanced in chunks of 1, 7 and 4,096 cycles, must print the
// same trace, stats line and stall causes as finish_session.
TEST(GoldenSessions, ChunkSizeDoesNotChangeTheRun) {
  using MakeSession =
      std::function<std::unique_ptr<machines::GoldenSession>(core::Backend)>;
  struct Run {
    std::string name;
    MakeSession make;
    std::vector<core::Backend> backends;
  };
  std::vector<Run> runs;
  for (const std::string& key : machines::golden_machine_keys())
    runs.push_back({key,
                    [key](core::Backend b) {
                      return machines::make_golden_session(key, options_for(b));
                    },
                    {core::Backend::interpreted, core::Backend::compiled,
                     core::Backend::generated}});
  for (unsigned seed = 1; seed <= 4; ++seed)
    runs.push_back({machines::fuzz_model_name(seed),
                    [seed](core::Backend b) {
                      return machines::make_fuzz_session(
                          seed, machines::fuzz_options_for(seed, b));
                    },
                    {core::Backend::interpreted, core::Backend::compiled}});
  for (const auto& [name, make, backends] : runs)
    for (const core::Backend backend : backends) {
      const std::string whole = formatted(name, machines::finish_session(*make(backend)));
      for (const std::uint64_t chunk : {1u, 7u, 4096u}) {
        const std::unique_ptr<machines::GoldenSession> s = make(backend);
        while (s->advance(chunk)) {
        }
        EXPECT_EQ(formatted(name, s->result()), whole)
            << name << " on backend " << static_cast<int>(backend) << " in chunks of "
            << chunk << " cycles";
      }
    }
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
    const GoldenRunResult straight =
        machines::finish_session(*machines::make_fuzz_session(seed, oc));
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
  for (const char* version :
       {"rcpn-ckpt/1", "rcpn-ckpt/2", "rcpn-ckpt/3", "rcpn-ckpt/4"}) {
    std::string snap = snapshot_of("fig2", 10);
    snap.replace(0, snap.find('\n'), version);
    expect_rejects("fig2", snap, "unsupported format");
  }
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

// The schedule is part of the model digest: a snapshot of the shipped
// StrongArm, restored into the same model with every stage pinned two-list
// (the §4 ablation as a model edit), is refused. Before the digest covered
// the two-list bits, that restore ran on and retired 518, a count neither
// schedule produces (593 shipped, 447 two-list everywhere).
TEST(CkptErrors, ScheduleMismatchIsAModelDigestMismatch) {
  const std::string snap = snapshot_of("strongarm_crc", 750);
  desc::Description d = machines::describe_machine("strongarm_crc");
  for (desc::DescStage& s : d.stages) s.forced_two_list = 1;
  auto s = machines::make_description_session(d, options_for(core::Backend::compiled));
  try {
    machines::read_checkpoint(*s, snap);
    FAIL() << "restore accepted a snapshot taken under another schedule";
  } catch (const ckpt::CkptError& e) {
    EXPECT_NE(std::string(e.what()).find("model digest mismatch"), std::string::npos)
        << e.what();
  }
}

/// Restore a snapshot of golden machine `key` at cycle `t` into the model
/// `edit` makes of its description, and expect a digest refusal. Accepted,
/// a Fig2 snapshot at cycle 20 restored into Fig2 with `delay 3` on U2
/// finishes at cycle 110, a count neither model produces (65 shipped, 130
/// edited).
void expect_edit_refused(const std::string& key, std::uint64_t t,
                         const std::function<void(desc::Description&)>& edit) {
  const std::string snap = snapshot_of(key, t);
  desc::Description d = machines::describe_machine(key);
  edit(d);
  auto s = machines::make_description_session(d, options_for(core::Backend::interpreted));
  try {
    machines::read_checkpoint(*s, snap);
    ADD_FAILURE() << key << ": restore accepted a snapshot of another model";
  } catch (const ckpt::CkptError& e) {
    EXPECT_NE(std::string(e.what()).find("model digest mismatch"), std::string::npos)
        << e.what();
  }
}

desc::DescTransition& transition_named(desc::Description& d, const std::string& name) {
  for (desc::DescTransition& t : d.transitions)
    if (t.name == name) return t;
  throw std::runtime_error("no transition " + name);
}

TEST(CkptErrors, TransitionDelayIsAModelDigestMismatch) {
  expect_edit_refused("fig2", 20, [](desc::Description& d) {
    transition_named(d, "U2").delay = 3;
  });
}

TEST(CkptErrors, OutputArcIsAModelDigestMismatch) {
  expect_edit_refused("fig2", 20, [](desc::Description& d) {
    desc::DescTransition& u2 = transition_named(d, "U2");
    ASSERT_EQ(u2.out.size(), 1u);
    u2.out[0].place = "@end";
  });
}

// StallCause registers two guards; W.escape bound to the other one is
// another model.
TEST(CkptErrors, DelegateBindingIsAModelDigestMismatch) {
  expect_edit_refused("stallcause", 11, [](desc::Description& d) {
    desc::DescTransition& escape = transition_named(d, "W.escape");
    ASSERT_EQ(escape.guard.symbol, "rcpn::machines::stallcause_escape_guard");
    escape.guard.symbol = "rcpn::machines::stallcause_park_exit_guard";
  });
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

// A checkpoint whose register-cell record drops a live writer restores (the
// record is well-formed), but the instruction holding that reservation later
// writes back to a cell that no longer lists it. That is a named HazardError
// in every build, not an abort and not a silently finished run.
TEST(CkptErrors, DroppedLiveWriterFailsWithHazardError) {
  for (const char* key : {"fig5", "tomasulo"}) {
    SCOPED_TRACE(key);
    std::string snap = snapshot_of(key, 3);
    const std::size_t at = snap.find("writers=1 0:0\n");
    ASSERT_NE(at, std::string::npos) << "no live writer at cycle 3";
    snap.replace(at, std::string("writers=1 0:0").size(), "writers=0");
    auto s = machines::make_golden_session(key, options_for(core::Backend::interpreted));
    machines::read_checkpoint(*s, snap);
    try {
      machines::finish_session(*s);
      ADD_FAILURE() << "finished a run whose live writer was dropped";
    } catch (const regfile::HazardError& e) {
      EXPECT_NE(std::string(e.what()).find("has no such in-flight writer to remove"),
                std::string::npos)
          << e.what();
    }
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

// A token record's stage, place, type and state ids index the net's tables.
// Restore must reject a forged one with the line and the field named, before
// the token reaches a stage list: an out-of-range stage overflowed the heap
// on insert, and an out-of-range type was read past the candidate table when
// the restored run first processed the token.
TEST(CkptErrors, OutOfRangeTokenIdsAreRejected) {
  struct Forgery {
    const char* field;
    const char* value;
    const char* needle;
  };
  // Each forges one field of the snapshot's first token record, an
  // instruction token on both machines.
  const Forgery forgeries[] = {
      {"stage", "99", "token field 'stage' = 99 is not a stage of the net"},
      {"stage", "-2", "token field 'stage' = -2 is not a stage of the net"},
      {"stage", "-1", "token field 'stage' = -1 is not a stage of the net"},
      {"stage", "-9223372036854775808", "token field 'stage' = -9223372036854775808"},
      {"stage", "4294967297", "token field 'stage' = 4294967297"},
      {"stage", "2", "not of the record's stage 2"},  // place 1 lives in stage 1
      {"place", "99", "token field 'place' = 99 is not a place of the net"},
      {"place", "-1", "token field 'place' = -1 is not a place of the net"},
      {"type", "99", "token field 'type' = 99 is not a type of the net"},
      {"type", "-1", "token field 'type' = -1 is not a type of the net"},
      {"state", "99", "token field 'state' = 99 is not -1 or a place of the net"},
      {"state", "-2", "token field 'state' = -2 is not -1 or a place of the net"},
  };
  for (const std::string key : {"fig2", "strongarm_crc"}) {
    const std::string snap = snapshot_of(key, key == "fig2" ? 32 : mid_cycle(key));
    const std::size_t rec = snap.find("\ntoken ") + 1;
    ASSERT_NE(rec, 0u) << key;
    const std::string first = snap.substr(rec, snap.find('\n', rec) - rec);
    for (const char* want : {" stage=1 ", " kind=1 ", " place=1 "})
      ASSERT_NE(first.find(want), std::string::npos) << key << ": " << first;
    const std::string line =
        "checkpoint line " +
        std::to_string(std::count(snap.begin(), snap.begin() + rec, '\n') + 1) + ": ";
    for (const Forgery& f : forgeries) {
      const std::string field = " " + std::string(f.field) + "=";
      const std::size_t start = snap.find(field, rec) + field.size();
      const std::size_t end = snap.find_first_of(" \n", start);
      std::string forged = snap;
      forged.replace(start, end - start, f.value);
      SCOPED_TRACE(key + ": " + f.field + "=" + f.value);
      expect_rejects(key, forged, line);
      expect_rejects(key, forged, f.needle);
    }
  }
}

// A token record's pc is decoded again on restore (materialize). Fig5 and
// Tomasulo decode by indexing their program, so a pc past it must be
// rejected naming the pc and the program length, not read beyond the program.
void expect_token_pc_past_program_rejected(const std::string& key, std::uint64_t t,
                                           const std::string& needle) {
  std::string snap = snapshot_of(key, t);
  const std::size_t rec = snap.find("\ntoken ");
  ASSERT_NE(rec, std::string::npos) << key;
  const std::size_t start = snap.find(" pc=", rec) + 4;
  snap.replace(start, snap.find(' ', start) - start, "100000");
  auto s = machines::make_golden_session(key, options_for(core::Backend::interpreted));
  try {
    machines::read_checkpoint(*s, snap);
    ADD_FAILURE() << key << ": restore accepted a token at pc 100000";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
  }
}

TEST(CkptErrors, Fig5TokenPcPastTheProgramIsRejected) {
  expect_token_pc_past_program_rejected(
      "fig5", 7, "Fig5: no instruction at pc 100000 (the program has 8 instructions)");
}

TEST(CkptErrors, TomasuloTokenPcPastTheProgramIsRejected) {
  expect_token_pc_past_program_rejected(
      "tomasulo", 5,
      "Tomasulo: no instruction at pc 100000 (the program has 6 instructions)");
}

// -- observed windows --------------------------------------------------------

/// Observe `s` from its current cycle to the end into `hub`.
GoldenRunResult observe_to_end(machines::GoldenSession& s, obs::Hub& hub) {
  obs::Observer observer(s.engine(), hub);
  machines::advance_observed(s, observer, ~std::uint64_t{0});
  return s.result();
}

// A window is a restore plus an observer: a snapshot taken at cycle C on
// interpreted, restored on compiled and on generated and observed to the
// end, must give the event stream and profile of the straight interpreted
// run observed from C.
TEST(CkptObs, RestoredWindowObservesLikeTheStraightRun) {
  for (const char* key : {"fig2", "fig5", "tomasulo", "strongarm_crc", "xscale_adpcm",
                          "stallcause"}) {
    auto straight =
        machines::make_golden_session(key, options_for(core::Backend::interpreted));
    straight->advance(mid_cycle(key));
    const std::string snap = machines::write_checkpoint(*straight);
    obs::Hub ref;
    const GoldenRunResult whole = observe_to_end(*straight, ref);
    ASSERT_GT(ref.sink().size(), 0u) << key;
    for (const core::Backend backend :
         {core::Backend::compiled, core::Backend::generated}) {
      const std::string label = std::string(key) + " restored on backend " +
                                std::to_string(static_cast<int>(backend));
      auto reader = machines::make_golden_session(key, options_for(backend));
      machines::read_checkpoint(*reader, snap);
      obs::Hub hub;
      EXPECT_EQ(formatted(key, observe_to_end(*reader, hub)), formatted(key, whole))
          << label;
      EXPECT_TRUE(hub.sink().snapshot() == ref.sink().snapshot())
          << label << ": event streams diverge";
      EXPECT_TRUE(hub.profile() == ref.profile()) << label << ": profiles diverge";
    }
  }
}

// -- the reset oracle (state-leak sweep) --------------------------------------

/// The golden session of an already-used simulator must finish
/// byte-identical to a fresh run — no hidden state survives the machine's
/// load path (decode-cache runtime entries, syscall capture, predictor
/// history) or the engine's reset.
void reset_rerun_expect(const std::string& key, core::Backend backend,
                        const std::unique_ptr<machines::GoldenSession>& used) {
  const GoldenRunResult again = machines::finish_session(*used);
  const GoldenRunResult fresh =
      machines::run_golden_machine_full(key, options_for(backend));
  EXPECT_EQ(formatted(key, again), formatted(key, fresh))
      << key << " on backend " << static_cast<int>(backend)
      << ": rerun after reset diverged from a fresh run — state leaked";
}

TEST(ResetOracle, Fig5RerunEqualsFreshRun) {
  using I = machines::Fig5Instr;
  for (const auto backend : {core::Backend::interpreted, core::Backend::compiled}) {
    auto sim = std::make_unique<machines::Fig5Processor>(options_for(backend));
    // Leaves registers, memory, the data cache and the decode cache holding
    // state the golden workload never produces.
    sim->load({I::alui(I::AluOp::add, 7, 0, 5), I::store(7, 0x40), I::load(3, 0x40),
               I::branch(2), I::alui(I::AluOp::add, 4, 0, 1),
               I::alu(I::AluOp::mul, 5, 3, 7)});
    sim->run();
    reset_rerun_expect("fig5", backend, machines::golden_session_fig5(std::move(sim)));
  }
}

TEST(ResetOracle, TomasuloRerunEqualsFreshRun) {
  using I = machines::Fig5Instr;
  for (const auto backend : {core::Backend::interpreted, core::Backend::compiled}) {
    auto sim = std::make_unique<machines::TomasuloCore>(4, 2, options_for(backend));
    // Tomasulo issues every instruction as ALU.
    sim->load({I::alui(I::AluOp::add, 1, 0, 9), I::alu(I::AluOp::mul, 2, 1, 1),
               I::alui(I::AluOp::sub, 7, 2, 4), I::alu(I::AluOp::xor_op, 3, 7, 1)});
    sim->run();
    reset_rerun_expect("tomasulo", backend,
                       machines::golden_session_tomasulo(std::move(sim)));
  }
}

TEST(ResetOracle, StrongArmRerunEqualsFreshRun) {
  const sys::Program crc = workloads::build(*workloads::find("crc"), 1);
  for (const auto backend : {core::Backend::interpreted, core::Backend::compiled}) {
    machines::StrongArmConfig cfg;
    cfg.engine = options_for(backend);
    auto sim = std::make_unique<machines::StrongArmSim>(cfg);
    sim->run(crc, 1500);  // stops mid-kernel, tokens in flight
    reset_rerun_expect("strongarm_crc", backend,
                       machines::golden_session_strongarm_crc(std::move(sim)));
  }
}

TEST(ResetOracle, XScaleRerunEqualsFreshRun) {
  const sys::Program adpcm = workloads::build(*workloads::find("adpcm"), 1);
  for (const auto backend : {core::Backend::interpreted, core::Backend::compiled}) {
    machines::XScaleConfig cfg;
    cfg.engine = options_for(backend);
    auto sim = std::make_unique<machines::XScaleSim>(cfg);
    sim->run(adpcm, 1500);  // stops mid-kernel, tokens in flight
    reset_rerun_expect("xscale_adpcm", backend,
                       machines::golden_session_xscale_adpcm(std::move(sim)));
  }
}

// A bare Engine::reset() (no machine load path in between) must scrub every
// engine-side latch — clock, in-flight accounting, activity snapshots, stats
// including the stall-cause tables.
TEST(ResetOracle, BareEngineResetClearsAllRunState) {
  for (const auto backend : {core::Backend::interpreted, core::Backend::compiled}) {
    auto sim = std::make_unique<machines::SimplePipeline>(64, options_for(backend));
    sim->run();
    sim->engine().reset();
    sim->machine().generated = 0;  // the machine context's only mutable field
    const GoldenRunResult again =
        machines::finish_session(*machines::golden_session_fig2(std::move(sim)));
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

// The freestanding leg of the contract: the emitted single-TU binary
// checkpoints and restores itself byte-identically, and — the cross-build
// half — restores a checkpoint written by THIS linked build's interpreted
// engine (backend and build flavor are not snapshot identity).
TEST(CkptFreestanding, RoundTripAndCrossBuildRestore) {
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
}

// Strict cycle counts: a value that is not a whole decimal number exits 2
// naming the flag, and writes no checkpoint. Read leniently, `12x` would
// checkpoint at cycle 12, `abc` at 0 and `-5` at the run's end.
TEST(CkptFreestanding, MalformedCycleCountExitsTwoWritingNothing) {
  const std::string bin = std::string(RCPN_BIN_DIR) + "/gen_fs_fig2";
  struct stat st{};
  ASSERT_EQ(::stat(bin.c_str(), &st), 0) << bin;
  const std::string file = ::testing::TempDir() + "ckpt_malformed_fig2";
  for (const char* flag : {"--checkpoint-at", "--checkpoint-every"})
    for (const char* value : {"12x", "abc", "-5"}) {
      std::remove(file.c_str());
      std::remove((file + ".0").c_str());
      std::string out;
      EXPECT_EQ(run_capture(bin + " " + flag + " " + value + " --checkpoint-out " + file,
                            out),
                2)
          << flag << " " << value << ": " << out;
      const std::string message =
          std::string(flag) + " expects a cycle count, got '" + value + "'";
      EXPECT_NE(out.find(message), std::string::npos) << out;
      EXPECT_NE(::stat(file.c_str(), &st), 0) << flag << " " << value << " wrote a file";
      EXPECT_NE(::stat((file + ".0").c_str(), &st), 0) << flag << " " << value;
    }
}

// An observed window through the CLI: a snapshot the interpreted engine
// writes at cycle 700, restored on the generated and on the compiled engine
// with --trace-json, gives byte-identical traces.
TEST(CkptFreestanding, ObservedWindowTraceIsTheSameOnEveryBackend) {
  const std::string bin = std::string(RCPN_BIN_DIR) + "/gen_fs_strongarm_crc";
  struct stat st{};
  ASSERT_EQ(::stat(bin.c_str(), &st), 0) << bin;
  const std::string dir = ::testing::TempDir();
  const std::string snap = dir + "ckpt_window_strongarm_crc";
  std::string out;
  ASSERT_EQ(run_capture(bin + " --backend interpreted --checkpoint-at 700 "
                              "--checkpoint-out " + snap,
                        out),
            0)
      << out;
  std::string traces[2];
  const char* backends[2] = {"generated", "compiled"};
  for (int i = 0; i < 2; ++i) {
    const std::string json = dir + "window_" + backends[i] + ".json";
    ASSERT_EQ(run_capture(bin + " --backend " + backends[i] + " --restore " + snap +
                              " --trace-json " + json,
                          out),
              0)
        << out;
    std::ifstream in(json, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    traces[i] = buf.str();
  }
  EXPECT_GT(traces[0].size(), 1000u);
  EXPECT_EQ(traces[0], traces[1]) << "window traces differ between backends";
}

// The periodic checkpoint ring: --checkpoint-every K writes alternating
// FILE.0/FILE.1 slots while still completing the run; the last slot restores
// to the straight result.
TEST(CkptFreestanding, CheckpointRingSlotsRestore) {
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
}

}  // namespace
}  // namespace rcpn
