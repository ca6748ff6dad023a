// Golden-trace plumbing: the cycle-stamped retire-trace format of
// tests/golden/*.trace, the first-diverging-cycle diff, the checkpointable
// golden session every golden workload runs as, and the CLI main every
// emitted simulator binary fronts.
//
// This file is deliberately free of machine includes so that a generated
// simulator program (gen::emit_simulator with a main) can inline
// it next to one machine without dragging the other five in: the per-machine
// sessions (golden_session_fig2, ... — declared in their machines' own
// headers) and machines/golden_runner.hpp's key-dispatch both build on
// exactly this module, so the library build and every emitted artifact share
// one definition of "run the golden workload and diff the trace".
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/snapshot.hpp"
#include "core/engine.hpp"

namespace rcpn::machines {

/// One retirement: the cycle it happened in, the instruction's pc and its
/// dynamic sequence number — the full observable timing behaviour. The same
/// record a checkpoint embeds as its trace prefix.
using GoldenRetireEvent = ckpt::RetireEvent;

/// Everything one golden-workload run observes: the retire trace plus the
/// engine's end-of-run statistics (the four-way differential harness compares
/// both across backends and across process boundaries).
struct GoldenRunResult {
  std::vector<GoldenRetireEvent> trace;
  core::Stats stats;
};

/// Install an on_retire hook appending to `out` (shared by every session).
void record_golden_retires(core::Engine& eng, std::vector<GoldenRetireEvent>& out);

// -- trace file format (tests/golden/*.trace) ---------------------------------

/// Render a trace in golden format: a `# name ...` header line, then one
/// `cycle pc(hex) seq` line per retirement.
std::string format_golden_trace(const std::string& name,
                                const std::vector<GoldenRetireEvent>& trace);

/// Aggregate statistics as one golden-format comment line
/// (`# stats cycles=... retired=...`); trace parsers skip it, the four-way
/// harness reads it back with parse_golden_stats.
std::string format_golden_stats(const core::Stats& stats);

/// Per-place stall attribution as golden-format comment lines, one
/// `# stallcause place=P cause=NAME count=N` per nonzero counter. Printed by
/// golden_cli_main under --stats so the four-way harness can compare the
/// last-candidate-wins attribution across a process boundary; trace parsers
/// skip the lines like any other comment.
std::string format_stall_causes(const core::Stats& stats);

/// Read `# stallcause ...` lines back into a dense
/// [place * kNumStallCauses + cause] vector of `num_places` places.
/// False on a malformed line or an out-of-range place/cause.
bool parse_stall_causes(const std::string& text, unsigned num_places,
                        std::vector<std::uint64_t>& out);

/// Parse a trace in golden format; false on malformed content.
bool parse_golden_trace(const std::string& text, std::vector<GoldenRetireEvent>& out);

/// Recover the aggregate counters from a `# stats ...` line inside `text`;
/// false if no such line exists or it is malformed.
bool parse_golden_stats(const std::string& text, core::Stats& out);

/// Parse a golden file; false on a missing or malformed file.
bool load_golden_trace(const std::string& path, std::vector<GoldenRetireEvent>& out);

/// Empty string if equal; otherwise a message naming the first diverging
/// retirement and the cycle it happened in.
std::string diff_golden_traces(const std::vector<GoldenRetireEvent>& golden,
                               const std::vector<GoldenRetireEvent>& got);

// -- checkpointable golden sessions -------------------------------------------

/// An in-progress golden-workload run that can be advanced in cycle chunks
/// and snapshotted between chunks — the one way a golden workload runs. One
/// implementation per machine, defined next to the machine
/// (golden_session_fig2, ...) so a freestanding generated simulator inlines
/// exactly one of them. The straight run is a session finished in one chunk
/// (finish_session); since every chunk size walks the same loop, the farm's
/// fixed-size chunks and
///   advance(T) + write_checkpoint + [new process] read_checkpoint + finish
/// are byte-identical — trace, stats, obs stream — to it.
class GoldenSession {
 public:
  virtual ~GoldenSession() = default;

  virtual core::Engine& engine() = 0;
  /// The machine's checkpoint serializer (usually the session itself).
  virtual ckpt::MachineIO& io() = 0;
  /// Run up to `cycles` more cycles of the workload. Returns false once the
  /// workload is complete (calling again runs nothing). Must be called at
  /// cycle boundaries only — which is the only way this API can call it.
  virtual bool advance(std::uint64_t cycles) = 0;
  /// The session-owned retire trace: the restored prefix plus everything
  /// retired since.
  virtual std::vector<GoldenRetireEvent>& trace() = 0;

  /// The run's observable result so far (trace + engine stats).
  GoldenRunResult result() {
    GoldenRunResult r;
    r.trace = trace();
    r.stats = engine().stats();
    return r;
  }
};

/// Construct machine `key`'s golden session under `options` (workload loaded,
/// nothing run). Per-machine factories live next to their machines.
using GoldenSessionFn =
    std::function<std::unique_ptr<GoldenSession>(core::EngineOptions)>;

/// Serialize the session's complete dynamic state (rcpn-ckpt/3).
std::string write_checkpoint(GoldenSession& s);

/// Restore `text` into a *freshly constructed* session (workload loaded,
/// never advanced). Throws ckpt::CkptError on any identity mismatch.
void read_checkpoint(GoldenSession& s, const std::string& text);

/// Advance the session to completion and return its result.
GoldenRunResult finish_session(GoldenSession& s);

/// Entry point of every emitted simulator binary. Every mode runs a fresh
/// `session(options)` on Backend::generated over `base` options (the options
/// the artifact was emitted for — schedule-affecting flags must match the
/// generated tables or the engine's build() verification throws).
/// Default: print the trace (golden format) to stdout. Flags:
///   --golden FILE                     diff against FILE; exit 1 naming the
///                                     first diverging cycle
///   --stats                           also print the `# stats ...` line
///   --trace-json FILE                 write a Chrome-trace-event/Perfetto
///                                     JSON of the run (RCPN_OBS=ON builds;
///                                     exit 2 otherwise)
///   --profile                         print the aggregate observability
///                                     profile (RCPN_OBS=ON builds)
///   --backend generated|compiled|interpreted
///                                     run another in-process backend
///   --force-two-list-all, --no-two-list-state-refs
///                                     schedule-ablation variants (the
///                                     generated backend rejects options its
///                                     tables were not emitted for — combine
///                                     with --backend compiled)
///
/// Checkpoint/restore flags:
///   --checkpoint-at T --checkpoint-out FILE
///                                     run to cycle T, write the snapshot to
///                                     FILE and exit without finishing
///   --checkpoint-every K --checkpoint-out FILE
///                                     run to completion, writing a two-slot
///                                     checkpoint ring (FILE.0 / FILE.1,
///                                     alternating) every K cycles
///   --restore FILE                    restore FILE into a fresh session and
///                                     run to completion; stdout is
///                                     byte-identical to the straight run
int golden_cli_main(int argc, char** argv, const std::string& name,
                    const GoldenSessionFn& session, core::EngineOptions base = {});

}  // namespace rcpn::machines
