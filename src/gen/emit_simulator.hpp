// emit_simulator: print a *complete, standalone* generated C++ simulator for
// a lowered model — the paper's headline artifact made literal.
//
// The emitted translation unit holds:
//
//  * the CompiledModel tables as `static constexpr` data inside a Traits
//    struct (candidate runs, arc arrays, process order, stage reserves,
//    pool hints, with place and transition names in comments), stamped with
//    the schedule-affecting EngineOptions they were lowered under (the
//    StaticEngine refuses to run under different ones — an artifact built
//    for one ablation variant cannot silently diverge under another);
//  * guard/action dispatch as two switch functions whose cases call the
//    model's *named* delegates directly, specialized against the typed
//    machine context — no void* environments, no function pointers;
//  * a gen::StaticEngine<Traits> instantiation (the whole hot loop visible
//    to the compiler in one TU — eligible for whole-program/LTO
//    optimization);
//  * a static registrar so Backend::generated resolves to this engine (keyed
//    by model name + options).
//
// Two artifacts, one per use:
//  * the program (EmitSimOptions::machine_key set) adds a main() that runs
//    the machine's session under the stamped options and diffs the retire
//    trace (the CI gate). The needed subset of the runtime (token storage,
//    engine, model layer, the machine and its golden session) is *inlined*
//    from the embedded library sources (gen::amalgamate_sources), so the
//    program compiles with zero repo includes and links against nothing but
//    the C++ standard library:
//
//      rcpn_emit emit fig2 > fs.cpp && c++ -std=c++20 -O3 fs.cpp
//
//  * the engine TU (no machine_key; `rcpn_emit emit <key> --no-main`)
//    #includes the library headers, so Backend::generated resolves inside a
//    binary that links librcpn (benches, perfbench, tests).
//
// Requirements on the model: every guard/action bound by name through a
// desc::DelegateRegistry (guard_ref/action_ref; anonymous closures cannot be
// emitted — emit_simulator throws listing the offenders), plus
// emit_machine_type()/emit_include() so the generated TU can name the
// context type and include (or, in the program, inline) its declarations.
// Emission is deterministic: byte-identical output for the same model
// (tests/test_emit.cpp pins this).
#pragma once

#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/net.hpp"
#include "gen/compiled_model.hpp"

namespace rcpn::gen {

struct EmitSimOptions {
  /// Emit the freestanding program: a main() that runs this machine key's
  /// session (session_expr) and prints/diffs the retire trace, with the
  /// runtime inlined. Empty: emit only the engine + registrar, #including
  /// the library (for linking into another binary).
  std::string machine_key;

  /// The EngineOptions the model was built and lowered with. The
  /// schedule-affecting flags are stamped into the Traits (verified live at
  /// build()), key the registrar, and seed the emitted main()'s base
  /// options, so ablation-variant artifacts can be emitted per options.
  core::EngineOptions engine_options;

  /// Required with machine_key: C++ expression (an `options` variable of
  /// type core::EngineOptions is in scope) constructing the machine's
  /// machines::GoldenSession, e.g. "rcpn::machines::golden_session_fig2(options)"
  /// (golden_session_expr()). The emitted binary runs every mode,
  /// --checkpoint-*/--restore included, as a session.
  std::string session_expr;

  /// The main()'s headers beyond the net's emit_include()s — typically the
  /// one declaring session_expr's factory (golden_session_header()). Inlined
  /// with the runtime; unused without machine_key.
  std::vector<std::string> extra_roots;
};

/// Render the simulator source. Throws std::runtime_error if the model is not
/// emittable (anonymous delegates, missing machine type, or — with a main —
/// includes outside the embedded source set).
std::string emit_simulator(const CompiledModel& cm, const core::Net& net,
                           const EmitSimOptions& options = {});

}  // namespace rcpn::gen
