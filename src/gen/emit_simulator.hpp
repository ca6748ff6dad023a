// emit_simulator: print a *complete, standalone* generated C++ simulator for
// a lowered model — the paper's headline artifact made literal.
//
// Where emit_cpp() documents the static schedule as a table dump, this
// emitter produces a compilable translation unit:
//
//  * the CompiledModel tables as `static constexpr` data inside a Traits
//    struct (candidate runs, arc arrays, process order, stage reserves,
//    pool hints), stamped with the schedule-affecting EngineOptions they
//    were lowered under (the StaticEngine refuses to run under different
//    ones — an artifact built for one ablation variant cannot silently
//    diverge under another);
//  * guard/action dispatch as two switch functions whose cases call the
//    model's *named* delegates directly, specialized against the typed
//    machine context — no void* environments, no function pointers;
//  * a gen::StaticEngine<Traits> instantiation (the whole hot loop visible
//    to the compiler in one TU — eligible for whole-program/LTO
//    optimization);
//  * a static registrar so Backend::generated resolves to this engine (keyed
//    by model name + options) when the TU is linked in, and optionally a
//    main() that runs the machine's session under the stamped options and
//    diffs the retire trace (the CI gate) — the same main in both modes.
//
// Two emission modes:
//  * EmitMode::linked (default) — the TU #includes the library headers and
//    links against librcpn for the Engine/TokenStore services;
//  * EmitMode::freestanding — the needed subset of the runtime (token
//    storage, engine, model layer, the machine and its golden session) is
//    *inlined* into the TU from the embedded library sources
//    (gen::amalgamate_sources), so the artifact compiles with zero repo
//    includes and links against nothing but the C++ standard library:
//
//      rcpn_emit emit fig2 --freestanding > fs.cpp && c++ -std=c++20 -O3 fs.cpp
//
// Requirements on the model: every guard/action registered through
// ModelBuilder's guard_named/action_named (anonymous closures cannot be
// emitted — emit_simulator throws listing the offenders), plus
// emit_machine_type()/emit_include() so the generated TU can name the
// context type and include (or, freestanding, inline) its declarations.
// Emission is deterministic: byte-identical output for the same model
// (tests/test_emit.cpp pins this).
#pragma once

#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/net.hpp"
#include "gen/compiled_model.hpp"

namespace rcpn::gen {

enum class EmitMode : std::uint8_t {
  /// Emit a TU that #includes the library headers and links against it.
  linked,
  /// Inline the runtime subset; the TU compiles with zero repo includes.
  freestanding,
};

struct EmitSimOptions {
  /// Emit a main() that runs this machine key's session (session_expr) and
  /// prints/diffs the retire trace. Empty: emit only the engine + registrar
  /// (for linking into another binary).
  std::string machine_key;

  EmitMode mode = EmitMode::linked;

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

  /// Headers beyond the net's emit_include()s — typically the one declaring
  /// session_expr's factory (golden_session_header()). #included in linked
  /// mode, inlined in freestanding mode.
  std::vector<std::string> extra_roots;
};

/// Render the standalone simulator source. Throws std::runtime_error if the
/// model is not emittable (anonymous delegates, missing machine type, or —
/// freestanding — includes outside the embedded source set).
std::string emit_simulator(const CompiledModel& cm, const core::Net& net,
                           const EmitSimOptions& options = {});

}  // namespace rcpn::gen
