// Model-as-data entry points for the machines shipped with the library: the
// bridge between serialized .rcpn descriptions (src/desc/) and the concrete
// machine families (Fig2, Fig5, Tomasulo, StrongArm, XScale, StallCause,
// fuzz-N).
//
// This is deliberately the ONLY machines/ translation unit that includes the
// description parser: the machine cpps themselves stay parser-free so a
// freestanding amalgamated simulator (gen::emit_simulator) does not drag the
// .rcpn reader into the single-file artifact. desc_machines.cpp is excluded
// from the embedded-source set for the same reason (cmake/EmbedSources.cmake).
//
// The loaded path and the describe-callback path construct the same machine
// two different ways: each wrapper class has a description constructor that
// replays the .rcpn structure through ModelBuilderBase::from_description and
// then re-binds the machine-context ids by *name* against the lowered net
// (bind_*_context), where the builder path runs the machine's own
// ModelBuilder calls. Both run as the family's golden session
// (golden_session_* over either simulator) — so round-trip equality (build
// -> describe -> load -> session -> identical trace + stats) compares the
// two constructions, not one construction with itself.
#pragma once

#include <string>

#include "desc/description.hpp"
#include "machines/golden_trace.hpp"

namespace rcpn::machines {

/// The DelegateRegistry for `d.machine_type` — every machine family shipped
/// with the library registers here. Throws model::ModelError when the
/// description names a machine type no shipped registry provides.
const desc::DelegateRegistry& delegates_for(const desc::Description& d);

/// Serialize machine `key`'s model into a Description, recording
/// `options`' deadlock_limit. `key` is a golden machine key (fig2, fig5,
/// tomasulo, strongarm_crc, xscale_adpcm, stallcause) or "fuzz-N" for the
/// seeded random model N. An ablation is an edit of the result: `two_list=1`
/// on every stage (DescStage::forced_two_list), or no `reads_state`
/// (DescTransition::state_refs).
desc::Description describe_machine(const std::string& key,
                                   core::EngineOptions options = {});

/// Construct the machine family `d.model` names from the description as its
/// golden session under `options` (workload loaded, nothing run; the caller
/// folds the description's deadlock_limit in first via desc::engine_options
/// if desired). `max_cycles` caps fuzz drains (0 = default). Throws
/// model::ModelError for a model name no shipped machine family claims.
std::unique_ptr<GoldenSession> make_description_session(const desc::Description& d,
                                                        core::EngineOptions options,
                                                        std::uint64_t max_cycles = 0);

/// make_description_session run to completion.
GoldenRunResult run_description(const desc::Description& d, core::EngineOptions options,
                                std::uint64_t max_cycles = 0);

/// Golden machine key of a description's model name ("Fig2" -> "fig2"), or
/// "" when the model is not a golden machine (e.g. fuzz-N).
std::string description_machine_key(const desc::Description& d);

}  // namespace rcpn::machines
