// Registry of generated simulator engines (Backend::generated).
//
// A translation unit produced by gen::emit_simulator() defines a
// StaticEngine specialization for one model *under one set of
// schedule-affecting EngineOptions* and registers a factory for it here from
// a static initializer. model::Simulator<M> resolves EngineOptions::backend
// == Backend::generated through this registry by the model's net name plus
// the options key, so a model runs on its generated simulator simply by
// linking the emitted source into the binary — no model code changes — and
// ablation-variant artifacts (force_two_list_all etc.) coexist with the
// default schedule in one binary.
//
// The registry is deliberately tiny: (name, options key) -> plain function
// pointer. It is the only runtime coupling between a generated artifact and
// the library; everything else in the emitted file is constexpr data and
// direct calls.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.hpp"

namespace rcpn::gen {

using GeneratedFactory = std::unique_ptr<core::Engine> (*)(core::Net&,
                                                           core::EngineOptions);

/// The schedule-affecting option bits a generated artifact is emitted under
/// (two-list analysis and candidate-search strategy; backend and runtime
/// knobs like deadlock_limit do not change the tables). Emitted TUs stamp the
/// key as Traits::kOptionsKey; lookups derive the same key from live
/// EngineOptions. Both sides come from the core::options_bits table
/// (core/options_signature.hpp).
std::uint32_t generated_options_key(const core::EngineOptions& options);

/// Human-readable spelling of an options key (error messages, emitted
/// header comments), e.g. "two_list_state_refs" or
/// "two_list_state_refs,force_two_list_all".
std::string generated_options_desc(std::uint32_t options_key);

/// Register the generated engine for model `model` (the net name) under
/// `options_key`. Called from the emitted TU's static initializer;
/// re-registration replaces (the same generated source linked twice is
/// harmless).
void register_generated_engine(const std::string& model, std::uint32_t options_key,
                               GeneratedFactory factory);

/// The factory for `model` under `options` (or an explicit key), or nullptr
/// if no matching generated TU is linked in.
GeneratedFactory find_generated_engine(const std::string& model,
                                       std::uint32_t options_key);
GeneratedFactory find_generated_engine(const std::string& model,
                                       const core::EngineOptions& options);
/// Default-options lookup (the common single-artifact case).
GeneratedFactory find_generated_engine(const std::string& model);

/// Names of all models with a registered generated engine (diagnostics);
/// variant registrations of one model appear once.
std::vector<std::string> registered_generated_models();

}  // namespace rcpn::gen
