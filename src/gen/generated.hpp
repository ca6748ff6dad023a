// Registry of generated simulator engines (Backend::generated).
//
// A translation unit produced by gen::emit_simulator() defines a
// StaticEngine specialization for one model and registers a factory for it
// here from a static initializer. model::Simulator<M> resolves
// EngineOptions::backend == Backend::generated through this registry by the
// model's net name, so a model runs on its generated simulator simply by
// linking the emitted source into the binary — no model code changes. The
// emitted tables are a function of the model alone, so there is one
// artifact per model: a model edit (an ablation pinning every stage
// two-list, say) is a different model, which the artifact's build()
// verification refuses by name.
//
// The registry is deliberately tiny: name -> plain function pointer. It is
// the only runtime coupling between a generated artifact and the library;
// everything else in the emitted file is constexpr data and direct calls.
#pragma once

#include <memory>
#include <string>

#include "core/engine.hpp"

namespace rcpn::gen {

using GeneratedFactory = std::unique_ptr<core::Engine> (*)(core::Net&,
                                                           core::EngineOptions);

/// Register the generated engine for model `model` (the net name). Called
/// from the emitted TU's static initializer; re-registration replaces (the
/// same generated source linked twice is harmless).
void register_generated_engine(const std::string& model, GeneratedFactory factory);

/// The factory for `model`, or nullptr if no generated TU for it is linked
/// in.
GeneratedFactory find_generated_engine(const std::string& model);

}  // namespace rcpn::gen
