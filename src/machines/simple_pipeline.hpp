// The paper's Figure 2 example: a two-latch, four-unit pipeline, expressed
// as an RCPN with one instruction-independent sub-net (U1, the generator)
// and two instruction-type sub-nets: type A flows U2 -> U3 through latch L2,
// type B leaves from L1 through U4. Used by the quickstart example, the core
// integration tests and the CPN-conversion demo.
//
// Described with the declarative model API: the machine context is a plain
// counter struct, the net is declared through ModelBuilder, and
// model::Simulator owns all three layers. The U1 delegates are *named* free
// functions bound by symbol through fig2_delegates() (a
// desc::DelegateRegistry), so the model is fully emittable as a standalone
// generated simulator (gen::emit_simulator).
#pragma once

#include "machines/golden_trace.hpp"
#include "model/simulator.hpp"

namespace rcpn::machines {

/// Machine context of the Fig 2 model: the generator counters plus the ids
/// the named delegates read. The id fields are filled by the model
/// description (declaration order is deterministic, so they are the same on
/// every construction — which is what makes the delegates emittable).
struct Fig2Machine {
  std::uint64_t to_generate = 0;
  std::uint64_t generated = 0;
  core::TypeId ty_a = core::kNoType;
  core::TypeId ty_b = core::kNoType;
  core::PlaceId l1 = core::kNoPlace;
};

/// Named delegates of the Fig 2 model (referenced by symbol in generated
/// simulator sources).
bool fig2_u1_guard(Fig2Machine& m, core::FireCtx& ctx);
void fig2_u1_action(Fig2Machine& m, core::FireCtx& ctx);

/// The Fig 2 DelegateRegistry: symbol -> typed binding for the delegates
/// above, plus the emission metadata (machine type, header).
const desc::DelegateRegistry& fig2_delegates();

/// Fill the machine-context fields the delegates read (type ids, entry
/// place) by name from the lowered net — shared by the describe-callback and
/// description-loading construction paths.
void bind_fig2_context(const core::Net& net, Fig2Machine& m);

/// Golden session (key "fig2" in machines/golden_runner.hpp and in every
/// generated simulator emitted for this model): 64 tokens through the Fig 2
/// pipeline, advanceable in cycle chunks (see machines/golden_trace.hpp).
std::unique_ptr<GoldenSession> golden_session_fig2(core::EngineOptions options);

class SimplePipeline;

/// The same session over a simulator the caller built: the description
/// loader (machines/desc_machines.hpp) hands over its described machine.
std::unique_ptr<GoldenSession> golden_session_fig2(
    std::unique_ptr<SimplePipeline> sim);

class SimplePipeline {
 public:
  /// `to_generate` tokens are produced by U1, alternating type A / type B.
  /// `options` selects the backend and analysis knobs.
  explicit SimplePipeline(std::uint64_t to_generate, core::EngineOptions options = {});

  /// Model-as-data construction: the same machine, loaded from a serialized
  /// description (the fluent-handle accessors u2_fires()/l1()/... are not
  /// available on this path). Defined in machines/desc_machines.cpp.
  SimplePipeline(const desc::Description& d, const desc::DelegateRegistry& registry,
                 core::EngineOptions options, std::uint64_t to_generate);

  /// Run until every token drained (or `max_cycles`); returns cycles used.
  std::uint64_t run(std::uint64_t max_cycles = 1u << 20);

  core::Net& net() { return sim_.net(); }
  core::Engine& engine() { return sim_.engine(); }
  Fig2Machine& machine() { return sim_.machine(); }
  const Fig2Machine& machine() const { return sim_.machine(); }

  std::uint64_t generated() const { return sim_.machine().generated; }
  std::uint64_t u2_fires() const { return sim_.fires(u2_); }
  std::uint64_t u3_fires() const { return sim_.fires(u3_); }
  std::uint64_t u4_fires() const { return sim_.fires(u4_); }

  core::PlaceId l1() const { return l1_.id(); }
  core::PlaceId l2() const { return l2_.id(); }

 private:
  // Handles are assigned by the describe callback before sim_ finishes
  // constructing, so they are declared first.
  model::PlaceHandle l1_, l2_;
  model::TypeHandle type_a_, type_b_;
  model::TransitionHandle u2_, u3_, u4_;
  model::Simulator<Fig2Machine> sim_;
};

}  // namespace rcpn::machines
