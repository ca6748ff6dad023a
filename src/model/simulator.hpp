// Simulator<Machine>: the facade that packages a generated simulator.
//
// It owns, with the right lifetimes and in the right order:
//   1. the Machine context (register files, memories, pc, model counters) —
//      constructed first so the model description can reference it;
//   2. the ModelBuilder<Machine> holding the declarative description and the
//      bound guard/action closures;
//   3. the lowered core::Net and the engine "generated" from it — the
//      interpreted core::Engine, the gen::CompiledEngine running the
//      flattened tables of gen::CompiledModel (Backend::compiled), or the
//      model's registered gen::StaticEngine specialization from an emitted
//      simulator TU (Backend::generated). All engines store tokens in
//      the same per-stage token lists (core::TokenStore), so guards, actions,
//      hooks and stats observe identical token semantics on every backend;
//      tests/test_fuzz_lockstep.cpp pins that equivalence on randomized
//      generated models, tests/test_golden_traces.cpp on checked-in traces.
//
// The machine context reaches guards and actions typed — bool(Machine&,
// FireCtx&) — replacing the old pattern of parking `this` behind the
// engine's void* and casting it back in every callback. One coherent
// run-control surface (load / run / step / reset / drain / report) fronts
// the engine; net() and engine() stay available for introspection, CPN
// conversion and the benches.
//
// Typical machine definition:
//
//   struct Counter { std::uint64_t left = 0; };
//   model::Simulator<Counter> sim("demo", [&](auto& b, Counter& m) {
//     auto st = b.add_stage("S", 1);
//     auto p  = b.add_place("S", st);
//     auto ty = b.add_type("T");
//     b.add_transition("t", ty).from(p).to(b.end());
//     b.add_independent_transition("gen")
//         .guard([](Counter& m, core::FireCtx&) { return m.left > 0; })
//         .action([p](Counter& m, core::FireCtx& ctx) {
//           auto* t = ctx.engine->acquire_pooled_instruction();
//           t->type = 0;
//           --m.left;
//           ctx.engine->emit_instruction(t, p);
//         })
//         .to(p);
//   }, Counter{10});
#pragma once

#include <memory>
#include <string>
#include <utility>

#include "core/engine.hpp"
#include "gen/compiled_engine.hpp"
#include "gen/generated.hpp"
#include "model/model_builder.hpp"

namespace rcpn::model {

template <typename Machine>
class Simulator {
 public:
  /// Construct the machine from `margs`, run `describe(builder, machine)` to
  /// record the model, then validate, lower and generate the engine.
  /// `options.backend` selects it: core::Engine (interpreted),
  /// gen::CompiledEngine (the flattened, devirtualized tables), or the
  /// model's registered gen::StaticEngine specialization (generated — the
  /// emitted simulator TU must be linked in, else ModelError). All three are
  /// cycle-for-cycle equivalent, so models and callers never branch on it.
  /// Throws ModelError if the description is invalid.
  template <typename Describe, typename... MArgs>
  Simulator(std::string name, core::EngineOptions options, Describe&& describe,
            MArgs&&... margs)
      : machine_(std::forward<MArgs>(margs)...), builder_(std::move(name)) {
    describe(builder_, machine_);
    init_engine(options);
  }

  template <typename Describe, typename... MArgs>
  explicit Simulator(std::string name, Describe&& describe, MArgs&&... margs)
      : Simulator(std::move(name), core::EngineOptions{}, std::forward<Describe>(describe),
                  std::forward<MArgs>(margs)...) {}

  /// Model-as-data construction: replay a serialized description
  /// (desc::read_file / desc::parse) into the builder, resolving every named
  /// delegate through `registry`, then lower and generate the engine exactly
  /// like the describe-callback constructor. Only the *structure* comes from
  /// the description — machine-context fields the describe callback would
  /// have set from handles (type ids, entry places, ...) must be bound after
  /// construction, by name, against net(). Instantiated only in translation
  /// units that include desc/description.hpp.
  template <typename... MArgs>
  Simulator(const desc::Description& description,
            const desc::DelegateRegistry& registry, core::EngineOptions options,
            MArgs&&... margs)
      : machine_(std::forward<MArgs>(margs)...), builder_("desc") {
    builder_.from_description(description, registry);
    init_engine(options);
  }

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // -- the three layers -------------------------------------------------------
  Machine& machine() { return machine_; }
  const Machine& machine() const { return machine_; }
  core::Net& net() { return builder_.net(); }
  const core::Net& net() const { return builder_.net(); }
  core::Engine& engine() { return *eng_; }
  const core::Engine& engine() const { return *eng_; }
  core::Backend backend() const { return eng_->options().backend; }

  // -- run control ------------------------------------------------------------
  /// Drain in-flight tokens from a previous run, then hand `args` to the
  /// machine's own load() (program image, instruction vector, ...). The
  /// engine resets *first*: leftover tokens must release their operand
  /// reservations before the machine tears down the state they point into.
  template <typename... Args>
  void load(Args&&... args) {
    eng_->reset();
    machine_.load(std::forward<Args>(args)...);
  }

  /// Simulate one clock cycle.
  bool step() { return eng_->step(); }
  /// Run until the machine stops the engine (or `max_cycles`).
  std::uint64_t run(std::uint64_t max_cycles = ~0ull) { return eng_->run(max_cycles); }
  /// Run until `done(machine)` holds with no tokens in flight (or the engine
  /// stops / `max_cycles` elapse). Returns cycles executed.
  template <typename DonePred>
  std::uint64_t drain(DonePred&& done, std::uint64_t max_cycles = ~0ull) {
    const core::Cycle start = eng_->clock();
    while (!eng_->stopped() && eng_->clock() - start < max_cycles) {
      eng_->step();
      if (done(machine_) && eng_->tokens_in_flight() == 0) break;
    }
    return eng_->clock() - start;
  }
  /// Clear all dynamic state (tokens, stats, clock); keeps the build products.
  void reset() { eng_->reset(); }
  void stop() { eng_->stop(); }
  bool stopped() const { return eng_->stopped(); }
  core::Cycle clock() const { return eng_->clock(); }

  // -- stats & hooks ----------------------------------------------------------
  core::Stats& stats() { return eng_->stats(); }
  const core::Stats& stats() const { return eng_->stats(); }
  core::Engine::Hooks& hooks() { return eng_->hooks(); }
  std::uint64_t fires(TransitionHandle t) const {
    if (!builder_.owns(t))
      throw ModelError("fires(): transition handle was not issued by this simulator's model");
    return eng_->stats().transition_fires[static_cast<unsigned>(t.id())];
  }
  /// Human-readable per-transition/per-place report.
  std::string report() const { return eng_->stats().report(net()); }

 private:
  /// Lower the recorded description and generate the engine `options.backend`
  /// selects: core::Engine (interpreted), gen::CompiledEngine (flattened,
  /// devirtualized tables), or the model's registered gen::StaticEngine
  /// specialization (generated — the emitted simulator TU must be linked in,
  /// else ModelError). All three are cycle-for-cycle equivalent, so models
  /// and callers never branch on it.
  void init_engine(core::EngineOptions options) {
    core::Net& net = builder_.build(&machine_);
    if (options.backend == core::Backend::compiled) {
      eng_ = std::make_unique<gen::CompiledEngine>(net, options);
    } else if (options.backend == core::Backend::generated) {
      // A simulator source emitted by gen::emit_simulator() and linked into
      // this binary registers its engine factory under the model name.
      gen::GeneratedFactory factory = gen::find_generated_engine(net.name());
      if (factory == nullptr)
        throw ModelError(
            "model '" + net.name() +
            "': Backend::generated requires the generated simulator translation "
            "unit (gen::emit_simulator output for this model) to be linked in "
            "and registered");
      eng_ = factory(net, options);
    } else {
      eng_ = std::make_unique<core::Engine>(net, options);
    }
    eng_->set_machine(&machine_);
    eng_->build();
  }

  Machine machine_;
  ModelBuilder<Machine> builder_;
  std::unique_ptr<core::Engine> eng_;
};

}  // namespace rcpn::model
