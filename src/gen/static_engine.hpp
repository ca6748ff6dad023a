// StaticEngine<Traits>: the engine of a *generated* simulator.
//
// A translation unit emitted by gen::emit_simulator() defines one Traits
// struct per model — the lowered CompiledModel tables as `static constexpr`
// data plus two static dispatch functions whose switch bodies call the
// model's named guard/action delegates *directly*, specialized against the
// typed machine context (no void* environment, no function-pointer
// indirection) — and instantiates this template over it. The hot loop is
// gen::TableEngine, the same one the compiled backend runs; instantiated in
// the emitted TU, the compiler sees the loop, every table and every delegate
// body at once: the paper's "generated C++ simulator" that
// whole-program/LTO optimization can specialize end to end.
//
// A generated artifact can go stale: the model description may change after
// the source was emitted. build() therefore *verifies* every table against
// the engine's own static extraction of the live net and refuses to run on
// any mismatch — CI regenerates on every push, so a stale artifact is a
// build failure, never a silently wrong simulation.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "core/engine.hpp"
#include "core/options_signature.hpp"
#include "gen/generated.hpp"
#include "gen/table_engine.hpp"

namespace rcpn::gen {

/// TableEngine's view of an emitted Traits struct: constexpr rows, delegates
/// dispatched by the Traits' switches on the typed machine context.
template <typename Traits>
struct EmittedTables {
  using Row = StaticTx;
  using Machine = typename Traits::Machine;
  Machine* m = nullptr;

  /// Verify the tables against the live model (throws std::runtime_error on
  /// a stale artifact), then bind the machine context.
  void bind(core::Engine& eng) {
    verify(eng);
    m = &eng.machine<Machine>();
  }
  static const Row& body(std::uint32_t i) { return Traits::kBody[i]; }
  static std::uint32_t num_body() { return Traits::kNumBody; }
  static const Row& independent(std::uint32_t i) { return Traits::kIndependent[i]; }
  static std::uint32_t num_independent() { return Traits::kNumIndependent; }
  static const CandRange* cells(core::PlaceId p) {
    return Traits::kCell + static_cast<std::size_t>(p) * Traits::kNumTypes;
  }
  static core::PlaceId res_in(std::uint32_t i) { return Traits::kResIn[i]; }
  static StaticOutArc out_arc(std::uint32_t i) { return Traits::kOutArcs[i]; }
  static std::uint32_t stage_reserve(unsigned s) { return Traits::kStageReserve[s]; }
  static std::uint32_t instr_pool_hint() { return Traits::kInstrPoolHint; }
  static std::uint32_t res_pool_hint() { return Traits::kResPoolHint; }
  // kHasGuard/kHasAction gate the dispatch so a transition without a delegate
  // costs one constexpr table load, like the runtime tables' null check.
  bool guard(const Row& r, core::FireCtx& ctx) const {
    return !Traits::kHasGuard[static_cast<unsigned>(r.id)] || Traits::guard(r.id, *m, ctx);
  }
  void action(const Row& r, core::FireCtx& ctx) const {
    if (Traits::kHasAction[static_cast<unsigned>(r.id)]) Traits::action(r.id, *m, ctx);
  }

 private:
  [[noreturn]] static void stale(const std::string& what) {
    throw std::runtime_error(
        std::string("generated simulator for model '") + Traits::kModelName +
        "' does not match the live model (" + what +
        ") — regenerate with gen::emit_simulator (or check EngineOptions: the "
        "tables were emitted under the options the model was generated with)");
  }

  static void verify(const core::Engine& eng) {
    const core::Net& net = eng.net();
    // The schedule-affecting options first: a binary built for one ablation
    // variant must refuse to run under another *before* the table diffs
    // produce a confusing structural message (satisfying the contract that a
    // wrong-ablation artifact throws instead of silently diverging).
    const std::uint32_t stamped = Traits::kOptionsKey;
    const std::uint32_t live = core::options_bits(eng.options());
    if (stamped != live)
      stale("EngineOptions: tables were emitted for [" + core::options_bits_desc(stamped) +
            "] but the engine runs with [" + core::options_bits_desc(live) + "]");

    if (Traits::kNumStages != net.num_stages()) stale("stage count");
    if (Traits::kNumPlaces != net.num_places()) stale("place count");
    if (Traits::kNumTypes != net.num_types()) stale("type count");
    if (Traits::kNumTransitions != net.num_transitions()) stale("transition count");

    for (unsigned p = 0; p < Traits::kNumPlaces; ++p) {
      const core::Place& pl = net.place(static_cast<core::PlaceId>(p));
      if (Traits::kPlaceStage[p] != pl.stage)
        stale("owning stage of place '" + pl.name + "'");
      if (Traits::kPlaceDelay[p] != pl.delay)
        stale("residence delay of place '" + pl.name + "'");
    }

    if (Traits::kNumOrder != eng.process_order().size()) stale("process-order length");
    for (unsigned i = 0; i < Traits::kNumOrder; ++i)
      if (Traits::kProcessOrder[i] != eng.process_order()[i]) stale("process order");

    unsigned n_two_list = 0;
    for (unsigned s = 0; s < Traits::kNumStages; ++s)
      if (net.stage(static_cast<core::StageId>(s)).two_list()) ++n_two_list;
    if (Traits::kNumTwoList != n_two_list) stale("two-list stage set size");
    for (unsigned i = 0; i < Traits::kNumTwoList; ++i)
      if (!net.stage(static_cast<core::StageId>(Traits::kTwoListStages[i])).two_list())
        stale("two-list stage set");

    for (unsigned t = 0; t < Traits::kNumTransitions; ++t) {
      const core::Transition& tr = net.transition(static_cast<core::TransitionId>(t));
      if (Traits::kHasGuard[t] != tr.has_guard())
        stale("guard presence on transition '" + tr.name() + "'");
      if (Traits::kHasAction[t] != tr.has_action())
        stale("action presence on transition '" + tr.name() + "'");
      // The *binding*, not just presence: a model edit that swaps one named
      // delegate for another leaves every structural table identical, but
      // this binary's dispatch switch still calls the old function.
      if (tr.guard_symbol() != Traits::kGuardSym[t])
        stale("guard binding of '" + tr.name() + "' (emitted for '" +
              Traits::kGuardSym[t] + "', model now binds '" + tr.guard_symbol() + "')");
      if (tr.action_symbol() != Traits::kActionSym[t])
        stale("action binding of '" + tr.name() + "' (emitted for '" +
              Traits::kActionSym[t] + "', model now binds '" + tr.action_symbol() + "')");
    }

    // Fig 6 cells: the candidate id sequence of every (place, type) pair.
    for (unsigned p = 0; p < Traits::kNumPlaces; ++p) {
      for (unsigned ty = 0; ty < Traits::kNumTypes; ++ty) {
        const auto& cands =
            eng.candidates(static_cast<core::PlaceId>(p), static_cast<core::TypeId>(ty));
        const CandRange r = cells(static_cast<core::PlaceId>(p))[ty];
        if (r.count != cands.size()) stale("candidate count of a (place, type) cell");
        for (unsigned i = 0; i < r.count; ++i)
          if (Traits::kBody[r.begin + i].id != cands[i]->id())
            stale("candidate order of a (place, type) cell");
      }
    }
    for (unsigned i = 0; i < Traits::kNumBody; ++i)
      verify_tx(net, Traits::kBody[i], /*independent=*/false);

    if (Traits::kNumIndependent != net.independent_transitions().size())
      stale("independent-transition count");
    for (unsigned i = 0; i < Traits::kNumIndependent; ++i) {
      if (Traits::kIndependent[i].id != net.independent_transitions()[i])
        stale("independent-transition order");
      verify_tx(net, Traits::kIndependent[i], /*independent=*/true);
    }
  }

  static void verify_tx(const core::Net& net, const StaticTx& ct, bool independent) {
    const core::Transition& tr = net.transition(ct.id);
    const std::string& name = tr.name();
    if (tr.independent() != independent) stale("sub-net kind of '" + name + "'");
    if (ct.delay != tr.delay()) stale("delay of '" + name + "'");
    if (ct.max_fires != tr.max_fires_per_cycle()) stale("max_fires of '" + name + "'");
    unsigned nres = 0;
    for (const core::InArc& a : tr.inputs()) {
      if (a.need != core::ArcNeed::reservation) continue;
      if (nres >= ct.n_res_in || Traits::kResIn[ct.res_in_begin + nres] != a.place)
        stale("reservation inputs of '" + name + "'");
      ++nres;
    }
    if (nres != ct.n_res_in) stale("reservation-input count of '" + name + "'");
    if (ct.n_out != tr.outputs().size()) stale("output-arc count of '" + name + "'");
    for (unsigned i = 0; i < ct.n_out; ++i) {
      const StaticOutArc a = Traits::kOutArcs[ct.out_begin + i];
      if (a.place != tr.outputs()[i].place ||
          a.reservation != (tr.outputs()[i].emit == core::ArcEmit::reservation))
        stale("output arcs of '" + name + "'");
    }
    const bool simple = !tr.independent() && tr.inputs().size() == 1 &&
                        tr.outputs().size() == 1 &&
                        tr.outputs()[0].emit == core::ArcEmit::move;
    if (ct.simple != simple) stale("fast-path shape of '" + name + "'");
    if (simple && ct.move_place != tr.outputs()[0].place)
      stale("move destination of '" + name + "'");
  }
};

template <typename Traits>
class StaticEngine final : public TableEngine<EmittedTables<Traits>> {
 public:
  StaticEngine(core::Net& net, core::EngineOptions options)
      : TableEngine<EmittedTables<Traits>>(net, options) {}
};

}  // namespace rcpn::gen
