// StaticEngine<Traits>: the engine of a *generated* simulator.
//
// A translation unit emitted by gen::emit_simulator() defines one Traits
// struct per model — the lowered CompiledModel tables as `static constexpr`
// data plus two static dispatch functions whose switch bodies call the
// model's named guard/action delegates *directly*, specialized against the
// typed machine context (no void* environment, no function-pointer
// indirection) — and instantiates this template over it. The instantiation
// happens in the emitted TU, so the compiler sees the whole hot loop, every
// table and every delegate body at once: the paper's "generated C++
// simulator" that whole-program/LTO optimization can specialize end to end.
//
// Semantics are inherited: StaticEngine derives core::Engine and replaces
// only the hot loop (exactly like gen::CompiledEngine, whose structure the
// loop below mirrors); token services, two-list promotion, retirement,
// flush, pools, stats and the watchdog are the shared Engine code, so all
// three backends stay cycle-for-cycle equivalent by construction.
//
// A generated artifact can go stale: the model description may change after
// the source was emitted. build() therefore *verifies* every table against
// the engine's own static extraction of the live net and refuses to run on
// any mismatch — CI regenerates on every push, so a stale artifact is a
// build failure, never a silently wrong simulation.
#pragma once

#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "gen/generated.hpp"

namespace rcpn::gen {

/// One transition row of a generated table (the POD subset of
/// CompiledTransition: delegates live in the Traits dispatch switches, stage
/// pointers are resolved at build() through Engine's place->stage cache).
struct StaticTx {
  std::int16_t id;
  /// Simple shape only: destination place of the single move arc (-1 else).
  std::int16_t move_place;
  std::uint32_t delay;
  std::uint32_t res_in_begin;
  std::uint32_t out_begin;
  std::uint16_t n_res_in;
  std::uint16_t n_out;
  std::int32_t max_fires;
  bool simple;
};

struct StaticOutArc {
  std::int16_t place;
  bool reservation;
};

struct StaticCandRange {
  std::uint32_t begin, count;
};

template <typename Traits>
class StaticEngine final : public core::Engine {
 public:
  using Machine = typename Traits::Machine;

  StaticEngine(core::Net& net, core::EngineOptions options)
      : core::Engine(net, options) {}

  /// Shared static extraction, then verify the generated tables against it
  /// (throws std::runtime_error on a stale artifact) and apply pool sizing.
  void build() override {
    core::Engine::build();
    verify_tables();
    for (unsigned s = 0; s < Traits::kNumStages; ++s)
      net_.stage(static_cast<core::StageId>(s)).reserve_store(Traits::kStageReserve[s]);
    reserve_token_pools(Traits::kInstrPoolHint, Traits::kResPoolHint);
    scratch_.reserve(Traits::kInstrPoolHint);
    order_stage_.clear();
    for (unsigned i = 0; i < Traits::kNumOrder; ++i)
      order_stage_.push_back(
          place_stage_[static_cast<unsigned>(Traits::kProcessOrder[i])]);
    two_list_ptrs_.clear();
    for (unsigned i = 0; i < Traits::kNumTwoList; ++i)
      two_list_ptrs_.push_back(
          &net_.stage(static_cast<core::StageId>(Traits::kTwoListStages[i])));
    m_ = &machine<Machine>();
  }

  /// The Fig 8 main loop over the constexpr tables.
  bool step() override {
    if (!built()) build();
    if (stopped()) return false;

    for (core::PipelineStage* st : two_list_ptrs_) st->promote_incoming();

    for (unsigned i = 0; i < Traits::kNumOrder; ++i) {
      core::PipelineStage& st = *order_stage_[i];
      if (!st.store().empty()) process_place_static(Traits::kProcessOrder[i], st);
    }

    for (unsigned i = 0; i < Traits::kNumIndependent; ++i) {
      const StaticTx& ct = Traits::kIndependent[i];
      for (std::int32_t f = 0; f < ct.max_fires; ++f) {
        if (!independent_enabled_static(ct)) break;
        fire_independent_static(ct);
      }
    }

    return finish_cycle();
  }

 private:
  bool run_guard(std::int16_t id, core::FireCtx& ctx) {
    // kHasGuard gates the dispatch so guardless transitions cost one constexpr
    // table load, mirroring the null check of the other backends.
    if (!Traits::kHasGuard[static_cast<unsigned>(id)]) return true;
    return Traits::guard(id, *m_, ctx);
  }
  void run_action(std::int16_t id, core::FireCtx& ctx) {
    if (Traits::kHasAction[static_cast<unsigned>(id)]) Traits::action(id, *m_, ctx);
  }

  bool try_fire_static(const StaticTx& ct, core::InstructionToken* tok,
                       core::PipelineStage& from) {
    count_attempt(ct.id);
    if (ct.simple) {
      // Latch-to-latch: shape and destination were resolved at emission.
      core::PipelineStage& to = *place_stage_[static_cast<unsigned>(ct.move_place)];
      if (&to != &from && !to.has_room(1, 0)) {
        reject_cause_ = core::StallCause::capacity_backpressure;
        return false;
      }
      core::FireCtx ctx{this, tok, ct.id};
      if (!run_guard(ct.id, ctx)) {
        reject_cause_ = core::StallCause::guard_rejected;
        return false;
      }
      const bool removed = from.remove(tok);
      assert(removed && "trigger token not visible in its place");
      (void)removed;
      tok->place = core::kNoPlace;
      tok->state = core::kNoPlace;
      run_action(ct.id, ctx);
      enter_place_in(tok, ct.move_place, to, ct.delay);
      count_fire(ct.id);
      return true;
    }

    // General shape: mirror of Engine::try_fire over the constexpr arrays.
    core::Token* reservations[4];
    unsigned nres = 0;
    for (unsigned i = 0; i < ct.n_res_in; ++i) {
      core::Token* r = find_ready_reservation(Traits::kResIn[ct.res_in_begin + i]);
      if (r == nullptr) {
        reject_cause_ = core::StallCause::no_ready_token;
        return false;
      }
      assert(nres < 4);
      reservations[nres++] = r;
    }

    StageDelta deltas[8];
    unsigned nd = 0;
    auto delta_for = [&](core::StageId s) -> StageDelta& {
      for (unsigned i = 0; i < nd; ++i)
        if (deltas[i].stage == s) return deltas[i];
      assert(nd < 8);
      deltas[nd].stage = s;
      deltas[nd].removals = 0;
      deltas[nd].additions = 0;
      return deltas[nd++];
    };
    delta_for(Traits::kPlaceStage[static_cast<unsigned>(tok->place)]).removals += 1;
    for (unsigned i = 0; i < nres; ++i)
      delta_for(Traits::kPlaceStage[static_cast<unsigned>(reservations[i]->place)])
          .removals += 1;
    for (unsigned i = 0; i < ct.n_out; ++i)
      delta_for(Traits::kPlaceStage[static_cast<unsigned>(
                    Traits::kOutArcs[ct.out_begin + i].place)])
          .additions += 1;
    for (unsigned i = 0; i < nd; ++i) {
      const core::PipelineStage& st = net_.stage(deltas[i].stage);
      if (!st.has_room(static_cast<std::uint32_t>(deltas[i].additions),
                       static_cast<std::uint32_t>(deltas[i].removals))) {
        reject_cause_ = core::StallCause::capacity_backpressure;
        return false;
      }
    }

    core::FireCtx ctx{this, tok, ct.id};
    if (!run_guard(ct.id, ctx)) {
      reject_cause_ = core::StallCause::guard_rejected;
      return false;
    }

    // ---- fire ----
    const bool removed = from.remove(tok);
    assert(removed && "trigger token not visible in its place");
    (void)removed;
    tok->place = core::kNoPlace;
    tok->state = core::kNoPlace;
    for (unsigned i = 0; i < nres; ++i) {
      core::PipelineStage& rs =
          *place_stage_[static_cast<unsigned>(reservations[i]->place)];
      rs.remove(reservations[i]);
      recycle(reservations[i]);
    }

    run_action(ct.id, ctx);

    for (unsigned i = 0; i < ct.n_out; ++i) {
      const StaticOutArc a = Traits::kOutArcs[ct.out_begin + i];
      core::PipelineStage& st = *place_stage_[static_cast<unsigned>(a.place)];
      if (!a.reservation) {
        enter_place_in(tok, a.place, st, ct.delay);
      } else {
        core::Token* r = acquire_reservation();
        ++stats_.reservations;
        enter_place_in(r, a.place, st, ct.delay);
      }
    }

    count_fire(ct.id);
    return true;
  }

  void process_place_static(core::PlaceId p, core::PipelineStage& st) {
    if (!snapshot_ready(p, st)) return;

    for (core::InstructionToken* tok : scratch_) {
      // Re-check: an earlier firing in this cycle may have consumed, flushed
      // or even recycled-and-reinjected this token.
      if (tok->place != p || tok->squashed || tok->ready > clock_) continue;
      // Same last-candidate-wins attribution as Engine::process_place.
      reject_cause_ = core::StallCause::no_ready_token;
      const StaticCandRange r =
          Traits::kCell[static_cast<std::size_t>(p) * Traits::kNumTypes +
                        static_cast<unsigned>(tok->type)];
      bool fired = false;
      for (std::uint32_t i = r.begin; i < r.begin + r.count; ++i) {
        if (try_fire_static(Traits::kBody[i], tok, st)) {
          fired = true;
          break;
        }
      }
      if (!fired) count_stall(p, tok);
    }
  }

  bool independent_enabled_static(const StaticTx& ct) {
    count_attempt(ct.id);
    for (unsigned i = 0; i < ct.n_res_in; ++i)
      if (find_ready_reservation(Traits::kResIn[ct.res_in_begin + i]) == nullptr)
        return false;
    for (unsigned i = 0; i < ct.n_out; ++i)
      if (!place_has_room(Traits::kOutArcs[ct.out_begin + i].place, 1)) return false;
    core::FireCtx ctx{this, nullptr, ct.id};
    return run_guard(ct.id, ctx);
  }

  void fire_independent_static(const StaticTx& ct) {
    for (unsigned i = 0; i < ct.n_res_in; ++i) {
      const core::PlaceId p = Traits::kResIn[ct.res_in_begin + i];
      core::Token* r = find_ready_reservation(p);
      core::PipelineStage& rs = *place_stage_[static_cast<unsigned>(p)];
      rs.remove(r);
      recycle(r);
    }
    core::FireCtx ctx{this, nullptr, ct.id};
    run_action(ct.id, ctx);
    for (unsigned i = 0; i < ct.n_out; ++i) {
      const StaticOutArc a = Traits::kOutArcs[ct.out_begin + i];
      if (a.reservation) {
        core::Token* r = acquire_reservation();
        ++stats_.reservations;
        enter_place_in(r, a.place, *place_stage_[static_cast<unsigned>(a.place)],
                       ct.delay);
      }
      // Move targets declare capacity intent only; the action emits
      // instruction tokens itself via emit_instruction().
    }
    count_fire(ct.id);
  }

  // -- staleness verification -------------------------------------------------

  [[noreturn]] void stale(const std::string& what) const {
    throw std::runtime_error(
        std::string("generated simulator for model '") + Traits::kModelName +
        "' does not match the live model (" + what +
        ") — regenerate with gen::emit_simulator (or check EngineOptions: the "
        "tables were emitted under the options the model was generated with)");
  }

  void verify_tables() {
    // The schedule-affecting options first: a binary built for one ablation
    // variant must refuse to run under another *before* the table diffs
    // produce a confusing structural message (satisfying the contract that a
    // wrong-ablation artifact throws instead of silently diverging).
    const std::uint32_t stamped = Traits::kOptionsKey;
    const std::uint32_t live = generated_options_key(options_);
    if (stamped != live)
      stale("EngineOptions: tables were emitted for [" +
            generated_options_desc(stamped) + "] but the engine runs with [" +
            generated_options_desc(live) + "]");

    if (Traits::kNumStages != net_.num_stages()) stale("stage count");
    if (Traits::kNumPlaces != net_.num_places()) stale("place count");
    if (Traits::kNumTypes != net_.num_types()) stale("type count");
    if (Traits::kNumTransitions != net_.num_transitions()) stale("transition count");

    for (unsigned p = 0; p < Traits::kNumPlaces; ++p) {
      const core::Place& pl = net_.place(static_cast<core::PlaceId>(p));
      if (Traits::kPlaceStage[p] != pl.stage)
        stale("owning stage of place '" + pl.name + "'");
      if (Traits::kPlaceDelay[p] != pl.delay)
        stale("residence delay of place '" + pl.name + "'");
    }

    if (Traits::kNumOrder != process_order().size()) stale("process-order length");
    for (unsigned i = 0; i < Traits::kNumOrder; ++i)
      if (Traits::kProcessOrder[i] != process_order()[i]) stale("process order");

    unsigned n_two_list = 0;
    for (unsigned s = 0; s < Traits::kNumStages; ++s)
      if (net_.stage(static_cast<core::StageId>(s)).two_list()) ++n_two_list;
    if (Traits::kNumTwoList != n_two_list) stale("two-list stage set size");
    for (unsigned i = 0; i < Traits::kNumTwoList; ++i)
      if (!net_.stage(static_cast<core::StageId>(Traits::kTwoListStages[i])).two_list())
        stale("two-list stage set");

    for (unsigned t = 0; t < Traits::kNumTransitions; ++t) {
      const core::Transition& tr = net_.transition(static_cast<core::TransitionId>(t));
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
              Traits::kActionSym[t] + "', model now binds '" + tr.action_symbol() +
              "')");
    }

    // Fig 6 cells: the candidate id sequence of every (place, type) pair.
    for (unsigned p = 0; p < Traits::kNumPlaces; ++p) {
      for (unsigned ty = 0; ty < Traits::kNumTypes; ++ty) {
        const auto& cands = candidates(static_cast<core::PlaceId>(p),
                                       static_cast<core::TypeId>(ty));
        const StaticCandRange r =
            Traits::kCell[static_cast<std::size_t>(p) * Traits::kNumTypes + ty];
        if (r.count != cands.size()) stale("candidate count of a (place, type) cell");
        for (unsigned i = 0; i < r.count; ++i)
          if (Traits::kBody[r.begin + i].id != cands[i]->id())
            stale("candidate order of a (place, type) cell");
      }
    }
    for (unsigned i = 0; i < Traits::kNumBody; ++i)
      verify_tx(Traits::kBody[i], /*independent=*/false);

    if (Traits::kNumIndependent != net_.independent_transitions().size())
      stale("independent-transition count");
    for (unsigned i = 0; i < Traits::kNumIndependent; ++i) {
      if (Traits::kIndependent[i].id != net_.independent_transitions()[i])
        stale("independent-transition order");
      verify_tx(Traits::kIndependent[i], /*independent=*/true);
    }
  }

  void verify_tx(const StaticTx& ct, bool independent) {
    const core::Transition& tr = net_.transition(ct.id);
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

  Machine* m_ = nullptr;
  /// Pre-resolved stage of each kProcessOrder entry / two-list stage.
  std::vector<core::PipelineStage*> order_stage_;
  std::vector<core::PipelineStage*> two_list_ptrs_;
};

}  // namespace rcpn::gen
