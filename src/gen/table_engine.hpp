// TableEngine<Tables>: the one Fig 8 hot loop of the compiled and generated
// backends.
//
// Both backends run the schedule gen::CompiledModel::lower() flattens out of
// the engine's static extraction: Fig 6 candidate runs, one row per
// transition, flat arc arrays. They differ only in where those tables live
// and how a delegate is called, which is all a Tables type supplies:
//  * RuntimeTables (gen/compiled_engine.hpp) — the CompiledModel lowered at
//    build(), delegates as pre-bound function pointers (Backend::compiled);
//  * EmittedTables<Traits> (gen/static_engine.hpp) — the constexpr rows of a
//    source file gen::emit_simulator() printed, delegates as a switch of
//    direct calls (Backend::generated and the freestanding artifacts).
// Every firing rule below therefore has one definition for both. Token
// services, two-list promotion, retirement, flush, pools, stats and the
// watchdog are inherited core::Engine code, and the interpreted core::Engine
// stays the independent reference both are checked against cycle for cycle.
//
// Latches (capacity-1 stages, every shipped ARM stage) take the lean path: a
// one-token list is tested and fired in place, without the scratch_ snapshot
// that multi-token pools need, and the Process(place) -> simple firing ->
// token entry chain is forced inline into step(). Stage pointers and place
// delays are resolved once at build(), never per firing.
//
// A Tables type provides, as static or member functions:
//   using Row;                     // StaticTx, or a type derived from it
//   void bind(core::Engine&);      // once per build(), after the extraction
//   const Row& body(std::uint32_t);          std::uint32_t num_body();
//   const Row& independent(std::uint32_t);   std::uint32_t num_independent();
//   const CandRange* cells(core::PlaceId);  // the place's Fig 6 row, by type
//   core::PlaceId res_in(std::uint32_t);     StaticOutArc out_arc(std::uint32_t);
//   std::uint32_t stage_reserve(unsigned), instr_pool_hint(), res_pool_hint();
//   bool guard(const Row&, core::FireCtx&);  void action(const Row&, core::FireCtx&);
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "core/engine.hpp"

namespace rcpn::gen {

/// One transition row of the lowered schedule: everything the hot loop reads,
/// as ids. Emitted simulators store these as constexpr arrays;
/// gen::CompiledTransition extends a row with its bound delegates.
struct StaticTx {
  core::TransitionId id = -1;
  /// Simple shape only: destination place of the single move arc (-1 else).
  core::PlaceId move_place = core::kNoPlace;
  std::uint32_t delay = 0;
  /// Flat ranges into the reservation-input and output-arc arrays.
  std::uint32_t res_in_begin = 0;
  std::uint32_t out_begin = 0;
  std::uint16_t n_res_in = 0;
  std::uint16_t n_out = 0;
  /// Independent transitions only: firings per cycle.
  std::int32_t max_fires = 1;
  /// One trigger arc in, one move arc out: the latch-to-latch fast path.
  bool simple = false;
};

struct StaticOutArc {
  core::PlaceId place = core::kNoPlace;
  /// true: emit a fresh reservation token; false: move the instruction token.
  bool reservation = false;
};

/// Half-open run of body rows: one Fig 6 (place, type) cell.
struct CandRange {
  std::uint32_t begin = 0;
  std::uint32_t count = 0;
};

template <typename Tables>
class TableEngine : public core::Engine {
 public:
  using Row = typename Tables::Row;

  TableEngine(core::Net& net, core::EngineOptions options) : core::Engine(net, options) {}

  /// The shared static extraction, the backend's tables, then the pointers
  /// the loop dereferences resolved and the token pools pre-sized, so the
  /// steady state neither translates an id nor grows a vector.
  void build() override {
    core::Engine::build();
    tables_.bind(*this);
    for (unsigned s = 0; s < net_.num_stages(); ++s)
      net_.stage(static_cast<core::StageId>(s)).reserve_store(tables_.stage_reserve(s));
    reserve_token_pools(tables_.instr_pool_hint(), tables_.res_pool_hint());
    scratch_.reserve(tables_.instr_pool_hint());

    slots_.clear();
    for (core::PlaceId p : order_) {
      core::PipelineStage* st = place_stage_[static_cast<unsigned>(p)];
      slots_.push_back(Slot{st, tables_.cells(p), p});
    }
    two_list_.clear();
    for (core::StageId s : two_list_stages_) two_list_.push_back(&net_.stage(s));
    std::uint32_t n_arcs = 0;
    dest_.assign(tables_.num_body(), Dest{});
    for (std::uint32_t i = 0; i < tables_.num_body(); ++i) {
      const Row& row = tables_.body(i);
      n_arcs = std::max<std::uint32_t>(n_arcs, row.out_begin + row.n_out);
      if (row.simple) {
        const auto p = static_cast<unsigned>(row.move_place);
        dest_[i] = Dest{place_stage_[p], place_delay_[p]};
      }
    }
    for (std::uint32_t i = 0; i < tables_.num_independent(); ++i) {
      const Row& row = tables_.independent(i);
      n_arcs = std::max<std::uint32_t>(n_arcs, row.out_begin + row.n_out);
    }
    arc_stage_.resize(n_arcs);
    for (std::uint32_t k = 0; k < n_arcs; ++k)
      arc_stage_[k] = place_stage_[static_cast<unsigned>(tables_.out_arc(k).place)];
  }

  /// Fig 8 over the tables: promote, Process() every place in order, run the
  /// independent sub-net, advance the clock.
  bool step() override {
    if (!built()) build();
    if (stopped()) return false;

    for (core::PipelineStage* st : two_list_) st->promote_incoming();

    for (const Slot& s : slots_) {
      const std::vector<core::Token*>& list = s.stage->tokens();
      if (list.empty()) continue;  // most places are empty most cycles
      if (list.size() == 1) {
        // A latch: test its token in place. Nothing has fired from this list
        // yet this cycle, so the snapshot's re-checks could not fail.
        core::Token* t = list.front();
        if (t->place == s.place && t->kind == core::TokenKind::instruction &&
            t->ready <= clock_)
          fire_token(s, static_cast<core::InstructionToken*>(t));
      } else {
        process_pool(s);
      }
    }

    for (std::uint32_t i = 0; i < tables_.num_independent(); ++i) {
      const Row& row = tables_.independent(i);
      for (std::int32_t f = 0; f < row.max_fires && independent_enabled(row); ++f)
        fire_independent(row);
    }

    return finish_cycle();
  }

 protected:
  Tables tables_;

 private:
  /// One process-order entry with its stage and Fig 6 row resolved.
  struct Slot {
    core::PipelineStage* stage;
    const CandRange* cells;
    core::PlaceId place;
  };
  /// A simple body row's move target.
  struct Dest {
    core::PipelineStage* stage = nullptr;
    std::uint32_t place_delay = 0;
  };

  /// Process() over a multi-token list (reservation stations, fuzz pools):
  /// firing mutates the list, so iterate the ready snapshot.
  [[gnu::noinline]] void process_pool(const Slot& s) {
    if (!snapshot_ready(s.place, *s.stage)) return;
    for (core::InstructionToken* tok : scratch_) {
      // Re-check: an earlier firing in this cycle may have consumed, flushed
      // or even recycled-and-reinjected this token.
      if (tok->place != s.place || tok->squashed || tok->ready > clock_) continue;
      fire_token(s, tok);
    }
  }

  /// Offer one ready token to its Fig 6 candidates in priority order. A token
  /// without candidates stalls for want of a ready token; every refusal
  /// overwrites the cause, so the last candidate's reason wins, in the scan
  /// order the interpreted engine shares.
  [[gnu::always_inline]] void fire_token(const Slot& s, core::InstructionToken* tok) {
    reject_cause_ = core::StallCause::no_ready_token;
    const CandRange r = s.cells[tok->type];
    for (std::uint32_t i = r.begin; i < r.begin + r.count; ++i)
      if (try_fire(i, tok, *s.stage)) return;
    count_stall(s.place, tok);
  }

  /// Body row `i` with trigger `tok`, visible in stage `from`. The simple
  /// latch-to-latch move is here; every other shape is fire_general().
  [[gnu::always_inline]] bool try_fire(std::uint32_t i, core::InstructionToken* tok,
                                       core::PipelineStage& from) {
    const Row& row = tables_.body(i);
    count_attempt(row.id);
    if (!row.simple) return fire_general(row, tok, from);
    const Dest d = dest_[i];
    if (d.stage != &from && !d.stage->has_room(1)) {
      reject_cause_ = core::StallCause::capacity_backpressure;
      return false;
    }
    core::FireCtx ctx{this, tok, row.id};
    if (!tables_.guard(row, ctx)) {
      reject_cause_ = core::StallCause::guard_rejected;
      return false;
    }
    detach_trigger(tok, from);
    tables_.action(row, ctx);
    enter_place_in(tok, row.move_place, *d.stage, d.place_delay, row.delay);
    count_fire(row.id);
    return true;
  }

  /// Any other shape, checked in core::Engine::try_fire's order: reservation
  /// inputs, output capacity netted per touched stage, guard; then fire.
  [[gnu::noinline]] bool fire_general(const Row& row, core::InstructionToken* tok,
                                      core::PipelineStage& from) {
    assert(row.n_res_in <= core::kMaxReservationInputs);
    core::Token* reservations[core::kMaxReservationInputs] = {};
    for (unsigned i = 0; i < row.n_res_in; ++i) {
      reservations[i] = find_ready_reservation(tables_.res_in(row.res_in_begin + i));
      if (reservations[i] == nullptr) {
        reject_cause_ = core::StallCause::no_ready_token;
        return false;
      }
    }

    // Output capacity, netting out same-stage removals (paper: "the pipeline
    // stages of the output places have enough capacity").
    struct Delta {
      core::PipelineStage* stage = nullptr;
      std::uint32_t removals = 0, additions = 0;
    };
    Delta deltas[core::kMaxArcStages];
    unsigned nd = 0;
    const auto delta_for = [&](core::PipelineStage* st) -> Delta& {
      for (unsigned k = 0; k < nd; ++k)
        if (deltas[k].stage == st) return deltas[k];
      assert(nd < core::kMaxArcStages);
      deltas[nd] = Delta{st, 0, 0};
      return deltas[nd++];
    };
    delta_for(&from).removals += 1;
    for (unsigned i = 0; i < row.n_res_in; ++i)
      delta_for(place_stage_[static_cast<unsigned>(reservations[i]->place)]).removals += 1;
    for (unsigned k = 0; k < row.n_out; ++k)
      delta_for(arc_stage_[row.out_begin + k]).additions += 1;
    for (unsigned k = 0; k < nd; ++k) {
      if (!deltas[k].stage->has_room(deltas[k].additions, deltas[k].removals)) {
        reject_cause_ = core::StallCause::capacity_backpressure;
        return false;
      }
    }

    core::FireCtx ctx{this, tok, row.id};
    if (!tables_.guard(row, ctx)) {
      reject_cause_ = core::StallCause::guard_rejected;
      return false;
    }

    detach_trigger(tok, from);
    for (unsigned i = 0; i < row.n_res_in; ++i) {
      place_stage_[static_cast<unsigned>(reservations[i]->place)]->remove(reservations[i]);
      recycle(reservations[i]);
    }
    tables_.action(row, ctx);
    enter_outputs(row, tok);
    count_fire(row.id);
    return true;
  }

  /// The independent sub-net (Fig 8 tail): reservation inputs ready, room in
  /// every output arc's stage, guard.
  bool independent_enabled(const Row& row) {
    count_attempt(row.id);
    for (unsigned i = 0; i < row.n_res_in; ++i)
      if (find_ready_reservation(tables_.res_in(row.res_in_begin + i)) == nullptr)
        return false;
    for (unsigned k = 0; k < row.n_out; ++k)
      if (!arc_stage_[row.out_begin + k]->has_room(1)) return false;
    core::FireCtx ctx{this, nullptr, row.id};
    return tables_.guard(row, ctx);
  }

  void fire_independent(const Row& row) {
    for (unsigned i = 0; i < row.n_res_in; ++i) {
      const core::PlaceId p = tables_.res_in(row.res_in_begin + i);
      core::Token* r = find_ready_reservation(p);
      place_stage_[static_cast<unsigned>(p)]->remove(r);
      recycle(r);
    }
    core::FireCtx ctx{this, nullptr, row.id};
    tables_.action(row, ctx);
    enter_outputs(row, nullptr);
    count_fire(row.id);
  }

  /// Take the trigger token out of its stage; it is in no place until the
  /// firing's action has run and the token enters its destination.
  [[gnu::always_inline]] static void detach_trigger(core::InstructionToken* tok,
                                                    core::PipelineStage& from) {
    const bool removed = from.remove(tok);
    assert(removed && "trigger token not visible in its place");
    (void)removed;
    tok->place = core::kNoPlace;
    tok->state = core::kNoPlace;
  }

  /// The output arcs of `row` in declaration order: a move arc enters `tok`,
  /// a reservation arc a fresh reservation token. The independent sub-net
  /// passes no token: its move arcs declare capacity intent only, and its
  /// action emits instruction tokens itself (emit_instruction()).
  void enter_outputs(const Row& row, core::InstructionToken* tok) {
    for (unsigned k = 0; k < row.n_out; ++k) {
      const StaticOutArc a = tables_.out_arc(row.out_begin + k);
      core::PipelineStage& st = *arc_stage_[row.out_begin + k];
      const std::uint32_t place_delay = place_delay_[static_cast<unsigned>(a.place)];
      if (!a.reservation) {
        if (tok != nullptr) enter_place_in(tok, a.place, st, place_delay, row.delay);
      } else {
        core::Token* r = acquire_reservation();
        ++stats_.reservations;
        enter_place_in(r, a.place, st, place_delay, row.delay);
      }
    }
  }

  std::vector<Slot> slots_;
  std::vector<core::PipelineStage*> two_list_;
  /// Per body row (simple rows only) / per output arc, resolved at build().
  std::vector<Dest> dest_;
  std::vector<core::PipelineStage*> arc_stage_;
};

}  // namespace rcpn::gen
