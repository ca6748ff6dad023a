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
//    direct calls (Backend::generated and the freestanding programs).
// Every firing rule below (fire_token, try_fire, fire_general, the
// independent sub-net) has one definition, and run() holds the one per-cycle
// loop, with two iterations over a cycle:
//  * over runtime tables, it loops over the process-order slots resolved at
//    build();
//  * over constexpr tables (StaticSchedule), it walks the process order and
//    the independent sub-net as a compile-time fold. Each place's stage,
//    Fig 6 row, candidate rows, destination and delegates are then
//    constants, and the dispatch switches see constant ids: the paper's
//    per-place generated Process(), specialized when the simulator is
//    compiled. A *uniform* place (UniformPlace: every candidate is one
//    simple row with the same destination, delay and delegates, as every
//    StrongArm place) fires every type through one body and counts the
//    type's own transition id; any other place (XScale's RF, whose types go
//    to X1, M1 or D1) dispatches through its constexpr Fig 6 row.
// Token services, two-list promotion, retirement, flush, pools, stats and the
// cycle tail (clock, watchdog) are inherited core::Engine code; the per-cycle
// ones (token entry, retirement, recycling, the cycle tail) are defined in
// engine.hpp so they compile into run(). The lists they append to are
// core::PtrLists, whose growth is one cold out-of-line member, so all of
// them fold into both generated run()s, XScale's included
// (bench/check_hot_loop_calls.py checks the perfbench binary). The
// interpreted core::Engine stays the independent reference both are checked
// against cycle for cycle.
//
// Latches (capacity-1 stages, every shipped ARM stage) take the lean path: a
// one-token list is tested and fired in place, without the scratch_ snapshot
// that multi-token pools need, and the Process(place) -> simple firing ->
// token entry chain is forced inline into run(). Stage pointers and place
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
// and, for the static walk, constant kNumOrder, kNumTypes and
// kNumIndependent, constexpr body/independent/cells, and constexpr
// order(k), place_delay(p) and same_delegates(row, row).
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <type_traits>
#include <utility>
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

/// Tables whose schedule is a compile-time constant (EmittedTables): the
/// engine walks it as a fold instead of looping over it.
template <typename Tables>
concept StaticSchedule =
    requires { typename std::integral_constant<unsigned, Tables::kNumOrder>; };

/// A place of a static schedule whose every non-empty Fig 6 cell is exactly
/// one simple row, all with the destination place, delay and delegates of
/// the first (`rep`). One firing body then serves every type: it fires
/// through `rep` and counts `id[type]`, the type's own transition (-1: an
/// empty cell, whose tokens stall for want of a candidate).
template <typename Tables>
struct UniformPlace {
  bool uniform = false;
  std::uint32_t rep = 0;
  std::array<core::TransitionId, Tables::kNumTypes> id{};
};

template <typename Tables>
constexpr UniformPlace<Tables> uniform_place(core::PlaceId p) {
  UniformPlace<Tables> u;
  const CandRange* cells = Tables::cells(p);
  for (unsigned ty = 0; ty < Tables::kNumTypes; ++ty) {
    u.id[ty] = -1;
    if (cells[ty].count == 0) continue;
    const auto& row = Tables::body(cells[ty].begin);
    if (cells[ty].count != 1 || !row.simple) return {};
    if (!u.uniform) {
      u.uniform = true;
      u.rep = cells[ty].begin;
    }
    const auto& rep = Tables::body(u.rep);
    if (row.move_place != rep.move_place || row.delay != rep.delay ||
        !Tables::same_delegates(row, rep))
      return {};
    u.id[ty] = row.id;
  }
  return u;
}

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

  /// Fig 8 over the tables, one whole cycle per iteration: promote, Process()
  /// every place in order, run the independent sub-net, advance the clock.
  std::uint64_t run(std::uint64_t max_cycles = ~0ull) override {
    if (!built()) build();
    const core::Cycle start = clock_;
    while (!stopped_ && clock_ - start < max_cycles) {
      for (core::PipelineStage* st : two_list_) st->promote_incoming();

      if constexpr (StaticSchedule<Tables>) {
        walk(std::make_index_sequence<Tables::kNumOrder>{},
             std::make_index_sequence<Tables::kNumIndependent>{});
      } else {
        for (const Slot& s : slots_) process(SlotPlace{*this, s});
        for (std::uint32_t i = 0; i < tables_.num_independent(); ++i)
          run_independent_row(tables_.independent(i));
      }

      finish_cycle();
    }
    return clock_ - start;
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

  // A place as Process() walks it: its stage and id, and its Fig 6 row.
  // range(type) is the run of candidate indices of a type; each index names
  // the row that gives shape and delegates, the transition id to count, and
  // a simple row's move target.

  /// A slot of the runtime loop: each candidate is its own body row.
  struct SlotPlace {
    const TableEngine& eng;
    const Slot& slot;
    core::PipelineStage& stage() const { return *slot.stage; }
    core::PlaceId place() const { return slot.place; }
    CandRange range(core::TypeId type) const { return slot.cells[type]; }
    const Row& row(std::uint32_t i) const { return eng.tables_.body(i); }
    core::TransitionId id(std::uint32_t i) const { return eng.tables_.body(i).id; }
    Dest dest(std::uint32_t i) const { return eng.dest_[i]; }
  };

  /// Place P of a static schedule: its constexpr Fig 6 row, collapsed when
  /// the place is uniform (UniformPlace) into one candidate per type,
  /// indexed by the type itself, that fires through the representative row.
  template <core::PlaceId P>
  struct StaticPlace {
    static constexpr UniformPlace<Tables> kPlace = uniform_place<Tables>(P);
    const TableEngine& eng;
    core::PipelineStage& stage() const { return *eng.place_stage_[static_cast<unsigned>(P)]; }
    static core::PlaceId place() { return P; }
    static CandRange range(core::TypeId type) {
      if constexpr (kPlace.uniform)
        return CandRange{static_cast<std::uint32_t>(type),
                         kPlace.id[static_cast<unsigned>(type)] >= 0 ? 1u : 0u};
      else
        return Tables::cells(P)[type];
    }
    static const Row& row(std::uint32_t i) {
      if constexpr (kPlace.uniform) return Tables::body(kPlace.rep);
      else return Tables::body(i);
    }
    static core::TransitionId id(std::uint32_t i) {
      if constexpr (kPlace.uniform) return kPlace.id[i];
      else return Tables::body(i).id;
    }
    Dest dest(std::uint32_t i) const {
      if constexpr (kPlace.uniform) {
        constexpr core::PlaceId to = Tables::body(kPlace.rep).move_place;
        return Dest{eng.place_stage_[static_cast<unsigned>(to)], Tables::place_delay(to)};
      } else {
        return eng.dest_[i];
      }
    }
  };

  /// The static iteration: every place of the process order, then every
  /// independent row, each with its ids as compile-time constants.
  template <std::size_t... K, std::size_t... I>
  [[gnu::always_inline]] void walk(std::index_sequence<K...>, std::index_sequence<I...>) {
    (process(StaticPlace<Tables::order(K)>{*this}), ...);
    (run_independent_row(Tables::independent(I)), ...);
  }

  /// Process(place): a latch's one token is tested in place; nothing has
  /// fired from its list yet this cycle, so the snapshot's re-checks could
  /// not fail. Multi-token lists take the snapshot.
  template <typename At>
  [[gnu::always_inline]] void process(const At& at) {
    const core::PtrList<core::Token>& list = at.stage().tokens();
    if (list.empty()) return;  // most places are empty most cycles
    if (list.size() == 1) {
      core::Token* t = list.front();
      if (t->place == at.place() && t->kind == core::TokenKind::instruction &&
          t->ready <= clock_)
        fire_token(at, static_cast<core::InstructionToken*>(t));
    } else {
      process_pool(at);
    }
  }

  /// Process() over a multi-token list (reservation stations, fuzz pools):
  /// firing mutates the list, so iterate the ready snapshot.
  template <typename At>
  [[gnu::noinline]] void process_pool(const At& at) {
    if (!snapshot_ready(at.place(), at.stage())) return;
    for (core::InstructionToken* tok : scratch_) {
      // Re-check: an earlier firing in this cycle may have consumed, flushed
      // or even recycled-and-reinjected this token.
      if (tok->place != at.place() || tok->squashed || tok->ready > clock_) continue;
      fire_token(at, tok);
    }
  }

  /// Offer one ready token to its Fig 6 candidates in priority order. A token
  /// without candidates stalls for want of a ready token; every refusal
  /// overwrites the cause, so the last candidate's reason wins, in the scan
  /// order the interpreted engine shares.
  template <typename At>
  [[gnu::always_inline]] void fire_token(const At& at, core::InstructionToken* tok) {
    reject_cause_ = core::StallCause::no_ready_token;
    const CandRange r = at.range(tok->type);
    for (std::uint32_t i = r.begin; i < r.begin + r.count; ++i)
      if (try_fire(at.row(i), at.id(i), at.dest(i), tok, at.stage())) return;
    count_stall(at.place());
  }

  /// Transition `id` through `row` (shape and delegates) with trigger `tok`,
  /// visible in stage `from`. The simple latch-to-latch move, whose target
  /// `d` is resolved, is here; every other shape is fire_general().
  [[gnu::always_inline]] bool try_fire(const Row& row, core::TransitionId id, Dest d,
                                       core::InstructionToken* tok,
                                       core::PipelineStage& from) {
    if (!row.simple) return fire_general(row, id, tok, from);
    if (d.stage != &from && !d.stage->has_room(1)) {
      reject_cause_ = core::StallCause::capacity_backpressure;
      return false;
    }
    core::FireCtx ctx{this, tok, id};
    if (!tables_.guard(row, ctx)) {
      reject_cause_ = core::StallCause::guard_rejected;
      return false;
    }
    detach_trigger(tok, from);
    tables_.action(row, ctx);
    enter_place_in(tok, row.move_place, *d.stage, d.place_delay, row.delay);
    count_fire(id);
    return true;
  }

  /// Any other shape, checked in core::Engine::try_fire's order: reservation
  /// inputs, output capacity netted per touched stage, guard; then fire.
  [[gnu::noinline]] bool fire_general(const Row& row, core::TransitionId id,
                                      core::InstructionToken* tok, core::PipelineStage& from) {
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

    core::FireCtx ctx{this, tok, id};
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
    count_fire(id);
    return true;
  }

  /// One independent row per Fig 8's tail: up to max_fires firings while it
  /// stays enabled.
  [[gnu::always_inline]] void run_independent_row(const Row& row) {
    for (std::int32_t f = 0; f < row.max_fires && independent_enabled(row); ++f)
      fire_independent(row);
  }

  /// The independent sub-net (Fig 8 tail): reservation inputs ready, room in
  /// every output arc's stage, guard.
  bool independent_enabled(const Row& row) {
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
