#include "gen/compiled_engine.hpp"

#include <cassert>

namespace rcpn::gen {

using core::FireCtx;
using core::InstructionToken;
using core::PipelineStage;
using core::PlaceId;
using core::StageId;
using core::Token;

void CompiledEngine::build() {
  core::Engine::build();
  cm_ = CompiledModel::lower(*this);
  // Apply the lowering's pool sizing: per-stage token slots and recycling
  // arenas, so the generated simulator's steady state never reallocates.
  for (unsigned s = 0; s < cm_.num_stages; ++s)
    net_.stage(static_cast<StageId>(s)).reserve_store(cm_.stage_reserve[s]);
  reserve_token_pools(cm_.instr_pool_hint, cm_.res_pool_hint);
  scratch_.reserve(cm_.instr_pool_hint);
}

bool CompiledEngine::try_fire_compiled(const CompiledTransition& ct,
                                       InstructionToken* tok, PipelineStage& from) {
  count_attempt(ct.id);
  if (ct.simple) {
    // Latch-to-latch: shape and destination stage were resolved at lowering.
    PipelineStage& to = *ct.move_stage;
    if (&to != &from && !to.has_room(1, 0)) {
      reject_cause_ = core::StallCause::capacity_backpressure;
      return false;
    }
    FireCtx ctx{this, tok, ct.id};
    if (ct.guard != nullptr && !ct.guard(ct.guard_env, ctx)) {
      reject_cause_ = core::StallCause::guard_rejected;
      return false;
    }
    const bool removed = from.remove(tok);
    assert(removed && "trigger token not visible in its place");
    (void)removed;
    tok->place = core::kNoPlace;
    tok->state = core::kNoPlace;
    if (ct.action != nullptr) ct.action(ct.action_env, ctx);
    enter_place_in(tok, ct.move_place, to, ct.delay);
    count_fire(ct.id);
    return true;
  }

  // General shape: mirror of Engine::try_fire over the flat arc arrays.
  Token* reservations[4];
  unsigned nres = 0;
  for (unsigned i = 0; i < ct.n_res_in; ++i) {
    Token* r = find_ready_reservation(cm_.res_in[ct.res_in_begin + i]);
    if (r == nullptr) {
      reject_cause_ = core::StallCause::no_ready_token;
      return false;
    }
    assert(nres < 4);
    reservations[nres++] = r;
  }

  StageDelta deltas[8];
  unsigned nd = 0;
  auto delta_for = [&](StageId s) -> StageDelta& {
    for (unsigned i = 0; i < nd; ++i)
      if (deltas[i].stage == s) return deltas[i];
    assert(nd < 8);
    deltas[nd].stage = s;
    deltas[nd].removals = 0;
    deltas[nd].additions = 0;
    return deltas[nd++];
  };
  delta_for(cm_.place_stage[static_cast<unsigned>(tok->place)]).removals += 1;
  for (unsigned i = 0; i < nres; ++i)
    delta_for(cm_.place_stage[static_cast<unsigned>(reservations[i]->place)]).removals += 1;
  for (unsigned i = 0; i < ct.n_out; ++i)
    delta_for(cm_.place_stage[static_cast<unsigned>(cm_.out_arcs[ct.out_begin + i].place)])
        .additions += 1;
  for (unsigned i = 0; i < nd; ++i) {
    const PipelineStage& st = net_.stage(deltas[i].stage);
    if (!st.has_room(static_cast<std::uint32_t>(deltas[i].additions),
                     static_cast<std::uint32_t>(deltas[i].removals))) {
      reject_cause_ = core::StallCause::capacity_backpressure;
      return false;
    }
  }

  FireCtx ctx{this, tok, ct.id};
  if (ct.guard != nullptr && !ct.guard(ct.guard_env, ctx)) {
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
    PipelineStage& rs = *place_stage_[static_cast<unsigned>(reservations[i]->place)];
    rs.remove(reservations[i]);
    recycle(reservations[i]);
  }

  if (ct.action != nullptr) ct.action(ct.action_env, ctx);

  for (unsigned i = 0; i < ct.n_out; ++i) {
    const CompiledOutArc& a = cm_.out_arcs[ct.out_begin + i];
    if (!a.reservation) {
      enter_place_in(tok, a.place, *a.stage, ct.delay);
    } else {
      Token* r = acquire_reservation();
      ++stats_.reservations;
      enter_place_in(r, a.place, *a.stage, ct.delay);
    }
  }

  count_fire(ct.id);
  return true;
}

void CompiledEngine::process_place_compiled(PlaceId p, PipelineStage& st) {
  if (!snapshot_ready(p, st)) return;

  const CompiledTransition* body = cm_.body.data();
  for (InstructionToken* tok : scratch_) {
    // Re-check: an earlier firing in this cycle may have consumed, flushed or
    // even recycled-and-reinjected this token.
    if (tok->place != p || tok->squashed || tok->ready > clock_) continue;
    // Same last-candidate-wins attribution as Engine::process_place.
    reject_cause_ = core::StallCause::no_ready_token;
    const CandRange r = cm_.cell[static_cast<std::size_t>(p) * cm_.num_types +
                                 static_cast<unsigned>(tok->type)];
    bool fired = false;
    for (std::uint32_t i = r.begin; i < r.begin + r.count; ++i) {
      if (try_fire_compiled(body[i], tok, st)) {
        fired = true;
        break;
      }
    }
    if (!fired) count_stall(p, tok);
  }
}

bool CompiledEngine::independent_enabled_compiled(const CompiledTransition& ct) {
  count_attempt(ct.id);
  for (unsigned i = 0; i < ct.n_res_in; ++i)
    if (find_ready_reservation(cm_.res_in[ct.res_in_begin + i]) == nullptr) return false;
  for (unsigned i = 0; i < ct.n_out; ++i)
    if (!place_has_room(cm_.out_arcs[ct.out_begin + i].place, 1)) return false;
  FireCtx ctx{this, nullptr, ct.id};
  if (ct.guard != nullptr && !ct.guard(ct.guard_env, ctx)) return false;
  return true;
}

void CompiledEngine::fire_independent_compiled(const CompiledTransition& ct) {
  for (unsigned i = 0; i < ct.n_res_in; ++i) {
    const PlaceId p = cm_.res_in[ct.res_in_begin + i];
    Token* r = find_ready_reservation(p);
    PipelineStage& rs = *place_stage_[static_cast<unsigned>(p)];
    rs.remove(r);
    recycle(r);
  }
  FireCtx ctx{this, nullptr, ct.id};
  if (ct.action != nullptr) ct.action(ct.action_env, ctx);
  for (unsigned i = 0; i < ct.n_out; ++i) {
    const CompiledOutArc& a = cm_.out_arcs[ct.out_begin + i];
    if (a.reservation) {
      Token* r = acquire_reservation();
      ++stats_.reservations;
      enter_place_in(r, a.place, *a.stage, ct.delay);
    }
    // Move targets declare capacity intent only; the action emits instruction
    // tokens itself via emit_instruction().
  }
  count_fire(ct.id);
}

bool CompiledEngine::step() {
  if (!built()) build();
  if (stopped()) return false;

  // Fig 8 over the compiled tables: promote, process in order, run the
  // independent sub-net, advance the clock. Stage objects were resolved at
  // lowering; the per-cycle loops never translate an id.
  for (PipelineStage* st : cm_.two_list_stage_ptrs) st->promote_incoming();

  const std::size_t np = cm_.order.size();
  for (std::size_t i = 0; i < np; ++i) {
    PipelineStage& st = *cm_.order_stage[i];
    // Hoisted empty check: most places are empty most cycles, and the list
    // size is one load away.
    if (!st.store().empty()) process_place_compiled(cm_.order[i], st);
  }

  for (const CompiledTransition& ct : cm_.independent) {
    for (std::int32_t i = 0; i < ct.max_fires; ++i) {
      if (!independent_enabled_compiled(ct)) break;
      fire_independent_compiled(ct);
    }
  }

  return finish_cycle();
}

}  // namespace rcpn::gen
