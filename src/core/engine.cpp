#include "core/engine.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace rcpn::core {

Engine::Engine(Net& net, EngineOptions options) : net_(net), options_(options) {}

// ---------------------------------------------------------------------------
// Static extraction ("simulator generation")
// ---------------------------------------------------------------------------

void Engine::compute_sorted_transitions() {
  // Fig 6: for every place and instruction type, collect the transitions of
  // that type's sub-net triggered from the place, sorted by arc priority.
  const unsigned np = net_.num_places();
  const unsigned nt = net_.num_types();
  sorted_.assign(static_cast<std::size_t>(np) * nt, {});
  for (unsigned ti = 0; ti < net_.num_transitions(); ++ti) {
    const Transition& t = net_.transition(static_cast<TransitionId>(ti));
    if (t.independent()) continue;
    const PlaceId p = t.trigger_place();
    assert(p != kNoPlace && "sub-net transition without trigger arc");
    sorted_[static_cast<std::size_t>(p) * nt + static_cast<unsigned>(t.subnet())]
        .push_back(&t);
  }
  for (auto& list : sorted_) {
    std::stable_sort(list.begin(), list.end(),
                     [](const Transition* a, const Transition* b) {
                       return a->trigger_priority() < b->trigger_priority();
                     });
  }
}

void Engine::compute_process_order() {
  // Token-flow graph over places: trigger place -> every output place the
  // instruction token can move to. Reservation-emitting arcs are excluded:
  // reservation tokens are ready-gated to the next cycle, so they cannot
  // create same-cycle ordering hazards (the branch sub-net's L1 loop in
  // Fig 5 must not force two-list onto the fetch latch).
  const unsigned np = net_.num_places();
  std::vector<std::vector<PlaceId>> succ(np);
  for (unsigned ti = 0; ti < net_.num_transitions(); ++ti) {
    const Transition& t = net_.transition(static_cast<TransitionId>(ti));
    if (t.independent()) continue;
    const PlaceId from = t.trigger_place();
    for (const OutArc& a : t.outputs())
      if (a.emit == ArcEmit::move) succ[static_cast<unsigned>(from)].push_back(a.place);
  }

  // Tarjan SCC. SCCs pop in reverse topological order of the condensation
  // (sinks first) — exactly the processing order Fig 8 requires.
  std::vector<int> index(np, -1), low(np, 0);
  std::vector<bool> on_stack(np, false), in_cycle(np, false);
  std::vector<PlaceId> stack;
  int next_index = 0;
  order_.clear();

  // Iterative Tarjan to stay safe for large generated nets.
  struct Frame {
    PlaceId v;
    unsigned child = 0;
  };
  std::vector<Frame> call;
  for (unsigned root = 0; root < np; ++root) {
    if (index[root] != -1) continue;
    call.push_back({static_cast<PlaceId>(root)});
    while (!call.empty()) {
      Frame& f = call.back();
      const unsigned v = static_cast<unsigned>(f.v);
      if (f.child == 0) {
        index[v] = low[v] = next_index++;
        stack.push_back(f.v);
        on_stack[v] = true;
      }
      bool descended = false;
      while (f.child < succ[v].size()) {
        const unsigned w = static_cast<unsigned>(succ[v][f.child]);
        ++f.child;
        if (index[w] == -1) {
          call.push_back({static_cast<PlaceId>(w)});
          descended = true;
          break;
        }
        if (on_stack[w]) low[v] = std::min(low[v], index[w]);
      }
      if (descended) continue;
      if (low[v] == index[v]) {
        // Pop one SCC; emit its places into the processing order.
        std::vector<PlaceId> comp;
        for (;;) {
          const PlaceId w = stack.back();
          stack.pop_back();
          on_stack[static_cast<unsigned>(w)] = false;
          comp.push_back(w);
          if (w == f.v) break;
        }
        const bool self_loop =
            comp.size() == 1 &&
            std::find(succ[static_cast<unsigned>(comp[0])].begin(),
                      succ[static_cast<unsigned>(comp[0])].end(),
                      comp[0]) != succ[static_cast<unsigned>(comp[0])].end();
        if (comp.size() > 1 || self_loop)
          for (PlaceId w : comp) in_cycle[static_cast<unsigned>(w)] = true;
        for (PlaceId w : comp) order_.push_back(w);
      }
      call.pop_back();
      if (!call.empty()) {
        Frame& parent = call.back();
        low[static_cast<unsigned>(parent.v)] =
            std::min(low[static_cast<unsigned>(parent.v)], low[v]);
      }
    }
  }

  // Two-list marking.
  //  (a) true token cycles: every place of a non-trivial SCC;
  //  (b) circular guard references (paper: state L3 in Fig 5): a transition
  //      triggered from p reads the state of s while s is reachable from p —
  //      the referenced stage gets two-list so guards observe previous-cycle
  //      contents.
  auto mark = [&](PlaceId p) {
    PipelineStage& st = net_.stage_of(p);
    if (!st.two_list_forced() && !st.is_end()) st.set_two_list(true);
  };
  for (unsigned p = 0; p < np; ++p) {
    PipelineStage& st = net_.stage_of(static_cast<PlaceId>(p));
    if (!st.two_list_forced()) st.set_two_list(false);
  }
  for (unsigned p = 0; p < np; ++p)
    if (in_cycle[p]) mark(static_cast<PlaceId>(p));
  // Reachability from the trigger place to the referenced place.
  for (unsigned ti = 0; ti < net_.num_transitions(); ++ti) {
    const Transition& t = net_.transition(static_cast<TransitionId>(ti));
    if (t.independent() || t.state_refs().empty()) continue;
    const PlaceId from = t.trigger_place();
    std::vector<bool> seen(np, false);
    std::vector<PlaceId> work{from};
    seen[static_cast<unsigned>(from)] = true;
    while (!work.empty()) {
      const unsigned v = static_cast<unsigned>(work.back());
      work.pop_back();
      for (PlaceId w : succ[v]) {
        if (!seen[static_cast<unsigned>(w)]) {
          seen[static_cast<unsigned>(w)] = true;
          work.push_back(w);
        }
      }
    }
    for (PlaceId s : t.state_refs())
      if (seen[static_cast<unsigned>(s)]) mark(s);
  }

  two_list_stages_.clear();
  for (unsigned s = 0; s < net_.num_stages(); ++s)
    if (net_.stage(static_cast<StageId>(s)).two_list())
      two_list_stages_.push_back(static_cast<StageId>(s));

  // End places never hold tokens (retirement happens on entry): skip them in
  // the per-cycle processing loop.
  std::erase_if(order_, [this](PlaceId p) { return net_.stage_of(p).is_end(); });
}

void Engine::build() {
  compute_sorted_transitions();
  compute_process_order();
  place_stage_.resize(net_.num_places());
  place_delay_.resize(net_.num_places());
  for (unsigned p = 0; p < net_.num_places(); ++p) {
    place_stage_[p] = &net_.stage_of(static_cast<PlaceId>(p));
    place_delay_[p] = net_.place(static_cast<PlaceId>(p)).delay;
  }
  stats_.reset(net_.num_transitions(), net_.num_places());
  built_ = true;
}

void Engine::reset() {
  for (unsigned s = 0; s < net_.num_stages(); ++s)
    net_.stage(static_cast<StageId>(s)).clear_tokens([this](Token* t) {
      if (t->kind == TokenKind::instruction) {
        auto* it = static_cast<InstructionToken*>(t);
        it->squash_release();
        it->in_flight = false;
        if (it->pool_owned) instr_free_.push_back(it);
      } else {
        res_free_.push_back(t);
      }
    });
  stats_.reset(net_.num_transitions(), net_.num_places());
  clock_ = 0;
  stopped_ = false;
  in_flight_ = 0;
  seq_counter_ = 0;
  last_activity_clock_ = 0;
  activity_snapshot_ = 0;
}

// ---------------------------------------------------------------------------
// Token services
// ---------------------------------------------------------------------------

InstructionToken* Engine::acquire_pooled_instruction() {
  if (!instr_free_.empty()) {
    InstructionToken* t = instr_free_.back();
    instr_free_.pop_back();
    t->reset_dynamic();
    return t;
  }
  InstructionToken* t = instr_arena_.allocate();
  t->pool_owned = true;
  return t;
}

Token* Engine::acquire_reservation() {
  if (!res_free_.empty()) {
    Token* t = res_free_.back();
    res_free_.pop_back();
    return t;
  }
  return res_arena_.allocate();
}

void Engine::reserve_token_pools(std::size_t instructions, std::size_t reservations) {
  instr_arena_.reserve(instructions);
  instr_free_.reserve(instructions);
  res_arena_.reserve(reservations);
  res_free_.reserve(reservations);
}

void Engine::emit_reservation(PlaceId p) {
  if (!built_) build();
  Token* t = acquire_reservation();
  t->next_delay = 0;
  ++stats_.reservations;
  enter_place(t, p, 0);
}

bool Engine::place_has_room(PlaceId p, std::uint32_t n) const {
  return place_stage_[static_cast<unsigned>(p)]->has_room(n);
}

unsigned Engine::tokens_in_place(PlaceId p) const {
  unsigned n = 0;
  for (const Token* t : place_stage_[static_cast<unsigned>(p)]->tokens())
    if (t->place == p && t->kind == TokenKind::instruction) ++n;
  return n;
}

void Engine::squash_token(Token* t) {
  if (t->kind == TokenKind::instruction) {
    auto* it = static_cast<InstructionToken*>(t);
    it->squash_release();
    ++stats_.squashed;
    assert(in_flight_ > 0);
    --in_flight_;
    it->place = kNoPlace;
    it->state = kNoPlace;
    if (hooks_.on_squash) hooks_.on_squash(it);
    recycle(it);
  } else {
    recycle(t);
  }
}

void Engine::flush_stage(StageId s) {
  net_.stage(s).clear_tokens([this](Token* t) { squash_token(t); });
}

void Engine::flush_stage_if(StageId s, const std::function<bool(const Token&)>& pred) {
  PipelineStage& st = net_.stage(s);
  // Collect first: squash_token recycles into pools and must not run while
  // iterating the live vectors.
  scratch_flush_.clear();
  for (Token* t : st.tokens())
    if (pred(*t)) scratch_flush_.push_back(t);
  for (Token* t : st.incoming())
    if (pred(*t)) scratch_flush_.push_back(t);
  for (Token* t : scratch_flush_) {
    const bool removed = st.remove_any(t);
    assert(removed && "flushed token vanished from its stage");
    (void)removed;
    squash_token(t);
  }
}

// ---------------------------------------------------------------------------
// Per-cycle processing (Fig 7 / Fig 8)
// ---------------------------------------------------------------------------

Token* Engine::find_ready_reservation(PlaceId p) const {
  // Oldest first: the stage list is age-ordered.
  for (Token* t : place_stage_[static_cast<unsigned>(p)]->tokens())
    if (t->place == p && t->kind == TokenKind::reservation && t->ready <= clock_)
      return t;
  return nullptr;
}

bool Engine::try_fire(const Transition& t, InstructionToken* tok) {
  // Fast path for the overwhelmingly common shape: one trigger arc, one
  // move arc (a plain pipeline-latch-to-latch transition).
  if (t.inputs().size() == 1 && t.outputs().size() == 1 &&
      t.outputs()[0].emit == ArcEmit::move) {
    PipelineStage& from = *place_stage_[static_cast<unsigned>(tok->place)];
    PipelineStage& to =
        *place_stage_[static_cast<unsigned>(t.outputs()[0].place)];
    if (&to != &from && !to.has_room(1, 0)) {
      reject_cause_ = StallCause::capacity_backpressure;
      return false;
    }
    FireCtx ctx{this, tok, t.id()};
    if (t.has_guard() && !t.eval_guard(ctx)) {
      reject_cause_ = StallCause::guard_rejected;
      return false;
    }
    const bool removed = from.remove(tok);
    assert(removed && "trigger token not visible in its place");
    (void)removed;
    tok->place = kNoPlace;
    tok->state = kNoPlace;
    if (t.has_action()) t.run_action(ctx);
    enter_place(tok, t.outputs()[0].place, t.delay());
    count_fire(t.id());
    return true;
  }

  // 1. Input availability: the trigger token is `tok` (already matched);
  //    every reservation arc needs a ready reservation token.
  Token* reservations[kMaxReservationInputs];
  unsigned nres = 0;
  for (const InArc& a : t.inputs()) {
    if (a.need == ArcNeed::trigger) continue;
    Token* r = find_ready_reservation(a.place);
    if (r == nullptr) {
      reject_cause_ = StallCause::no_ready_token;
      return false;
    }
    assert(nres < kMaxReservationInputs);
    reservations[nres++] = r;
  }

  // 2. Output capacity, netting out same-stage removals (paper: "the
  //    pipeline stages of the output places have enough capacity").
  struct StageDelta {
    StageId stage = kNoStage;
    int removals = 0;
    int additions = 0;
  };
  StageDelta deltas[kMaxArcStages];
  unsigned nd = 0;
  auto delta_for = [&](StageId s) -> StageDelta& {
    for (unsigned i = 0; i < nd; ++i)
      if (deltas[i].stage == s) return deltas[i];
    assert(nd < kMaxArcStages);
    deltas[nd].stage = s;
    deltas[nd].removals = 0;
    deltas[nd].additions = 0;
    return deltas[nd++];
  };
  delta_for(net_.place(tok->place).stage).removals += 1;
  for (unsigned i = 0; i < nres; ++i)
    delta_for(net_.place(reservations[i]->place).stage).removals += 1;
  for (const OutArc& a : t.outputs())
    delta_for(net_.place(a.place).stage).additions += 1;
  for (unsigned i = 0; i < nd; ++i) {
    const PipelineStage& st = net_.stage(deltas[i].stage);
    if (!st.has_room(static_cast<std::uint32_t>(deltas[i].additions),
                     static_cast<std::uint32_t>(deltas[i].removals))) {
      reject_cause_ = StallCause::capacity_backpressure;
      return false;
    }
  }

  // 3. Guard.
  FireCtx ctx{this, tok, t.id()};
  if (t.has_guard() && !t.eval_guard(ctx)) {
    reject_cause_ = StallCause::guard_rejected;
    return false;
  }

  // ---- fire ----
  PipelineStage& from = net_.stage(net_.place(tok->place).stage);
  const bool removed = from.remove(tok);
  assert(removed && "trigger token not visible in its place");
  (void)removed;
  tok->place = kNoPlace;
  tok->state = kNoPlace;
  for (unsigned i = 0; i < nres; ++i) {
    PipelineStage& rs = net_.stage(net_.place(reservations[i]->place).stage);
    rs.remove(reservations[i]);
    recycle(reservations[i]);
  }

  if (t.has_action()) t.run_action(ctx);

  for (const OutArc& a : t.outputs()) {
    if (a.emit == ArcEmit::move) {
      enter_place(tok, a.place, t.delay());
    } else {
      Token* r = acquire_reservation();
      ++stats_.reservations;
      enter_place(r, a.place, t.delay());
    }
  }

  count_fire(t.id());
  return true;
}

void Engine::process_place(PlaceId p) {
  if (!snapshot_ready(p, *place_stage_[static_cast<unsigned>(p)])) return;

  const unsigned nt = net_.num_types();
  for (InstructionToken* tok : scratch_) {
    // Re-check: an earlier firing in this cycle may have consumed, flushed or
    // even recycled-and-reinjected this token.
    if (tok->place != p || tok->squashed || tok->ready > clock_) continue;
    // Default attribution: a token with zero candidate transitions stalls
    // because nothing is ready for it. Each failed candidate overwrites this,
    // so the *last* candidate's failure reason wins — same scan order in
    // every backend, so the breakdown is backend-identical.
    reject_cause_ = StallCause::no_ready_token;
    bool fired = false;
    const auto& cands =
        sorted_[static_cast<std::size_t>(p) * nt + static_cast<unsigned>(tok->type)];
    for (const Transition* t : cands) {
      if (try_fire(*t, tok)) {
        fired = true;
        break;
      }
    }
    if (!fired) count_stall(p);
  }
}

bool Engine::independent_enabled(const Transition& t) {
  for (const InArc& a : t.inputs()) {
    assert(a.need == ArcNeed::reservation &&
           "independent transitions cannot have trigger arcs");
    if (find_ready_reservation(a.place) == nullptr) return false;
  }
  for (const OutArc& a : t.outputs())
    if (!place_has_room(a.place, 1)) return false;
  FireCtx ctx{this, nullptr, t.id()};
  if (t.has_guard() && !t.eval_guard(ctx)) return false;
  return true;
}

void Engine::fire_independent(const Transition& t) {
  for (const InArc& a : t.inputs()) {
    Token* r = find_ready_reservation(a.place);
    PipelineStage& rs = net_.stage(net_.place(a.place).stage);
    rs.remove(r);
    recycle(r);
  }
  FireCtx ctx{this, nullptr, t.id()};
  if (t.has_action()) t.run_action(ctx);
  for (const OutArc& a : t.outputs()) {
    if (a.emit == ArcEmit::reservation) {
      Token* r = acquire_reservation();
      ++stats_.reservations;
      enter_place(r, a.place, t.delay());
    }
    // ArcEmit::move targets declare capacity intent only; the action emits
    // instruction tokens itself via emit_instruction().
  }
  count_fire(t.id());
}

void Engine::run_independent() {
  for (TransitionId tid : net_.independent_transitions()) {
    const Transition& t = net_.transition(tid);
    for (int i = 0; i < t.max_fires_per_cycle(); ++i) {
      if (!independent_enabled(t)) break;
      fire_independent(t);
    }
  }
}

void Engine::report_deadlock() {
  util::log_line(
      util::LogLevel::error,
      "engine: no activity for " + std::to_string(options_.deadlock_limit) +
          " cycles with tokens in flight — model deadlock in net '" + net_.name() + "'");
  stopped_ = true;
}

std::uint64_t Engine::run(std::uint64_t max_cycles) {
  if (!built_) build();
  const Cycle start = clock_;
  while (!stopped_ && clock_ - start < max_cycles) {
    // Fig 8: make tokens written during the previous cycle visible.
    for (StageId s : two_list_stages_) net_.stage(s).promote_incoming();

    for (PlaceId p : order_) process_place(p);

    run_independent();

    finish_cycle();
  }
  return clock_ - start;
}

const std::vector<const Transition*>& Engine::candidates(PlaceId p, TypeId type) const {
  return sorted_[static_cast<std::size_t>(p) * net_.num_types() +
                 static_cast<unsigned>(type)];
}

}  // namespace rcpn::core
