// The cycle-accurate simulation engine "generated" from an RCPN model.
//
// build() performs the static extraction the paper describes in §4:
//   * Fig 6 — for every (place, instruction type) pair, the priority-sorted
//     list of candidate transitions is computed once, before simulation;
//   * the places are ordered in reverse topological order of the token-flow
//     graph so that almost no place needs the expensive two-list
//     (master/slave) algorithm;
//   * strongly-connected components and circular guard references
//     (reads_state) identify the few stages that *do* need two-list
//     insertion semantics.
//
// step() is the Fig 8 main loop: promote two-list stages, Process() every
// place in order (Fig 7), run the instruction-independent sub-net, advance
// the clock.
#pragma once

#include <cassert>
#include <functional>
#include <memory>
#include <optional>
#include <typeindex>
#include <vector>

#include "core/net.hpp"
#include "core/stats.hpp"
#include "core/token_store.hpp"
#include "obs/probe.hpp"

namespace rcpn::core {

/// Which engine executes the model. All run the same static extraction and
/// are cycle-for-cycle equivalent (tests/test_gen.cpp pins this).
/// model::Simulator<M> reads this option; the Engine itself ignores it.
///  * interpreted — core::Engine walking the net's Transition objects: the
///    independent reference oracle the other two are checked against;
///  * compiled — the one table-driven hot loop (gen::TableEngine) over the
///    tables gen::CompiledModel::lower() flattens at build(), with guards and
///    actions as pre-bound function pointers (gen::CompiledEngine);
///  * generated — the same loop over the constexpr tables of a source file
///    gen::emit_simulator() produced for this model, calling each named
///    delegate directly (gen::StaticEngine: the paper's literal "generated
///    C++ simulator"). Requires the generated translation unit to be linked
///    in and registered (gen/generated.hpp); Simulator<M> throws ModelError
///    otherwise.
enum class Backend : std::uint8_t { interpreted, compiled, generated };

/// Options for the static analysis; the defaults follow the paper. The
/// ablation benches flip them to quantify each optimization.
struct EngineOptions {
  /// Engine implementation selected by model::Simulator<M>.
  Backend backend = Backend::interpreted;
  /// Mark stages targeted by circular guard references (reads_state) as
  /// two-list, as the paper does for L3 in Fig 5. Models may still override
  /// per stage with force_two_list().
  bool two_list_state_refs = true;
  /// Ablation: use the two-list algorithm for *every* stage (the
  /// "computationally expensive usual solution" of §4).
  bool force_two_list_all = false;
  /// Ablation: ignore the Fig 6 sorted-transition table and search all
  /// transitions of the net for every token (CPN-style global search).
  bool linear_search = false;
  /// Stop with an error after this many cycles without any firing while
  /// tokens are still in flight (model deadlock watchdog).
  std::uint64_t deadlock_limit = 100000;
  /// Optional observability hub (src/obs/): when attached, the engine binds
  /// the model meta at build() and streams probe events into it. Runtime-only
  /// — excluded from farm job identity and the generated-artifact options
  /// key, and completely ignored unless the library was built with RCPN_OBS
  /// (the probe call sites are compiled out otherwise).
  obs::Hub* obs = nullptr;
};

class Engine {
 public:
  struct Hooks {
    /// Called when an instruction token reaches the virtual end stage.
    std::function<void(InstructionToken*)> on_retire;
    /// Called when an instruction token is squashed by a flush.
    std::function<void(InstructionToken*)> on_squash;
  };

  explicit Engine(Net& net, EngineOptions options = {});
  virtual ~Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Net& net() { return net_; }
  const Net& net() const { return net_; }

  /// Static extraction (Fig 6 + ordering analysis). Called automatically by
  /// the first step() if needed. Virtual so derived engines (the compiled
  /// backend) can append their own lowering; only called on cold paths.
  virtual void build();
  bool built() const { return built_; }

  /// Clear all dynamic state (tokens, stats, clock); keeps build products.
  void reset();

  /// Simulate one clock cycle. Returns false once stop() has been called.
  /// Virtual dispatch costs one indirect call per *cycle*, not per event —
  /// the hot work inside a cycle stays devirtualized in both backends.
  virtual bool step();
  /// Run until stop() or `max_cycles`; returns cycles executed.
  std::uint64_t run(std::uint64_t max_cycles = ~0ull);
  void stop() { stopped_ = true; }
  bool stopped() const { return stopped_; }

  Cycle clock() const { return clock_; }
  Stats& stats() { return stats_; }
  const Stats& stats() const { return stats_; }
  Hooks& hooks() { return hooks_; }
  EngineOptions& options() { return options_; }
  const EngineOptions& options() const { return options_; }

  /// The machine context (register files, memories, pc, ...) the model's
  /// guards and actions operate on. The context is registered with its static
  /// type; machine<T>() asserts (debug builds) that the same T is used on
  /// retrieval, so a wrong cast fails loudly instead of silently corrupting
  /// memory. The recorded std::type_index is kept in all build modes so the
  /// Engine layout does not depend on NDEBUG (consumers may compile against
  /// the library with different settings). Prefer model::Simulator<M>, which
  /// manages the context and never exposes the erased pointer.
  template <typename T>
  T& machine() {
    assert(machine_ != nullptr && "Engine has no machine context");
    assert(machine_type_.has_value() && *machine_type_ == std::type_index(typeid(T)) &&
           "Engine::machine<T>() type mismatch: T differs from the set_machine type");
    return *static_cast<T*>(machine_);
  }
  template <typename T>
  void set_machine(T* m) {
    static_assert(!std::is_void_v<T>, "register the machine with its real type");
    machine_ = m;
    if (m == nullptr) {
      machine_type_.reset();
    } else {
      machine_type_.emplace(typeid(T));
    }
  }

  // -- services available to transition actions -------------------------------

  /// Inject an instruction token into place `p` (fetch / µ-op expansion).
  /// Honors the token's next_delay. The caller is responsible for capacity
  /// (see place_has_room), mirroring the paper's fetch-transition guard.
  void emit_instruction(InstructionToken* t, PlaceId p);
  /// Emit a reservation token into `p`.
  void emit_reservation(PlaceId p);
  bool place_has_room(PlaceId p, std::uint32_t n = 1) const;
  /// Number of visible instruction tokens currently in place `p`.
  unsigned tokens_in_place(PlaceId p) const;

  /// Squash every token in stage `s` (branch flush). Instruction tokens get
  /// their register reservations released and on_squash fires.
  void flush_stage(StageId s);
  /// Squash only tokens satisfying `pred` (e.g. younger than a branch).
  void flush_stage_if(StageId s, const std::function<bool(const Token&)>& pred);

  /// Acquire a pooled instruction token (for models that do not manage their
  /// own decode cache); recycled automatically on retire/squash.
  InstructionToken* acquire_pooled_instruction();

  std::uint64_t tokens_in_flight() const { return in_flight_; }

  // -- narrow token-storage interface -----------------------------------------
  // Every backend stores tokens in the per-stage age-ordered lists
  // (TokenStore); these are the only entry points, so guards, actions and
  // stats observe identical token semantics regardless of which hot loop runs.

  /// The token lists of stage `s`.
  const TokenStore& token_store(StageId s) const { return net_.stage(s).store(); }
  /// Pre-size the recycling arenas (compiled lowering: pool hints), so the
  /// steady state allocates nothing.
  void reserve_token_pools(std::size_t instructions, std::size_t reservations);

  // -- checkpoint support (src/ckpt/) ------------------------------------------
  // The snapshot layer reads and rebuilds the engine's dynamic state through
  // these narrow entry points. They are not part of the modeling API: restore
  // reproduces the recorded per-stage token lists and counters verbatim, so a
  // restored run continues cycle-for-cycle identically to the original.

  /// Every dynamic engine scalar a snapshot must carry.
  struct CkptScalars {
    Cycle clock = 0;
    std::uint64_t in_flight = 0;
    std::uint32_t seq_counter = 0;
    std::uint64_t last_activity_clock = 0;
    std::uint64_t activity_snapshot = 0;
    bool stopped = false;
  };
  CkptScalars ckpt_scalars() const {
    return CkptScalars{clock_, in_flight_, seq_counter_, last_activity_clock_,
                       activity_snapshot_, stopped_};
  }
  void ckpt_restore_scalars(const CkptScalars& s) {
    clock_ = s.clock;
    in_flight_ = s.in_flight;
    seq_counter_ = s.seq_counter;
    last_activity_clock_ = s.last_activity_clock;
    activity_snapshot_ = s.activity_snapshot;
    stopped_ = s.stopped;
  }
  /// Pooled reservation token for snapshot restore (the caller sets its
  /// fields and re-inserts it with ckpt_insert_token).
  Token* ckpt_acquire_reservation() { return acquire_reservation(); }
  /// Insert `t` (fields already set) directly into stage `s`'s visible or
  /// incoming list, bypassing the two-list routing: restore reproduces the
  /// recorded lists — including tokens parked in an incoming buffer at the
  /// snapshot boundary — exactly as they were.
  void ckpt_insert_token(Token* t, StageId s, bool incoming) {
    net_.stage(s).insert_restored(t, incoming);
  }

  // -- introspection (tests, benches, CPN conversion) --------------------------
  const std::vector<PlaceId>& process_order() const { return order_; }
  const std::vector<const Transition*>& candidates(PlaceId p, TypeId type) const;
  bool stage_is_two_list(StageId s) const { return net_.stage(s).two_list(); }

 protected:
  // The build products, token services and per-cycle bookkeeping are shared
  // with derived engines: gen::TableEngine replaces only the hot loop
  // (candidate search + firing) and reuses everything else, so every backend
  // stays cycle-for-cycle equivalent by construction.
  void compute_sorted_transitions();
  void compute_process_order();
  void process_place(PlaceId p);
  void run_independent();
  bool try_fire(const Transition& t, InstructionToken* tok);
  bool independent_enabled(const Transition& t);
  void fire_independent(const Transition& t);
  void enter_place(Token* tok, PlaceId p, std::uint32_t transition_delay);
  /// Token entry with the place's stage and residence delay already
  /// resolved: the one copy of the entry semantics (retire-on-end,
  /// next_delay/residence, two-list state lag, the enter probe). Forced
  /// inline so the table loop's firing chain compiles into its step();
  /// enter_place() feeds it from the id-indexed caches.
  [[gnu::always_inline]] void enter_place_in(Token* tok, PlaceId p, PipelineStage& st,
                                             std::uint32_t place_delay,
                                             std::uint32_t transition_delay) {
    if (st.is_end()) {
      if (tok->kind == TokenKind::instruction) {
        retire(static_cast<InstructionToken*>(tok));
      } else {
        recycle(tok);
      }
      return;
    }
    const std::uint32_t residence =
        (tok->next_delay != 0 ? tok->next_delay : place_delay) + transition_delay;
    tok->next_delay = 0;
    tok->place = p;
    tok->ready = clock_ + residence;
    if (tok->kind == TokenKind::instruction) {
      auto* it = static_cast<InstructionToken*>(tok);
      // Visible state lags insertion for two-list stages (promoted next cycle).
      it->state = st.two_list() ? kNoPlace : p;
#if RCPN_OBS
      if (options_.obs != nullptr) options_.obs->on_token_enter(clock_, p, it->seq, it->pc);
#endif
    }
    st.insert(tok);
  }
  void retire(InstructionToken* tok);
  Token* find_ready_reservation(PlaceId p) const;
  Token* acquire_reservation();
  void recycle(Token* t);
  void squash_token(Token* t);
  /// Advance the clock, update stats and run the deadlock watchdog (the tail
  /// of Fig 8's main loop, shared by both backends). Returns !stopped_.
  bool finish_cycle();

  /// The Process(place) snapshot (firing mutates the stage's list; the table
  /// loop tests a one-token list in place instead): fill scratch_ with the
  /// visible instruction tokens of `p` that are ready this cycle, in age
  /// order. False when there are none.
  bool snapshot_ready(PlaceId p, const PipelineStage& st) {
    scratch_.clear();
    for (Token* t : st.tokens())
      if (t->place == p && t->kind == TokenKind::instruction && t->ready <= clock_)
        scratch_.push_back(static_cast<InstructionToken*>(t));
    return !scratch_.empty();
  }

  // -- shared fire/stall accounting -------------------------------------------
  // ONE definition of the hot-loop bookkeeping (and, under RCPN_OBS, of the
  // probe points), inlined into every backend's firing code, so the four
  // backends emit identical statistics and event streams by construction.

  /// A transition fired (the common `++firings; ++transition_fires[id]`).
  inline void count_fire(TransitionId id) {
    ++stats_.firings;
    ++stats_.transition_fires[static_cast<unsigned>(id)];
#if RCPN_OBS
    if (options_.obs != nullptr) options_.obs->on_fire(clock_, id);
#endif
  }

  /// A candidate transition was evaluated for firing (try_fire entry /
  /// independent enable check). Feeds the attempts-vs-fires scan-cost
  /// counters of obs::StageProfile; free when RCPN_OBS is off.
  inline void count_attempt(TransitionId id) {
#if RCPN_OBS
    if (options_.obs != nullptr) options_.obs->on_attempt(id);
#else
    (void)id;
#endif
  }

  /// A ready token fired nothing this cycle; reject_cause_ holds why the
  /// last candidate refused (set by the try_fire implementations).
  inline void count_stall(PlaceId p, const InstructionToken* tok) {
    ++stats_.place_stalls[static_cast<unsigned>(p)];
    ++stats_.place_stall_causes[static_cast<unsigned>(p) * kNumStallCauses +
                                static_cast<unsigned>(reject_cause_)];
#if RCPN_OBS
    if (options_.obs != nullptr)
      options_.obs->on_stall(clock_, p, reject_cause_, tok->seq, tok->pc);
#else
    (void)tok;
#endif
  }

  Net& net_;
  void* machine_ = nullptr;
  std::optional<std::type_index> machine_type_;
  EngineOptions options_;
  Hooks hooks_;
  Stats stats_;
  Cycle clock_ = 0;
  bool stopped_ = false;
  bool built_ = false;
  std::uint64_t in_flight_ = 0;
  std::uint32_t seq_counter_ = 0;
  std::uint64_t last_activity_clock_ = 0;
  std::uint64_t activity_snapshot_ = 0;
  /// Why the most recent candidate evaluation refused to fire; read by
  /// count_stall(). Always maintained (the stall-cause stats are not gated),
  /// one byte-store per failed candidate.
  StallCause reject_cause_ = StallCause::no_ready_token;

  /// Fig 6 table: [place * num_types + type] -> sorted candidate list.
  std::vector<std::vector<const Transition*>> sorted_;
  std::vector<PlaceId> order_;
  std::vector<StageId> two_list_stages_;
  /// Hot-path caches built by build(): place -> stage object / residence.
  std::vector<PipelineStage*> place_stage_;
  std::vector<std::uint32_t> place_delay_;

  // Token pools: dense chunked arenas + LIFO free lists (allocation-free
  // steady state; recycled tokens of a pool share cache lines).
  TokenArena<InstructionToken> instr_arena_;
  std::vector<InstructionToken*> instr_free_;
  TokenArena<Token> res_arena_;
  std::vector<Token*> res_free_;

  // Per-cycle scratch, reused to avoid allocation in the hot loop.
  std::vector<InstructionToken*> scratch_;
  std::vector<Token*> scratch_flush_;
};

}  // namespace rcpn::core
