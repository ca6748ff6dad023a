#include "machines/fuzz_model.hpp"

#include <limits>
#include <random>
#include <stdexcept>
#include <string>

#include "desc/delegate_registry.hpp"
#include "machines/golden_session.hpp"
#include "model/simulator.hpp"

namespace rcpn::machines {

namespace {

std::int32_t fuzz_param(const std::vector<std::int32_t>& params,
                        core::TransitionId t) {
  return params[static_cast<std::size_t>(t)];
}

void fuzz_set_param(std::vector<std::int32_t>& params, core::TransitionId t,
                    std::int32_t v) {
  const auto idx = static_cast<std::size_t>(t);
  if (params.size() <= idx) params.resize(idx + 1, 0);
  params[idx] = v;
}

}  // namespace

bool fuzz_guard_periodic(core::FireCtx& ctx) {
  // Periodic stall keyed on token age and time.
  return (ctx.token->seq + ctx.engine->clock()) % 3 != 0;
}

bool fuzz_guard_window(core::FireCtx& ctx) {
  // Coarse clock window.
  return (ctx.engine->clock() >> 2) % 2 == 0;
}

bool fuzz_guard_backpressure(FuzzMachine& m, core::FireCtx& ctx) {
  // State-referencing backpressure (declared via reads_state at build time).
  const auto watched =
      static_cast<core::PlaceId>(fuzz_param(m.guard_param, ctx.transition));
  return ctx.engine->tokens_in_place(watched) < 2;
}

bool fuzz_guard_loop(FuzzMachine& m, core::FireCtx& ctx) {
  // token->raw is the feedback-arc trip counter, reset at fetch.
  return ctx.token->raw <
         static_cast<std::uint32_t>(fuzz_param(m.guard_param, ctx.transition));
}

bool fuzz_fetch_guard(FuzzMachine& m, core::FireCtx&) {
  return m.emitted < m.to_emit;
}

void fuzz_action_count(FuzzMachine& m, core::FireCtx&) { ++m.actions_run; }

void fuzz_action_delay(core::FireCtx& ctx) {
  // Token delay override for the next place entry.
  ctx.token->next_delay = 1 + ctx.token->seq % 3;
}

void fuzz_action_flush(FuzzMachine& m, core::FireCtx& ctx) {
  // Age-based flush of an earlier stage every 11th instruction.
  if (ctx.token->seq % 11 != 0) return;
  ++m.flushes;
  const auto victim =
      static_cast<core::StageId>(fuzz_param(m.action_param, ctx.transition));
  const std::uint32_t older_than = ctx.token->seq;
  ctx.engine->flush_stage_if(victim, [older_than](const core::Token& t) {
    return t.kind == core::TokenKind::instruction &&
           static_cast<const core::InstructionToken&>(t).seq > older_than;
  });
}

void fuzz_action_loop(FuzzMachine& m, core::FireCtx& ctx) {
  ++m.loops_taken;
  ++ctx.token->raw;
}

void fuzz_fetch_action(FuzzMachine& m, core::FireCtx& ctx) {
  core::InstructionToken* tok = ctx.engine->acquire_pooled_instruction();
  // Type and pc are a deterministic hash of the emission index.
  tok->type = m.fetch_types[(m.emitted * 2654435761u >> 8) % m.fetch_types.size()];
  tok->pc = 0x1000 + m.emitted * 4;
  tok->raw = 0;  // feedback-arc trip counter (recycled tokens keep raw)
  ++m.emitted;
  ctx.engine->emit_instruction(tok, m.entry);
}

const desc::DelegateRegistry& fuzz_delegates() {
  static const desc::DelegateRegistry reg = [] {
    desc::DelegateRegistry r("rcpn::machines::FuzzMachine",
                             {"machines/fuzz_model.hpp"});
    auto d = r.bind<FuzzMachine>();
    d.guard<&fuzz_guard_periodic>("rcpn::machines::fuzz_guard_periodic");
    d.guard<&fuzz_guard_window>("rcpn::machines::fuzz_guard_window");
    d.guard<&fuzz_guard_backpressure>("rcpn::machines::fuzz_guard_backpressure");
    d.guard<&fuzz_guard_loop>("rcpn::machines::fuzz_guard_loop");
    d.guard<&fuzz_fetch_guard>("rcpn::machines::fuzz_fetch_guard");
    d.action<&fuzz_action_count>("rcpn::machines::fuzz_action_count");
    d.action<&fuzz_action_delay>("rcpn::machines::fuzz_action_delay");
    d.action<&fuzz_action_flush>("rcpn::machines::fuzz_action_flush");
    d.action<&fuzz_action_loop>("rcpn::machines::fuzz_action_loop");
    d.action<&fuzz_fetch_action>("rcpn::machines::fuzz_fetch_action");
    return r;
  }();
  return reg;
}

void describe_fuzz_model(unsigned seed, model::ModelBuilder<FuzzMachine>& b,
                         FuzzMachine& m) {
  b.use_delegates(fuzz_delegates());

  std::mt19937 rng(seed);
  auto pick = [&rng](unsigned lo, unsigned hi) {  // inclusive range
    return lo + static_cast<unsigned>(rng() % (hi - lo + 1));
  };
  // Built without operator+(const char*, string&&) to sidestep a GCC 12
  // -Wrestrict false positive (PR105651) in the inlined insert path.
  auto tx_name = [](char kind, unsigned t, unsigned i) {
    std::string s(1, kind);
    s += std::to_string(t);
    s += '_';
    s += std::to_string(i);
    return s;
  };
  auto id_name = [](char kind, unsigned i) {
    std::string s(1, kind);
    s += std::to_string(i);
    return s;
  };

  const unsigned num_stages = pick(2, 6);
  const unsigned num_places = num_stages + pick(0, 2);
  const unsigned num_types = pick(1, 3);
  const unsigned width = pick(1, 3);
  m.to_emit = 80 + pick(0, 120);

  // Stages with small random capacities; the fetch stage must hold a full
  // issue group.
  std::vector<model::StageHandle> stages;
  for (unsigned s = 0; s < num_stages; ++s) {
    unsigned cap = pick(1, 3);
    if (s == 0 && cap < width) cap = width;
    stages.push_back(b.add_stage(id_name('S', s), cap));
  }
  // Occasionally pin a middle stage to two-list (conservative forwarding
  // timing), exercising the master/slave promotion path.
  if (num_stages > 2 && pick(0, 2) == 0)
    b.force_two_list(stages[1 + pick(0, num_stages - 3)], true);

  // Places in pipeline order, distributed over the stages (several places may
  // share one stage and its capacity).
  std::vector<model::PlaceHandle> places;
  std::vector<unsigned> place_stage;
  for (unsigned i = 0; i < num_places; ++i) {
    const unsigned s = i * num_stages / num_places;
    place_stage.push_back(s);
    places.push_back(b.add_place(id_name('P', i), stages[s], /*delay=*/pick(1, 2)));
  }

  // A roomy side stage for reservation tokens (orphans from flushes may
  // accumulate; the stage must never backpressure the net into deadlock).
  const model::StageHandle res_stage =
      b.add_stage("RES", static_cast<std::uint32_t>(m.to_emit + 8));
  const model::PlaceHandle res_place = b.add_place("RES", res_stage);

  std::vector<model::TypeHandle> types;
  for (unsigned t = 0; t < num_types; ++t)
    types.push_back(b.add_type(id_name('T', t)));

  // Per type: an emit/consume reservation pair on the chain (consume sites
  // get a fallback edge so a missing reservation stalls but never deadlocks).
  std::vector<int> res_emit_at(num_types, -1), res_consume_at(num_types, -1);
  for (unsigned t = 0; t < num_types; ++t) {
    if (num_places >= 2 && pick(0, 1) == 0) {
      const unsigned i = pick(0, num_places - 2);
      res_emit_at[t] = static_cast<int>(i);
      res_consume_at[t] = static_cast<int>(pick(i + 1, num_places - 1));
    }
  }

  // Guard mixes. Everything is a deterministic function of token fields, the
  // clock, machine counters and the per-transition parameter arrays, so both
  // backends — and an emitted freestanding artifact — evaluate identically.
  auto add_guard = [&](auto& tb, unsigned kind, unsigned backpressure_place) {
    switch (kind) {
      case 1:
        tb.guard_ref("rcpn::machines::fuzz_guard_periodic");
        break;
      case 2:
        tb.guard_ref("rcpn::machines::fuzz_guard_window");
        break;
      case 3: {
        tb.guard_ref("rcpn::machines::fuzz_guard_backpressure");
        fuzz_set_param(m.guard_param, tb.handle().id(),
                       places[backpressure_place].id());
        tb.reads_state(places[backpressure_place]);
        break;
      }
      default:
        break;
    }
  };
  auto add_action = [&](auto& tb, unsigned kind, unsigned from_place) {
    switch (kind) {
      case 1:
        tb.action_ref("rcpn::machines::fuzz_action_count");
        break;
      case 2:  // token delay override for the next place entry
        tb.action_ref("rcpn::machines::fuzz_action_delay");
        break;
      case 3: {  // age-based flush of an earlier stage every 11th instruction
        tb.action_ref("rcpn::machines::fuzz_action_flush");
        fuzz_set_param(m.action_param, tb.handle().id(),
                       stages[place_stage[pick(0, from_place)]].id());
        break;
      }
      default:
        break;
    }
  };

  // The sub-nets: for every (type, place) a forward edge (1-2 places ahead,
  // falling off the end retires), plus occasional lower-priority forks and
  // occasional *feedback* arcs ahead of the forward edge. This guarantees
  // every token always has a candidate transition wherever it sits, so
  // generated models cannot wedge on missing structure.
  for (unsigned t = 0; t < num_types; ++t) {
    for (unsigned i = 0; i < num_places; ++i) {
      const unsigned jump = pick(1, 2);
      const model::PlaceHandle target =
          (i + jump < num_places) ? places[i + jump] : b.end();
      const bool consume_here = res_consume_at[t] == static_cast<int>(i);
      std::uint8_t prio = 0;

      if (consume_here) {
        // Highest-priority consuming edge; the plain edge below is the
        // fallback.
        auto tb = b.add_transition(tx_name('c', t, i), types[t]);
        tb.from(places[i], prio++).consume_reservation(res_place).to(target);
        add_action(tb, pick(0, 2), i);
      }

      // Feedback arc (Fig 5's L1 loop shape): send the token back to an
      // earlier place, at most `trips` times per token (token->raw is the
      // trip counter, reset at fetch), tried *before* the forward edge so it
      // actually fires. The enclosed places form a real token cycle, so the
      // engine's SCC analysis puts their stages on the two-list algorithm.
      if (i >= 1 && pick(0, 4) == 0) {
        const unsigned back = pick(0, i - 1);
        const std::uint32_t trips = pick(1, 2);
        auto lb = b.add_transition(tx_name('l', t, i), types[t]);
        lb.from(places[i], prio++).to(places[back]);
        lb.guard_ref("rcpn::machines::fuzz_guard_loop");
        fuzz_set_param(m.guard_param, lb.handle().id(),
                       static_cast<std::int32_t>(trips));
        lb.action_ref("rcpn::machines::fuzz_action_loop");
      }

      const std::uint8_t main_prio = prio;
      auto tb = b.add_transition(tx_name('t', t, i), types[t]);
      tb.from(places[i], main_prio).to(target);
      if (res_emit_at[t] == static_cast<int>(i)) tb.emit_reservation(res_place);
      // Backpressure guards must watch a strictly *later* place: watching your
      // own (or an earlier) place can deadlock once it fills, and liveness of
      // the generated model is proven by induction from the last place back.
      unsigned guard_kind = pick(0, 3) == 1 ? pick(1, 3) : 0;
      if (guard_kind == 3 && i + 1 >= num_places) guard_kind = 1;
      add_guard(tb, guard_kind, i + 1 < num_places ? pick(i + 1, num_places - 1) : i);
      add_action(tb, pick(0, 4) == 0 ? 3 : pick(0, 2), i);

      if (pick(0, 3) == 0) {  // fork: alternative route at lower priority
        const unsigned fjump = pick(1, 3);
        const model::PlaceHandle ftarget =
            (i + fjump < num_places) ? places[i + fjump] : b.end();
        auto fb = b.add_transition(tx_name('f', t, i), types[t]);
        fb.from(places[i], static_cast<std::uint8_t>(main_prio + 1)).to(ftarget);
        add_action(fb, pick(0, 2), i);
      }
    }
  }

  // Multi-issue fetch: up to `width` fresh tokens per cycle.
  m.entry = places[0].id();
  m.fetch_types.clear();
  for (auto th : types) m.fetch_types.push_back(th.id());
  b.add_independent_transition("fetch")
      .guard_ref("rcpn::machines::fuzz_fetch_guard")
      .action_ref("rcpn::machines::fuzz_fetch_action")
      .max_fires_per_cycle(static_cast<int>(width))
      .to(places[0]);
}

core::EngineOptions fuzz_options_for(unsigned seed, core::Backend backend) {
  core::EngineOptions o;
  o.backend = backend;
  // Exercise the ablation analyses too: some seeds double-buffer every stage,
  // some drop the state-reference rule. Both engines of a lockstep pair get
  // identical options.
  o.force_two_list_all = seed % 7 == 3;
  o.two_list_state_refs = seed % 5 != 4;
  o.deadlock_limit = 20000;
  return o;
}

std::string fuzz_model_name(unsigned seed) { return "fuzz-" + std::to_string(seed); }

std::optional<unsigned> parse_fuzz_model_name(std::string_view name) {
  constexpr std::string_view kPrefix = "fuzz-";
  if (!name.starts_with(kPrefix)) return std::nullopt;
  const std::string_view digits = name.substr(kPrefix.size());
  if (digits.empty() || digits.size() > 10 || (digits[0] == '0' && digits.size() > 1))
    return std::nullopt;
  std::uint64_t seed = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    seed = seed * 10 + static_cast<std::uint64_t>(c - '0');
  }
  if (seed > std::numeric_limits<std::uint32_t>::max()) return std::nullopt;
  return static_cast<unsigned>(seed);
}

GoldenRunResult golden_run_fuzz(unsigned seed, core::EngineOptions options,
                                std::uint64_t max_cycles) {
  const std::string name = fuzz_model_name(seed);
  model::Simulator<FuzzMachine> sim(
      name, options,
      [seed](model::ModelBuilder<FuzzMachine>& b, FuzzMachine& m) {
        describe_fuzz_model(seed, b, m);
      },
      FuzzMachine{});
  GoldenRunResult r;
  record_golden_retires(sim.engine(), r.trace);
  const std::uint64_t kMaxCycles = max_cycles != 0 ? max_cycles : kFuzzDrainCap;
  std::uint64_t cycle = 0;
  for (; cycle < kMaxCycles; ++cycle) {
    if (sim.machine().emitted >= sim.machine().to_emit &&
        sim.engine().tokens_in_flight() == 0)
      break;
    if (!sim.step())
      throw std::runtime_error(name + ": engine stopped (deadlocked model?) at cycle " +
                               std::to_string(cycle));
  }
  if (cycle >= kMaxCycles) throw std::runtime_error(name + ": model did not drain");
  r.stats = sim.engine().stats();
  return r;
}

namespace {

class FuzzSession final : public SessionBase {
 public:
  FuzzSession(std::unique_ptr<model::Simulator<FuzzMachine>> sim,
              std::uint64_t max_cycles)
      : cap_(max_cycles != 0 ? max_cycles : kFuzzDrainCap), sim_(std::move(sim)) {
    record_golden_retires(sim_->engine(), trace_);
  }

  core::Engine& engine() override { return sim_->engine(); }

  bool advance(std::uint64_t cycles) override {
    // Same loop shape (and error behaviour) as golden_run_fuzz: done is
    // checked *before* each step, and the iteration counter equals the engine
    // clock because the straight run steps exactly once per iteration from
    // cycle 0 — so a resumed session picks the count up from the clock.
    std::uint64_t cycle = sim_->engine().clock();
    for (std::uint64_t k = 0; k < cycles; ++k, ++cycle) {
      if (cycle >= cap_) throw std::runtime_error(machine_key() + ": model did not drain");
      if (done()) return false;
      if (!sim_->step())
        throw std::runtime_error(machine_key() +
                                 ": engine stopped (deadlocked model?) at cycle " +
                                 std::to_string(cycle));
    }
    return true;
  }

  std::string machine_key() const override { return sim_->net().name(); }
  std::string workload_id() const override { return "golden"; }

  void save_machine(ckpt::StateWriter& w, const ckpt::RefCoder&) const override {
    const FuzzMachine& m = sim_->machine();
    w.begin("fuzz")
        .field("emitted", m.emitted)
        .field("actions_run", m.actions_run)
        .field("flushes", m.flushes)
        .field("loops_taken", m.loops_taken)
        .end();
  }

  void restore_machine(ckpt::StateReader& r, const ckpt::RefCoder&) override {
    FuzzMachine& m = sim_->machine();
    r.next("fuzz");
    m.emitted = r.get_u64("emitted");
    m.actions_run = r.get_u64("actions_run");
    m.flushes = r.get_u64("flushes");
    m.loops_taken = r.get_u64("loops_taken");
  }

 private:
  bool done() {
    return sim_->machine().emitted >= sim_->machine().to_emit &&
           sim_->engine().tokens_in_flight() == 0;
  }

  std::uint64_t cap_;
  std::unique_ptr<model::Simulator<FuzzMachine>> sim_;
};

}  // namespace

std::unique_ptr<GoldenSession> make_fuzz_session(unsigned seed,
                                                 core::EngineOptions options,
                                                 std::uint64_t max_cycles) {
  return make_fuzz_session(
      std::make_unique<model::Simulator<FuzzMachine>>(
          fuzz_model_name(seed), options,
          [seed](model::ModelBuilder<FuzzMachine>& b, FuzzMachine& m) {
            describe_fuzz_model(seed, b, m);
          },
          FuzzMachine{}),
      max_cycles);
}

std::unique_ptr<GoldenSession> make_fuzz_session(
    std::unique_ptr<model::Simulator<FuzzMachine>> sim, std::uint64_t max_cycles) {
  return std::make_unique<FuzzSession>(std::move(sim), max_cycles);
}

}  // namespace rcpn::machines
