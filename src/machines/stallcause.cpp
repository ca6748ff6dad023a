#include "machines/stallcause.hpp"

#include "desc/delegate_registry.hpp"
#include "machines/golden_session.hpp"

namespace rcpn::machines {

using core::FireCtx;

void stallcause_tick_action(StallCauseMachine& m, FireCtx&) { ++m.counter; }

bool stallcause_fetch_guard(StallCauseMachine& m, FireCtx&) {
  return m.emitted < m.to_emit;
}

void stallcause_fetch_action(StallCauseMachine& m, FireCtx& ctx) {
  core::InstructionToken* t = ctx.engine->acquire_pooled_instruction();
  // The first token is the parker; everything after it is a worker.
  t->type = (m.emitted == 0) ? m.ty_parker : m.ty_worker;
  t->pc = static_cast<std::uint32_t>(m.emitted);
  ++m.emitted;
  ctx.engine->emit_instruction(t, m.into);
}

bool stallcause_park_exit_guard(StallCauseMachine& m, FireCtx&) {
  return m.counter >= StallCauseMachine::kParkUntil;
}

bool stallcause_escape_guard(StallCauseMachine& m, FireCtx&) {
  return m.counter >= StallCauseMachine::kEscapeAt;
}

const desc::DelegateRegistry& stallcause_delegates() {
  static const desc::DelegateRegistry reg = [] {
    desc::DelegateRegistry r("rcpn::machines::StallCauseMachine",
                             {"machines/stallcause.hpp"});
    auto d = r.bind<StallCauseMachine>();
    d.action<&stallcause_tick_action>("rcpn::machines::stallcause_tick_action",
                                        desc::TokenUse::none);
    d.guard<&stallcause_fetch_guard>("rcpn::machines::stallcause_fetch_guard",
                                       desc::TokenUse::none);
    d.action<&stallcause_fetch_action>("rcpn::machines::stallcause_fetch_action",
                                         desc::TokenUse::none);
    d.guard<&stallcause_park_exit_guard>("rcpn::machines::stallcause_park_exit_guard");
    d.guard<&stallcause_escape_guard>("rcpn::machines::stallcause_escape_guard");
    return r;
  }();
  return reg;
}

void bind_stallcause_context(const core::Net& net, StallCauseMachine& m) {
  m.ty_parker = net.find_type("Parker");
  m.ty_worker = net.find_type("Worker");
  m.into = net.find_place("PA");
}

StallCauseModel::StallCauseModel(std::uint64_t to_emit, core::EngineOptions options)
    : sim_(
          "StallCause", options,
          [this](model::ModelBuilder<StallCauseMachine>& b, StallCauseMachine&) {
            b.use_delegates(stallcause_delegates());
            const model::StageHandle sa = b.add_stage("PA", 1);
            const model::StageHandle sb = b.add_stage("PB", 1);
            const model::StageHandle sc = b.add_stage("PC", 1);
            pa_ = b.add_place("PA", sa);
            pb_ = b.add_place("PB", sb);
            pc_ = b.add_place("PC", sc);
            const model::TypeHandle parker = b.add_type("Parker");
            const model::TypeHandle worker = b.add_type("Worker");

            // Parker: straight into PB, then parked there until the ticker
            // releases it — the capacity pressure every worker sees.
            b.add_transition("PK.move", parker).from(pa_).to(pb_);
            b.add_transition("PK.exit", parker)
                .from(pb_)
                .guard_ref("rcpn::machines::stallcause_park_exit_guard")
                .to(b.end());

            // Worker in PA: candidate 0 is capacity-rejected (PB full),
            // candidate 1 is guard-rejected (until kEscapeAt) — the same
            // cycle, the same place, two different causes. Last one wins.
            b.add_transition("W.block", worker).from(pa_, /*priority=*/0).to(pb_);
            b.add_transition("W.escape", worker)
                .from(pa_, /*priority=*/1)
                .guard_ref("rcpn::machines::stallcause_escape_guard")
                .to(pc_);
            // Safety drain for a worker that ever does land in PB (never in
            // the golden workload: all workers escape before the parker
            // leaves) — keeps the net deadlock-free under other schedules.
            b.add_transition("W.drain", worker)
                .from(pb_)
                .guard_ref("rcpn::machines::stallcause_park_exit_guard")
                .to(b.end());
            b.add_transition("W.retire", worker).from(pc_).to(b.end());

            // Instruction-independent sub-net: the per-cycle ticker and the
            // one-token-per-cycle fetch.
            b.add_independent_transition("tick").action_ref(
                "rcpn::machines::stallcause_tick_action");
            b.add_independent_transition("fetch")
                .guard_ref("rcpn::machines::stallcause_fetch_guard")
                .action_ref("rcpn::machines::stallcause_fetch_action")
                .to(pa_);
          },
          StallCauseMachine{to_emit}) {
  bind_stallcause_context(sim_.net(), sim_.machine());
}

std::uint64_t StallCauseModel::run(std::uint64_t max_cycles) {
  return sim_.drain(
      [](const StallCauseMachine& m) { return m.emitted >= m.to_emit; }, max_cycles);
}

namespace {

class StallCauseSession final : public SessionBase {
 public:
  explicit StallCauseSession(std::unique_ptr<StallCauseModel> sim)
      : sim_(std::move(sim)) {
    record_golden_retires(sim_->engine(), trace_);
  }

  core::Engine& engine() override { return sim_->engine(); }

  bool advance(std::uint64_t cycles) override {
    if (finished()) return false;
    sim_->run(cycles);
    return !finished();
  }

  std::string machine_key() const override { return "stallcause"; }
  std::string workload_id() const override { return "golden-4"; }

  void save_machine(ckpt::StateWriter& w, const ckpt::RefCoder&) const override {
    const StallCauseMachine& m = sim_->machine();
    w.begin("stallcause")
        .field("emitted", m.emitted)
        .field("counter", m.counter)
        .end();
  }

  void restore_machine(ckpt::StateReader& r, const ckpt::RefCoder&) override {
    StallCauseMachine& m = sim_->machine();
    r.next("stallcause");
    m.emitted = r.get_u64("emitted");
    m.counter = r.get_u64("counter");
  }

 private:
  bool finished() {
    return engine_stopped() ||
           (sim_->machine().emitted >= sim_->machine().to_emit &&
            sim_->engine().tokens_in_flight() == 0);
  }

  std::unique_ptr<StallCauseModel> sim_;
};

}  // namespace

std::unique_ptr<GoldenSession> golden_session_stallcause(core::EngineOptions options) {
  return golden_session_stallcause(std::make_unique<StallCauseModel>(4, options));
}

std::unique_ptr<GoldenSession> golden_session_stallcause(
    std::unique_ptr<StallCauseModel> sim) {
  return std::make_unique<StallCauseSession>(std::move(sim));
}

}  // namespace rcpn::machines
