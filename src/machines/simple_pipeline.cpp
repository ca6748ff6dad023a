#include "machines/simple_pipeline.hpp"

#include "desc/delegate_registry.hpp"
#include "machines/golden_session.hpp"

namespace rcpn::machines {

using core::FireCtx;

bool fig2_u1_guard(Fig2Machine& m, FireCtx&) { return m.generated < m.to_generate; }

void fig2_u1_action(Fig2Machine& m, FireCtx& ctx) {
  core::InstructionToken* t = ctx.engine->acquire_pooled_instruction();
  t->type = (m.generated % 2 == 0) ? m.ty_a : m.ty_b;
  ++m.generated;
  ctx.engine->emit_instruction(t, m.l1);
}

const desc::DelegateRegistry& fig2_delegates() {
  static const desc::DelegateRegistry reg = [] {
    desc::DelegateRegistry r("rcpn::machines::Fig2Machine",
                             {"machines/simple_pipeline.hpp"});
    auto d = r.bind<Fig2Machine>();
    d.guard<&fig2_u1_guard>("rcpn::machines::fig2_u1_guard", desc::TokenUse::none);
    d.action<&fig2_u1_action>("rcpn::machines::fig2_u1_action", desc::TokenUse::none);
    return r;
  }();
  return reg;
}

void bind_fig2_context(const core::Net& net, Fig2Machine& m) {
  m.ty_a = net.find_type("A");
  m.ty_b = net.find_type("B");
  m.l1 = net.find_place("L1");
}

SimplePipeline::SimplePipeline(std::uint64_t to_generate, core::EngineOptions options)
    : sim_(
          "Fig2", options,
          [this](model::ModelBuilder<Fig2Machine>& b, Fig2Machine&) {
            b.use_delegates(fig2_delegates());
            const model::StageHandle s1 = b.add_stage("L1", 1);
            const model::StageHandle s2 = b.add_stage("L2", 1);
            l1_ = b.add_place("L1", s1);
            l2_ = b.add_place("L2", s2);
            type_a_ = b.add_type("A");
            type_b_ = b.add_type("B");

            u2_ = b.add_transition("U2", type_a_).from(l1_).to(l2_);
            u3_ = b.add_transition("U3", type_a_).from(l2_).to(b.end());
            u4_ = b.add_transition("U4", type_b_).from(l1_).to(b.end());

            b.add_independent_transition("U1")
                .guard_ref("rcpn::machines::fig2_u1_guard")
                .action_ref("rcpn::machines::fig2_u1_action")
                .to(l1_);
          },
          Fig2Machine{to_generate, 0, core::kNoType, core::kNoType, core::kNoPlace}) {
  bind_fig2_context(sim_.net(), sim_.machine());
}

std::uint64_t SimplePipeline::run(std::uint64_t max_cycles) {
  return sim_.drain([](const Fig2Machine& m) { return m.generated >= m.to_generate; },
                    max_cycles);
}

namespace {

class Fig2Session final : public SessionBase {
 public:
  explicit Fig2Session(std::unique_ptr<SimplePipeline> sim) : sim_(std::move(sim)) {
    record_golden_retires(sim_->engine(), trace_);
  }

  core::Engine& engine() override { return sim_->engine(); }

  bool advance(std::uint64_t cycles) override {
    if (finished()) return false;
    sim_->run(cycles);
    return !finished();
  }

  std::string machine_key() const override { return "fig2"; }
  std::string workload_id() const override { return "golden-64"; }

  void save_machine(ckpt::StateWriter& w, const ckpt::RefCoder&) const override {
    w.begin("fig2").field("generated", sim_->machine().generated).end();
  }

  void restore_machine(ckpt::StateReader& r, const ckpt::RefCoder&) override {
    r.next("fig2");
    sim_->machine().generated = r.get_u64("generated");
  }

 private:
  bool finished() {
    return engine_stopped() ||
           (sim_->machine().generated >= sim_->machine().to_generate &&
            sim_->engine().tokens_in_flight() == 0);
  }

  std::unique_ptr<SimplePipeline> sim_;
};

}  // namespace

std::unique_ptr<GoldenSession> golden_session_fig2(core::EngineOptions options) {
  return golden_session_fig2(std::make_unique<SimplePipeline>(64, options));
}

std::unique_ptr<GoldenSession> golden_session_fig2(std::unique_ptr<SimplePipeline> sim) {
  return std::make_unique<Fig2Session>(std::move(sim));
}

}  // namespace rcpn::machines
