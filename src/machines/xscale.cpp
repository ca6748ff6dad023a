#include "machines/xscale.hpp"

#include <cassert>

#include "desc/delegate_registry.hpp"
#include "workloads/workloads.hpp"

namespace rcpn::machines {

using arm::OpClass;
using core::FireCtx;

XScaleConfig::XScaleConfig() {
  // PXA250-class: 32 KiB / 32-way / 32 B-line caches, higher core:memory
  // clock ratio than the SA-110.
  mem.icache = {32 * 1024, 32, 32, 1, 40, true};
  mem.dcache = {32 * 1024, 32, 32, 1, 40, true};
}

XScaleSim::XScaleSim(XScaleConfig config)
    : cfg_(std::move(config)),
      sim_(
          "XScale", cfg_.engine,
          [this](model::ModelBuilder<ArmPipeMachine>& b, ArmPipeMachine& mc) {
            mc.m.bp = std::make_unique<predictor::Btb>(cfg_.btb_entries);
            describe(b, mc);
          },
          ArmMachine::Config{cfg_.mem, regfile::WritePolicy::multi_writer}) {
  bind_xscale_context(sim_.net(), sim_.machine());
}

void bind_xscale_context(const core::Net& net, ArmPipeMachine& mc) {
  mc.env.fwd = {net.find_place("X1"), net.find_place("X2"), net.find_place("D2"),
                net.find_place("M2")};
  mc.env.flush_on_redirect = {net.find_stage("F1"), net.find_stage("F2"),
                              net.find_stage("ID")};
  mc.env.drain = {net.find_place("RF"), net.find_place("X1"), net.find_place("X2"),
                  net.find_place("D1"), net.find_place("D2"), net.find_place("M1"),
                  net.find_place("M2")};
  mc.env.fetch_into = net.find_place("F1");
  mc.env.use_predictor = true;
}

void XScaleSim::describe(model::ModelBuilder<ArmPipeMachine>& b, ArmPipeMachine&) {
  b.use_delegates(arm_pipe_delegates());
  const model::StageHandle sF1 = b.add_stage("F1", 1);
  const model::StageHandle sF2 = b.add_stage("F2", 1);
  const model::StageHandle sID = b.add_stage("ID", 1);
  const model::StageHandle sRF = b.add_stage("RF", 1);
  const model::StageHandle sX1 = b.add_stage("X1", 1);
  const model::StageHandle sX2 = b.add_stage("X2", 1);
  const model::StageHandle sD1 = b.add_stage("D1", 1);
  const model::StageHandle sD2 = b.add_stage("D2", 1);
  const model::StageHandle sM1 = b.add_stage("M1", 1);
  const model::StageHandle sM2 = b.add_stage("M2", 1);
  const model::PlaceHandle f1 = b.add_place("F1", sF1);
  const model::PlaceHandle f2 = b.add_place("F2", sF2);
  const model::PlaceHandle id = b.add_place("ID", sID);
  const model::PlaceHandle rf = b.add_place("RF", sRF);
  const model::PlaceHandle x1 = b.add_place("X1", sX1);
  const model::PlaceHandle x2 = b.add_place("X2", sX2);
  const model::PlaceHandle d1 = b.add_place("D1", sD1);
  const model::PlaceHandle d2 = b.add_place("D2", sD2);
  const model::PlaceHandle m1 = b.add_place("M1", sM1);
  const model::PlaceHandle m2 = b.add_place("M2", sM2);

  // All four forwarding sources bypass combinationally within the cycle.
  b.force_two_list(sX1, false);
  b.force_two_list(sX2, false);
  b.force_two_list(sD2, false);
  b.force_two_list(sM2, false);

  // The per-class behaviours are shared *named* free functions over the typed
  // machine context (arm_machine.hpp), resolved through the shared
  // DelegateRegistry so the model is emittable as a standalone generated
  // simulator and loadable from a serialized description.
  for (unsigned c = 0; c < arm::kNumOpClasses; ++c) {
    const auto cls = static_cast<OpClass>(c);
    const std::string name = arm::op_class_name(cls);
    const model::TypeHandle ty = b.add_type(name);
    assert(ty.id() == static_cast<core::TypeId>(c));
    (void)ty;

    // Common front end: F2 and ID simply advance the (already decoded,
    // token-cached) instruction; RF is the issue point.
    b.add_transition("F2." + name, ty).from(f1).to(f2);
    b.add_transition("ID." + name, ty).from(f2).to(id);
    b.add_transition("RF." + name, ty)
        .from(id)
        .guard_ref("rcpn::machines::pipe_issue_guard")
        .action_ref("rcpn::machines::pipe_issue_action")
        .to(rf)
        .reads_state(x1)
        .reads_state(x2)
        .reads_state(d2)
        .reads_state(m2);

    switch (cls) {
      case OpClass::load_store:
      case OpClass::load_store_multiple:
        // Memory pipe: access (with cache delay) in D1, publish in D2.
        b.add_transition("D1." + name, ty)
            .from(rf)
            .action_ref("rcpn::machines::pipe_mem_action")
            .to(d1);
        b.add_transition("D2." + name, ty)
            .from(d1)
            .action_ref("rcpn::machines::pipe_publish_action")
            .to(d2);
        b.add_transition("DWB." + name, ty)
            .from(d2)
            .action_ref("rcpn::machines::pipe_wb_action")
            .to(b.end());
        break;
      case OpClass::multiply:
        // MAC pipe: M1 computes (iterating for wide multiplicands), M2
        // publishes for forwarding.
        b.add_transition("M1." + name, ty)
            .from(rf)
            .action_ref("rcpn::machines::pipe_execute_action")
            .to(m1);
        b.add_transition("M2." + name, ty)
            .from(m1)
            .action_ref("rcpn::machines::pipe_publish_action")
            .to(m2);
        b.add_transition("MWB." + name, ty)
            .from(m2)
            .action_ref("rcpn::machines::pipe_wb_action")
            .to(b.end());
        break;
      default:
        // Main pipe (data-processing, branches, SWI): X1 executes/resolves.
        b.add_transition("X1." + name, ty)
            .from(rf)
            .action_ref("rcpn::machines::pipe_execute_action")
            .to(x1);
        b.add_transition("X2." + name, ty).from(x1).to(x2);
        b.add_transition("XWB." + name, ty)
            .from(x2)
            .action_ref("rcpn::machines::pipe_wb_action")
            .to(b.end());
        break;
    }
  }

  b.add_independent_transition("F1")
      .guard_ref("rcpn::machines::pipe_fetch_guard")
      .action_ref("rcpn::machines::pipe_fetch_action")
      .to(f1);
}

RunResult XScaleSim::run(const sys::Program& program, std::uint64_t max_cycles) {
  // load() drains leftover tokens from a previous run *before* the machine's
  // load_program clears the decode cache that owns them.
  sim_.load(program);
  machine().dcache.set_bypass(cfg_.decode_cache_bypass);
  sim_.run(max_cycles);
  return collect_result(sim_.engine(), machine());
}

void XScaleSim::begin(const sys::Program& program) {
  // Same ordering as run(): load() drains leftover tokens before load_program
  // clears the decode cache that owns them.
  sim_.load(program);
  machine().dcache.set_bypass(cfg_.decode_cache_bypass);
}

namespace {

// The golden adpcm program, assembled once per process on first use.
const sys::Program& adpcm_program() {
  static const sys::Program program =
      workloads::build(*workloads::find("adpcm"), /*scale=*/1);
  return program;
}

}  // namespace

std::unique_ptr<GoldenSession> golden_session_xscale_adpcm(core::EngineOptions options) {
  XScaleConfig cfg;
  cfg.engine = options;
  return golden_session_xscale_adpcm(std::make_unique<XScaleSim>(cfg));
}

std::unique_ptr<GoldenSession> golden_session_xscale_adpcm(
    std::unique_ptr<XScaleSim> sim) {
  return std::make_unique<ArmGoldenSession<XScaleSim>>(
      std::move(sim), "xscale_adpcm", "adpcm-x1-1500", adpcm_program());
}

}  // namespace rcpn::machines
