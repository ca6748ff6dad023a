#include "machines/strongarm.hpp"

#include <cassert>

#include "desc/delegate_registry.hpp"
#include "workloads/workloads.hpp"

namespace rcpn::machines {

using arm::OpClass;
using core::FireCtx;

StrongArmConfig::StrongArmConfig() {
  // SA-110: 16 KiB / 32-way / 32 B-line caches; ~180 ns memory at 200 MHz.
  mem.icache = {16 * 1024, 32, 32, 1, 24, true};
  mem.dcache = {16 * 1024, 32, 32, 1, 24, true};
}

StrongArmSim::StrongArmSim(StrongArmConfig config)
    : cfg_(std::move(config)),
      sim_(
          "StrongArm", cfg_.engine,
          [this](model::ModelBuilder<ArmPipeMachine>& b, ArmPipeMachine& mc) {
            describe(b, mc);
          },
          // multi_writer: the SA-110 is in-order with a single pipe, so
          // writebacks are naturally ordered and back-to-back writers of the
          // same register (most importantly consecutive CPSR setters in
          // compare/branch loops) do not stall — a single-writer scoreboard
          // would over-serialize them by the full pipeline depth.
          ArmMachine::Config{cfg_.mem, regfile::WritePolicy::multi_writer}) {
  bind_strongarm_context(sim_.net(), sim_.machine());
}

void bind_strongarm_context(const core::Net& net, ArmPipeMachine& mc) {
  mc.env.fwd = {net.find_place("EM"), net.find_place("MW")};
  mc.env.flush_on_redirect = {net.find_stage("FD")};
  mc.env.drain = {net.find_place("DE"), net.find_place("EM"), net.find_place("MW")};
  mc.env.fetch_into = net.find_place("FD");
  mc.env.use_predictor = false;
}

void StrongArmSim::describe(model::ModelBuilder<ArmPipeMachine>& b, ArmPipeMachine&) {
  b.use_delegates(arm_pipe_delegates());
  const model::StageHandle sFD = b.add_stage("FD", 1);
  const model::StageHandle sDE = b.add_stage("DE", 1);
  const model::StageHandle sEM = b.add_stage("EM", 1);
  const model::StageHandle sMW = b.add_stage("MW", 1);
  const model::PlaceHandle fd = b.add_place("FD", sFD);
  const model::PlaceHandle de = b.add_place("DE", sDE);
  const model::PlaceHandle em = b.add_place("EM", sEM);
  const model::PlaceHandle mw = b.add_place("MW", sMW);

  // ALU results forward out of EM in the same cycle (E->D bypass, 0-bubble
  // back-to-back ALU). MW stays on the engine's default two-list analysis:
  // load/multiply results become visible one cycle after entering MW, giving
  // the SA-110's one-cycle load-use penalty.
  b.force_two_list(sEM, false);

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

    b.add_transition("D." + name, ty)
        .from(fd)
        .guard_ref("rcpn::machines::pipe_issue_guard")
        .action_ref("rcpn::machines::pipe_issue_action")
        .to(de)
        .reads_state(em)
        .reads_state(mw);
    b.add_transition("E." + name, ty)
        .from(de)
        .action_ref("rcpn::machines::pipe_execute_action")
        .to(em);
    b.add_transition("M." + name, ty)
        .from(em)
        .action_ref("rcpn::machines::pipe_mem_publish_action")
        .to(mw);
    b.add_transition("W." + name, ty)
        .from(mw)
        .action_ref("rcpn::machines::pipe_wb_action")
        .to(b.end());
  }

  b.add_independent_transition("F")
      .guard_ref("rcpn::machines::pipe_fetch_guard")
      .action_ref("rcpn::machines::pipe_fetch_action")
      .to(fd);
}

RunResult StrongArmSim::run(const sys::Program& program, std::uint64_t max_cycles) {
  // load() drains leftover tokens from a previous run *before* the machine's
  // load_program clears the decode cache that owns them.
  sim_.load(program);
  machine().dcache.set_bypass(cfg_.decode_cache_bypass);
  sim_.run(max_cycles);
  return collect_result(sim_.engine(), machine());
}

void StrongArmSim::begin(const sys::Program& program) {
  // Same ordering as run(): load() drains leftover tokens before load_program
  // clears the decode cache that owns them.
  sim_.load(program);
  machine().dcache.set_bypass(cfg_.decode_cache_bypass);
}

RunResult collect_result(const core::Engine& eng, const ArmMachine& m) {
  RunResult r;
  r.cycles = eng.stats().cycles;
  r.instructions = eng.stats().retired;
  r.cpi = eng.stats().cpi();
  r.output = m.sys.output();
  r.exit_code = m.sys.exit_code();
  r.exited = m.sys.exited();
  r.icache_misses = m.mem.icache().stats().misses;
  r.dcache_misses = m.mem.dcache().stats().misses;
  r.icache_hit_ratio = m.mem.icache().stats().hit_ratio();
  r.dcache_hit_ratio = m.mem.dcache().stats().hit_ratio();
  r.mispredicts = m.mispredicts;
  return r;
}

namespace {

// The golden crc program, assembled once per process on first use.
const sys::Program& crc_program() {
  static const sys::Program program =
      workloads::build(*workloads::find("crc"), /*scale=*/1);
  return program;
}

}  // namespace

std::unique_ptr<GoldenSession> golden_session_strongarm_crc(core::EngineOptions options) {
  StrongArmConfig cfg;
  cfg.engine = options;
  return golden_session_strongarm_crc(std::make_unique<StrongArmSim>(cfg));
}

std::unique_ptr<GoldenSession> golden_session_strongarm_crc(
    std::unique_ptr<StrongArmSim> sim) {
  return std::make_unique<ArmGoldenSession<StrongArmSim>>(
      std::move(sim), "strongarm_crc", "crc-x1-1500", crc_program());
}

}  // namespace rcpn::machines
