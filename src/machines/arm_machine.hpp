// Shared machine context + instruction behaviour for the ARM pipeline models
// (StrongArm §5 / XScale Fig 9).
//
// The paper's recipe: each operation class has a sub-net; decode binds the
// class's symbols (Register -> RegRef, Constant -> Const, µ-op -> semantic
// function) producing a customized sub-net instance carried by the token.
// This file implements the per-class issue/execute/mem/writeback behaviours
// once; the two pipeline models instantiate them as transitions over their
// own stage structure, and run their golden workloads through one session
// template (ArmGoldenSession).
#pragma once

#include <memory>
#include <vector>

#include "arm/arm_isa.hpp"
#include "core/engine.hpp"
#include "isa/decoder.hpp"
#include "machines/golden_session.hpp"
#include "mem/memory_system.hpp"
#include "predictor/predictor.hpp"
#include "regfile/reg_ref.hpp"
#include "sys/program.hpp"
#include "sys/syscalls.hpp"

namespace rcpn::machines {

/// Decode payload: the static decode result plus the per-dynamic-instance
/// scratch the sub-net transitions communicate through. Token, decode-cache
/// entry and payload are 1:1, so per-instance state is safe here.
struct ArmPayload final : isa::Payload {
  arm::DecodedInstruction d;

  // -- per-instance state (written before read on every execution) ----------
  bool nullified = false;  // condition failed at issue
  bool resolved = false;   // branch reached its resolve transition
  std::uint32_t ea = 0;    // load/store effective address
  std::uint32_t result = 0;     // deferred result (mul)
  std::uint32_t pred_next = 0;  // next-pc predicted at fetch
  std::uint32_t base_after = 0; // base register after auto-index / LSM
  bool base_wb = false;

  // Load/store-multiple: one RegRef per listed register (owned by the decode
  // cache entry). r15 never appears here; has_pc flags a pop-to-pc.
  std::vector<regfile::RegRef*> list_refs;
  bool has_pc = false;
  std::uint32_t loaded_pc = 0;

  // -- partially-evaluated issue plan (static; built at decode) --------------
  // The customized sub-net instance of the paper: only the register symbols
  // that actually bind to RegRefs appear here, so the per-cycle hazard check
  // walks a handful of direct (devirtualized) RegRef operations and constant
  // operands cost nothing.
  regfile::RegRef* reads[4] = {};
  unsigned n_reads = 0;
  regfile::RegRef* reserves[4] = {};
  unsigned n_reserves = 0;
  regfile::RegRef* flags_ref = nullptr;  // CPSR
  bool check_cond = false;   // cond != AL
  bool read_flags = false;   // cond / carry-in / S-preserved bits / RRX offset
  bool write_flags = false;  // S bit
  bool base_wb_static = false;  // auto-index / LSM writeback commits the base
  bool needs_class_guard = false;  // LSM lists, SWI / pop-to-pc drains
};

/// Fixed operand-slot meanings for the ARM models (see isa::OperandSlot).
/// dst=rd (or lr for BL; also the store data register), src1=rn,
/// src2=rm, src3=rs, flags=CPSR.

class ArmMachine {
 public:
  struct Config {
    mem::MemorySystemConfig mem;
    regfile::WritePolicy policy = regfile::WritePolicy::single_writer;
  };

  explicit ArmMachine(const Config& config);
  ArmMachine(const ArmMachine&) = delete;
  ArmMachine& operator=(const ArmMachine&) = delete;

  /// Load a program and reset all architectural + micro-architectural state.
  void load_program(const sys::Program& program);

  static ArmPayload& payload(core::InstructionToken& t) {
    return *static_cast<ArmPayload*>(t.payload);
  }

  regfile::RegisterFile rf;
  mem::MemorySystem mem;
  sys::SyscallHandler sys;
  isa::DecodeCache dcache;
  std::unique_ptr<predictor::BranchPredictor> bp;  // models install one
  std::uint32_t pc = 0;

  // model statistics
  std::uint64_t nullified_count = 0;
  std::uint64_t mispredicts = 0;
  std::uint64_t taken_branches = 0;

 private:
  /// DecodeCache factory: decode + bind operands (partial evaluation).
  void bind(isa::DecodeCache::Entry& e);
};

/// Environment a pipeline model passes to the shared behaviours: where
/// results can be forwarded from and which stages to flush on redirect.
struct PipeEnv {
  ArmMachine* m = nullptr;
  /// Forwarding-source places: an operand whose newest in-flight writer sits
  /// in one of them, with its value produced, reads that value (paper §3.1).
  std::vector<core::PlaceId> fwd;
  /// Fetch-side stages squashed when a branch redirects.
  std::vector<core::StageId> flush_on_redirect;
  /// Places that must be empty before a serializing instruction (SWI,
  /// pop-to-pc) may issue — i.e. all downstream pipeline latches.
  std::vector<core::PlaceId> drain;
  /// Where the independent fetch transition emits instruction tokens.
  core::PlaceId fetch_into = core::kNoPlace;
  bool use_predictor = false;
};

/// Machine context of the model::Simulator-based ARM pipeline models: the
/// shared architectural machine plus the pipeline-shape environment the
/// per-class behaviours read. Guards and actions receive it typed.
struct ArmPipeMachine {
  explicit ArmPipeMachine(const ArmMachine::Config& config) : m(config) { env.m = &m; }
  // env.m points back into this object: copying would alias the original.
  ArmPipeMachine(const ArmPipeMachine&) = delete;
  ArmPipeMachine& operator=(const ArmPipeMachine&) = delete;

  /// Simulator::load entry point (the engine was already reset).
  void load(const sys::Program& program) { m.load_program(program); }

  ArmMachine m;
  PipeEnv env;
};

// -- shared per-class behaviours (used as transition guards/actions) ----------

/// Issue: hazard checks (paper §3.1 interface pairing) for the token's class.
bool issue_guard(const PipeEnv& env, core::FireCtx& ctx);
/// Issue: read sources, take write reservations, compute addresses.
void issue_action(const PipeEnv& env, core::FireCtx& ctx);

/// Execute: ALU result / branch resolve + redirect / SWI / mul start.
void execute_action(const PipeEnv& env, core::FireCtx& ctx);

/// Memory access: functional load/store (+ LSM burst) with the cache delay
/// applied as a token delay (the paper's t.delay = mem.delay(addr)). With
/// `publish` the load/mul result also becomes forwardable immediately
/// (single-transition memory stage as in the 5-stage StrongArm); without it,
/// publish_action exposes the value in a later stage (XScale's D2/M2).
void mem_action(const PipeEnv& env, core::FireCtx& ctx, bool publish);

/// Expose a deferred load/multiply result for forwarding.
void publish_action(const PipeEnv& env, core::FireCtx& ctx);

/// Writeback: commit every reservation this instruction holds.
void wb_action(const PipeEnv& env, core::FireCtx& ctx);

/// Instruction-independent fetch: predict, decode (cached), emit the token
/// into env.fetch_into.
void fetch_action(const PipeEnv& env, core::FireCtx& ctx);

// -- named delegates over the typed ArmPipeMachine context --------------------
// The emittable registration form the StrongArm and XScale models use: each
// wraps one shared per-class behaviour above, with the pipeline-shape
// environment taken from the machine context. gen::emit_simulator references
// them by symbol and calls them directly in the generated simulator.
bool pipe_issue_guard(ArmPipeMachine& m, core::FireCtx& ctx);
void pipe_issue_action(ArmPipeMachine& m, core::FireCtx& ctx);
void pipe_execute_action(ArmPipeMachine& m, core::FireCtx& ctx);
/// Memory access that also publishes the result (StrongArm's single M stage).
void pipe_mem_publish_action(ArmPipeMachine& m, core::FireCtx& ctx);
/// Memory access only; pipe_publish_action exposes the value later (XScale).
void pipe_mem_action(ArmPipeMachine& m, core::FireCtx& ctx);
void pipe_publish_action(ArmPipeMachine& m, core::FireCtx& ctx);
void pipe_wb_action(ArmPipeMachine& m, core::FireCtx& ctx);
bool pipe_fetch_guard(ArmPipeMachine& m, core::FireCtx& ctx);
void pipe_fetch_action(ArmPipeMachine& m, core::FireCtx& ctx);

}  // namespace rcpn::machines

namespace rcpn::desc {
class DelegateRegistry;
}

namespace rcpn::machines {

/// The shared ArmPipeMachine DelegateRegistry used by both the StrongArm and
/// XScale models: symbol -> typed binding for every pipe_* delegate above,
/// plus the emission metadata (machine type, header).
const desc::DelegateRegistry& arm_pipe_delegates();

// -- checkpoint support (shared by the StrongArm and XScale sessions) ---------

/// ArmMachine context serialization: architectural registers, memory pages,
/// both timing caches, the syscall capture, the predictor (when installed)
/// and the fetch cursor/statistics. Defined in machines/arm_ckpt.cpp.
void save_arm_machine(ckpt::StateWriter& w, const ArmMachine& m,
                      const ckpt::RefCoder& refs);
void restore_arm_machine(ckpt::StateReader& r, ArmMachine& m,
                         const ckpt::RefCoder& refs);

/// ArmPayload per-instance state beyond the core token fields (issue/resolve
/// latches, effective address, deferred result, predicted next-pc, ...).
void save_arm_token_extra(ckpt::StateWriter& w, const core::InstructionToken& t);
void restore_arm_token_extra(ckpt::StateReader& r, core::InstructionToken& t);

/// RegRef enumeration covering the fixed operand slots plus the out-of-band
/// load/store-multiple register-list refs.
unsigned arm_num_reg_refs(const core::InstructionToken& t);
regfile::RegRef* arm_reg_ref(const core::InstructionToken& t, unsigned i);

/// The golden session of both ARM pipeline models (Sim = StrongArmSim or
/// XScaleSim): `program` loaded by Sim::begin and run under a fixed
/// 1500-cycle budget — long enough to cover icache/dcache misses, hazards
/// and branches, small enough to check in.
template <typename Sim>
class ArmGoldenSession final : public SessionBase {
 public:
  ArmGoldenSession(std::unique_ptr<Sim> sim, const char* key, const char* workload,
                   const sys::Program& program)
      : sim_(std::move(sim)), key_(key), workload_(workload) {
    record_golden_retires(sim_->engine(), trace_);
    sim_->begin(program);
  }

  core::Engine& engine() override { return sim_->engine(); }

  bool advance(std::uint64_t cycles) override {
    if (finished()) return false;
    const std::uint64_t left = kBudget - sim_->engine().clock();
    sim_->advance(cycles < left ? cycles : left);
    return !finished();
  }

  std::string machine_key() const override { return key_; }
  std::string workload_id() const override { return workload_; }

  void save_machine(ckpt::StateWriter& w, const ckpt::RefCoder& refs) const override {
    save_arm_machine(w, sim_->machine(), refs);
  }
  void restore_machine(ckpt::StateReader& r, const ckpt::RefCoder& refs) override {
    restore_arm_machine(r, sim_->machine(), refs);
  }
  core::InstructionToken* materialize(std::uint64_t pc, std::uint32_t raw) override {
    return sim_->machine().dcache.get(static_cast<std::uint32_t>(pc), raw);
  }
  void save_token_extra(ckpt::StateWriter& w,
                        const core::InstructionToken& t) const override {
    save_arm_token_extra(w, t);
  }
  void restore_token_extra(ckpt::StateReader& r, core::InstructionToken& t) override {
    restore_arm_token_extra(r, t);
  }
  unsigned num_reg_refs(const core::InstructionToken& t) const override {
    return arm_num_reg_refs(t);
  }
  regfile::RegRef* reg_ref(const core::InstructionToken& t, unsigned i) const override {
    return arm_reg_ref(t, i);
  }

 private:
  static constexpr std::uint64_t kBudget = 1500;

  bool finished() {
    return engine_stopped() || sim_->engine().clock() >= kBudget;
  }

  std::unique_ptr<Sim> sim_;
  const char* key_;
  const char* workload_;
};

}  // namespace rcpn::machines
