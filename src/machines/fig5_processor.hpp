// The paper's Figure 4/5 "representative out-of-order completion processor
// with a feedback path", reproduced literally:
//
//  * three operation classes — ALU {op, d, s1, s2}, LoadStore {L, r, addr},
//    Branch {offset} — with Register|Constant symbols (Fig 4b);
//  * the ALU sub-net's two prioritized issue transitions: priority 0 reads
//    s1 from the register file, priority 1 forwards it from state L3 via
//    canRead(L3)/read(L3) (the feedback path, used only for s1 as in §3.2);
//  * the Branch sub-net stalls fetch with a reservation token in L1 that B
//    consumes one cycle later;
//  * the LoadStore sub-net's M transition sets the token delay from
//    mem.delay(addr) (a small data cache), modeling data-dependent latency.
//
// L3 is circularly referenced, so the engine's analysis gives it the
// two-list algorithm — exactly the paper's example of the optimization.
//
// The model is declared through model::ModelBuilder; Fig5Machine is the
// typed context (register file, memories, decode cache, pc) the sub-net
// guards and actions receive.
#pragma once

#include "isa/decoder.hpp"
#include "machines/golden_trace.hpp"
#include "mem/cache.hpp"
#include "mem/memory.hpp"
#include "model/simulator.hpp"
#include "regfile/reg_ref.hpp"

namespace rcpn::machines {

struct Fig5Instr {
  enum class Kind : std::uint8_t { alu, load_store, branch };
  enum class AluOp : std::uint8_t { add, sub, mul, xor_op };

  Kind kind = Kind::alu;

  // ALU: d = s1 op (s2 | imm)
  AluOp op = AluOp::add;
  std::uint8_t d = 0;
  std::uint8_t s1 = 0;
  bool s2_is_imm = false;
  std::uint8_t s2 = 0;
  std::uint32_t imm = 0;

  // LoadStore: L ? r = mem[addr] : mem[addr] = r; addr is Register|Constant.
  bool is_load = true;
  std::uint8_t r = 0;
  bool addr_is_imm = true;
  std::uint8_t addr_reg = 0;
  std::uint32_t addr = 0;

  // Branch: target instruction index = own index + offset (unconditional,
  // as in Fig 4b where offset is the only symbol).
  std::int32_t offset = 0;

  // -- convenience constructors ------------------------------------------------
  static Fig5Instr alu(AluOp op, unsigned d, unsigned s1, unsigned s2);
  static Fig5Instr alui(AluOp op, unsigned d, unsigned s1, std::uint32_t imm);
  static Fig5Instr load(unsigned r, std::uint32_t addr);
  static Fig5Instr store(unsigned r, std::uint32_t addr);
  static Fig5Instr branch(std::int32_t offset);
};

/// Machine context of the Fig 4/5 model: architectural state plus the ids
/// the decode binding needs (operation classes, the fetch latch).
struct Fig5Machine {
  static constexpr unsigned kNumRegs = 8;

  Fig5Machine();
  Fig5Machine(const Fig5Machine&) = delete;
  Fig5Machine& operator=(const Fig5Machine&) = delete;

  /// Swap in a program and reset architectural + decode state (the engine is
  /// reset by Simulator::load before this runs).
  void load(std::vector<Fig5Instr> p);

  regfile::RegisterFile rf;
  mem::Memory mem;
  mem::Cache cache;
  isa::DecodeCache dcache;
  std::vector<Fig5Instr> program;
  std::uint32_t pc = 0;

  // Filled by the model description, consumed by the decode binding and the
  // named delegates (declaration order is deterministic, so the ids are the
  // same on every construction — which makes the delegates emittable).
  core::TypeId ty_alu = core::kNoType, ty_ls = core::kNoType, ty_br = core::kNoType;
  core::PlaceId fetch_into = core::kNoPlace;
  /// The L3 result latch the priority-1 issue path forwards from (§3.2).
  core::PlaceId fwd_from = core::kNoPlace;

  struct Payload;

 private:
  void bind(isa::DecodeCache::Entry& e);
};

// -- named delegates (referenced by symbol in generated simulator sources) ----
bool fig5_d0_guard(Fig5Machine& m, core::FireCtx& ctx);
void fig5_d0_action(Fig5Machine& m, core::FireCtx& ctx);
bool fig5_d1_guard(Fig5Machine& m, core::FireCtx& ctx);
void fig5_d1_action(Fig5Machine& m, core::FireCtx& ctx);
void fig5_alu_e_action(Fig5Machine& m, core::FireCtx& ctx);
void fig5_alu_we_action(Fig5Machine& m, core::FireCtx& ctx);
bool fig5_ls_d_guard(Fig5Machine& m, core::FireCtx& ctx);
void fig5_ls_d_action(Fig5Machine& m, core::FireCtx& ctx);
void fig5_ls_m_action(Fig5Machine& m, core::FireCtx& ctx);
void fig5_ls_wm_action(Fig5Machine& m, core::FireCtx& ctx);
bool fig5_br_d_guard(Fig5Machine& m, core::FireCtx& ctx);
void fig5_br_d_action(Fig5Machine& m, core::FireCtx& ctx);
void fig5_br_b_action(Fig5Machine& m, core::FireCtx& ctx);
bool fig5_fetch_guard(Fig5Machine& m, core::FireCtx& ctx);
void fig5_fetch_action(Fig5Machine& m, core::FireCtx& ctx);

/// The Fig 5 DelegateRegistry: symbol -> typed binding for every delegate
/// above, plus the emission metadata (machine type, header).
const desc::DelegateRegistry& fig5_delegates();

/// Fill the machine-context fields the delegates and the decode binding read
/// (operation-class ids, fetch latch, forward latch) by name from the
/// lowered net — shared by both construction paths.
void bind_fig5_context(const core::Net& net, Fig5Machine& m);

/// Golden session (key "fig5"): the fixed eight-instruction
/// hazard/branch/memory mix of tests/golden/fig5.trace, advanceable in cycle
/// chunks (see machines/golden_trace.hpp).
std::unique_ptr<GoldenSession> golden_session_fig5(core::EngineOptions options);

class Fig5Processor;

/// The same session over a simulator the caller built: the description
/// loader (machines/desc_machines.hpp) hands over its described machine.
std::unique_ptr<GoldenSession> golden_session_fig5(
    std::unique_ptr<Fig5Processor> sim);

class Fig5Processor {
 public:
  static constexpr unsigned kNumRegs = Fig5Machine::kNumRegs;

  explicit Fig5Processor(core::EngineOptions options = {});

  /// Model-as-data construction: the same machine, loaded from a serialized
  /// description (the fluent-handle accessors alu_issues_direct()/l1()/...
  /// are not available on this path). Defined in machines/desc_machines.cpp.
  Fig5Processor(const desc::Description& d, const desc::DelegateRegistry& registry,
                core::EngineOptions options);

  void load(std::vector<Fig5Instr> program) { sim_.load(std::move(program)); }
  /// Run until all tokens drain and fetch passes the end of the program.
  std::uint64_t run(std::uint64_t max_cycles = 1u << 20);

  std::uint32_t reg(unsigned i) const { return sim_.machine().rf.read_cell(i); }
  void set_reg(unsigned i, std::uint32_t v) { sim_.machine().rf.write_cell(i, v); }
  mem::Memory& memory() { return sim_.machine().mem; }
  mem::Cache& dcache() { return sim_.machine().cache; }

  core::Net& net() { return sim_.net(); }
  core::Engine& engine() { return sim_.engine(); }
  Fig5Machine& machine() { return sim_.machine(); }
  const Fig5Machine& machine() const { return sim_.machine(); }

  /// Paper-behaviour counters for tests: how often the feedback path
  /// (priority-1 issue) fired vs the register-file path.
  std::uint64_t alu_issues_direct() const { return sim_.fires(d0_); }
  std::uint64_t alu_issues_forwarded() const { return sim_.fires(d1_); }

  core::PlaceId l1() const { return l1_.id(); }
  core::PlaceId l2() const { return l2_.id(); }
  core::PlaceId l3() const { return l3_.id(); }
  core::PlaceId l4() const { return l4_.id(); }

 private:
  void describe(model::ModelBuilder<Fig5Machine>& b, Fig5Machine& m);

  model::PlaceHandle l1_, l2_, l3_, l4_;
  model::TransitionHandle d0_, d1_;
  model::Simulator<Fig5Machine> sim_;
};

}  // namespace rcpn::machines
