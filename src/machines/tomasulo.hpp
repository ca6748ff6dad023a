// Tomasulo-style out-of-order core as an RCPN — the extension example the
// paper's technical report ([5]) describes ("RCPN model of the Tomasulo
// algorithm"). Demonstrates three capabilities the in-order models do not:
//
//  * a multi-capacity pipeline stage acting as a reservation station: tokens
//    *wait inside* the RS place until their operands arrive, and any ready
//    token may fire — out-of-order issue falls out of the enabling rule;
//  * register renaming via the multi-writer register file (paper §3.1: "the
//    implementation of these interfaces may vary based on architectural
//    features such as register renaming"): multiple in-flight writers of the
//    same architectural register are legal, consumers forward from the
//    newest;
//  * a common data bus modeled as a unit-capacity stage (CDB) that
//    serializes result broadcast/writeback.
//
// The ISA is the Fig 4(b) ALU class (op, d, s1, s2). Declared through
// model::ModelBuilder with TomasuloMachine as the typed context.
#pragma once

#include "isa/decoder.hpp"
#include "machines/fig5_processor.hpp"  // Fig5Instr
#include "machines/golden_trace.hpp"
#include "model/simulator.hpp"
#include "regfile/reg_ref.hpp"

namespace rcpn::machines {

/// Machine context: architectural state, decode binding, and the OoO-issue
/// observation counters the tests read.
struct TomasuloMachine {
  static constexpr unsigned kNumRegs = 8;

  TomasuloMachine();
  TomasuloMachine(const TomasuloMachine&) = delete;
  TomasuloMachine& operator=(const TomasuloMachine&) = delete;

  void load(std::vector<Fig5Instr> p);

  regfile::RegisterFile rf;
  isa::DecodeCache dcache;
  std::vector<Fig5Instr> program;
  std::uint32_t pc = 0;
  std::uint32_t last_exec_seq = 0;
  bool observed_ooo = false;

  // Filled by the model description, consumed by the decode binding.
  core::TypeId ty_alu = core::kNoType;
  core::PlaceId fetch_into = core::kNoPlace;

  struct Payload;

 private:
  void bind(isa::DecodeCache::Entry& e);
};

// -- named delegates (referenced by symbol in generated simulator sources) ----
bool tomasulo_issue_guard(TomasuloMachine& m, core::FireCtx& ctx);
void tomasulo_issue_action(TomasuloMachine& m, core::FireCtx& ctx);
bool tomasulo_exec_guard(TomasuloMachine& m, core::FireCtx& ctx);
void tomasulo_exec_action(TomasuloMachine& m, core::FireCtx& ctx);
void tomasulo_bcast_action(TomasuloMachine& m, core::FireCtx& ctx);
void tomasulo_wb_action(TomasuloMachine& m, core::FireCtx& ctx);
bool tomasulo_fetch_guard(TomasuloMachine& m, core::FireCtx& ctx);
void tomasulo_fetch_action(TomasuloMachine& m, core::FireCtx& ctx);

/// The Tomasulo DelegateRegistry: symbol -> typed binding for every delegate
/// above, plus the emission metadata (machine type, header).
const desc::DelegateRegistry& tomasulo_delegates();

/// Fill the machine-context fields the decode binding reads by name from the
/// lowered net — shared by both construction paths.
void bind_tomasulo_context(const core::Net& net, TomasuloMachine& m);

/// Golden-workload runner/inspector (key "tomasulo"): the fixed
/// six-instruction dependent/independent mix of tests/golden/tomasulo.trace.
GoldenRunResult golden_run_tomasulo(core::EngineOptions options);
void golden_inspect_tomasulo(core::EngineOptions options, const GoldenInspectFn& fn);

/// Checkpointable golden session (same six-instruction workload, advanceable
/// in cycle chunks; see machines/golden_trace.hpp).
std::unique_ptr<GoldenSession> golden_session_tomasulo(core::EngineOptions options);

class TomasuloCore;

/// The same session over a simulator the caller built: the description
/// loader (machines/desc_machines.hpp) hands over its described machine.
std::unique_ptr<GoldenSession> golden_session_tomasulo(
    std::unique_ptr<TomasuloCore> sim);

/// The straight golden workload (trace recording + load + run + stats) on a
/// caller-built simulator: golden_run_tomasulo's body, rerun by the reset tests.
GoldenRunResult golden_finish_tomasulo(TomasuloCore& sim);

class TomasuloCore {
 public:
  static constexpr unsigned kNumRegs = TomasuloMachine::kNumRegs;

  /// `rs_entries`: reservation-station capacity; `num_fus`: execute slots.
  explicit TomasuloCore(unsigned rs_entries = 4, unsigned num_fus = 2,
                        core::EngineOptions options = {});

  /// Model-as-data construction: the same machine, loaded from a serialized
  /// description (RS/FU capacities come from the description's stages).
  /// Defined in machines/desc_machines.cpp.
  TomasuloCore(const desc::Description& d, const desc::DelegateRegistry& registry,
               core::EngineOptions options);

  void load(std::vector<Fig5Instr> program) { sim_.load(std::move(program)); }
  std::uint64_t run(std::uint64_t max_cycles = 1u << 20);

  std::uint32_t reg(unsigned i) const { return sim_.machine().rf.read_cell(i); }
  void set_reg(unsigned i, std::uint32_t v) { sim_.machine().rf.write_cell(i, v); }

  core::Net& net() { return sim_.net(); }
  core::Engine& engine() { return sim_.engine(); }
  TomasuloMachine& machine() { return sim_.machine(); }
  const TomasuloMachine& machine() const { return sim_.machine(); }

  /// Did any instruction begin execution before an older one? (proof of
  /// out-of-order issue for the tests)
  bool observed_ooo_issue() const { return sim_.machine().observed_ooo; }

 private:
  void describe(model::ModelBuilder<TomasuloMachine>& b, TomasuloMachine& m,
                unsigned rs_entries, unsigned num_fus);

  model::Simulator<TomasuloMachine> sim_;
};

}  // namespace rcpn::machines
