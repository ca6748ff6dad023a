// XScale RCPN model: the paper's Fig 9 pipeline — "in-order execution,
// out-of-order completion processor with a relatively complex pipeline".
//
//   F1 -> F2 -> ID -> RF -+-> X1 -> X2 -> XWB   (main execute pipe)
//                         +-> D1 -> D2 -> DWB   (memory pipe)
//                         +-> M1 -> M2 -> MWB   (MAC pipe)
//
// Issue (operand read + reservations) happens entering RF; branches resolve
// leaving RF with a BTB (128 entries) predicting at fetch — a mispredict
// squashes the fetch side for the XScale's ~4-cycle penalty. The three pipes
// complete out of order; the register file runs the multi-writer policy so
// an older slow writer cannot clobber a newer value (paper §3.1's renaming
// remark). Declared through model::ModelBuilder over ArmPipeMachine.
#pragma once

#include "machines/arm_machine.hpp"
#include "machines/golden_trace.hpp"
#include "machines/strongarm.hpp"  // RunResult / collect_result
#include "model/simulator.hpp"

namespace rcpn::machines {

struct XScaleConfig {
  mem::MemorySystemConfig mem;
  core::EngineOptions engine;
  std::uint32_t btb_entries = 128;
  bool decode_cache_bypass = false;

  XScaleConfig();
};

class XScaleSim {
 public:
  explicit XScaleSim(XScaleConfig config = XScaleConfig());

  /// Model-as-data construction: the same pipeline, loaded from a serialized
  /// description. `config.engine` selects the backend/schedule knobs (fold
  /// the description's own options in with desc::engine_options first).
  /// Defined in machines/desc_machines.cpp.
  XScaleSim(const desc::Description& d, const desc::DelegateRegistry& registry,
            XScaleConfig config);

  RunResult run(const sys::Program& program, std::uint64_t max_cycles = ~0ull);

  /// Checkpoint-session support: load `program` (same ordering as run())
  /// without running anything.
  void begin(const sys::Program& program);
  /// Continue an in-progress run for up to `cycles` more cycles.
  void advance(std::uint64_t cycles) { sim_.run(cycles); }

  core::Net& net() { return sim_.net(); }
  core::Engine& engine() { return sim_.engine(); }
  ArmMachine& machine() { return sim_.machine().m; }
  const ArmMachine& machine() const { return sim_.machine().m; }

 private:
  void describe(model::ModelBuilder<ArmPipeMachine>& b, ArmPipeMachine& mc);

  XScaleConfig cfg_;
  model::Simulator<ArmPipeMachine> sim_;
};

/// Fill the pipeline-shape environment (forwarding sources, flush/drain
/// sets, fetch place) by name from the lowered net — shared by the
/// describe-callback and description-loaded construction paths.
void bind_xscale_context(const core::Net& net, ArmPipeMachine& mc);

/// Golden-workload runner/inspector (key "xscale_adpcm"): a fixed 1500-cycle
/// window of the adpcm kernel.
GoldenRunResult golden_run_xscale_adpcm(core::EngineOptions options);
void golden_inspect_xscale_adpcm(core::EngineOptions options,
                                 const GoldenInspectFn& fn);

/// Checkpointable golden session (same adpcm ×1 workload under the same
/// 1500-cycle budget; see machines/golden_trace.hpp).
std::unique_ptr<GoldenSession> golden_session_xscale_adpcm(
    core::EngineOptions options);

/// The same session over a simulator the caller built: the description
/// loader (machines/desc_machines.hpp) hands over its described machine.
std::unique_ptr<GoldenSession> golden_session_xscale_adpcm(
    std::unique_ptr<XScaleSim> sim);

/// The straight golden workload (trace recording + adpcm window + stats) on a
/// caller-built simulator: golden_run_xscale_adpcm's body, rerun by the reset tests.
GoldenRunResult golden_finish_xscale_adpcm(XScaleSim& sim);

}  // namespace rcpn::machines
