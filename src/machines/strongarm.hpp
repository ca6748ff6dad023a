// StrongArm (SA-110) RCPN model: the paper's "simple five stage pipeline"
// (§5). Stages F, D, E, M, W with unit-capacity latches; operands issue at D
// with full bypass from the E and M output latches; no branch prediction
// (sequential fetch, redirect + fetch-side squash when a branch resolves in
// E). Six operation-class sub-nets, as in the paper's model — declared
// through model::ModelBuilder over the shared ArmPipeMachine context.
#pragma once

#include "machines/arm_machine.hpp"
#include "machines/golden_trace.hpp"
#include "model/simulator.hpp"

namespace rcpn::machines {

struct RunResult {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;  // retired architectural instructions
  double cpi = 0.0;
  std::string output;
  int exit_code = 0;
  bool exited = false;
  std::uint64_t icache_misses = 0;
  std::uint64_t dcache_misses = 0;
  std::uint64_t mispredicts = 0;
  double icache_hit_ratio = 0.0;
  double dcache_hit_ratio = 0.0;
};

struct StrongArmConfig {
  mem::MemorySystemConfig mem;  // defaults set in the constructor
  core::EngineOptions engine;
  /// Ablation: re-decode and re-bind on every fetch (no token cache).
  bool decode_cache_bypass = false;

  StrongArmConfig();
};

class StrongArmSim {
 public:
  explicit StrongArmSim(StrongArmConfig config = StrongArmConfig());

  /// Model-as-data construction: the same pipeline, loaded from a serialized
  /// description. `config.engine` selects the backend/schedule knobs (fold
  /// the description's own options in with desc::engine_options first).
  /// Defined in machines/desc_machines.cpp.
  StrongArmSim(const desc::Description& d, const desc::DelegateRegistry& registry,
               StrongArmConfig config);

  /// Run `program` to completion (SWI exit) or `max_cycles`.
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

  StrongArmConfig cfg_;
  model::Simulator<ArmPipeMachine> sim_;
};

/// Collect a RunResult from an engine + machine after a run.
RunResult collect_result(const core::Engine& eng, const ArmMachine& m);

/// Fill the pipeline-shape environment (forwarding sources, flush/drain
/// sets, fetch place) by name from the lowered net — shared by the
/// describe-callback and description-loaded construction paths.
void bind_strongarm_context(const core::Net& net, ArmPipeMachine& mc);

/// Golden-workload runner/inspector (key "strongarm_crc"): a fixed 1500-cycle
/// window of the crc kernel — long enough to cover icache/dcache misses,
/// hazards and branches, small enough to check in.
GoldenRunResult golden_run_strongarm_crc(core::EngineOptions options);
void golden_inspect_strongarm_crc(core::EngineOptions options,
                                  const GoldenInspectFn& fn);

/// Checkpointable golden session (same crc ×1 workload under the same
/// 1500-cycle budget; see machines/golden_trace.hpp).
std::unique_ptr<GoldenSession> golden_session_strongarm_crc(
    core::EngineOptions options);

/// The same session over a simulator the caller built: the description
/// loader (machines/desc_machines.hpp) hands over its described machine.
std::unique_ptr<GoldenSession> golden_session_strongarm_crc(
    std::unique_ptr<StrongArmSim> sim);

/// The straight golden workload (trace recording + crc window + stats) on a
/// caller-built simulator: golden_run_strongarm_crc's body, rerun by the reset tests.
GoldenRunResult golden_finish_strongarm_crc(StrongArmSim& sim);

}  // namespace rcpn::machines
