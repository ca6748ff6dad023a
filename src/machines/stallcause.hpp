// Stall-cause attribution fixture (golden key "stallcause"): a tiny model
// whose entire purpose is to pin the *last-candidate-wins* tie-break of
// core::Stats::place_stall_causes across all four backends.
//
// One parker token is sent ahead and parked in PB (its exit guard holds it
// until the ticker counter reaches kParkUntil). Each worker token then stalls
// in PA with TWO candidate transitions rejecting it in the same cycle for
// DIFFERENT causes:
//   * W.block  (priority 0, PA -> PB, no guard)   — capacity_backpressure,
//     because the parked token fills PB's one-slot stage;
//   * W.escape (priority 1, PA -> PC, counter>=N) — guard_rejected, until the
//     ticker reaches kEscapeAt.
// The candidate scan visits priority order 0 then 1, so the recorded cause
// for PA must be guard_rejected and the capacity_backpressure counter for PA
// must stay zero — a first-candidate-wins implementation would record the
// exact opposite, which is what makes this workload a discriminating pin.
//
// All delegates are named free functions, so the model is emittable as a
// generated/freestanding simulator like every other golden machine.
#pragma once

#include "machines/golden_trace.hpp"
#include "model/simulator.hpp"

namespace rcpn::machines {

/// Machine context: the emission counters, the ticker the guards compare
/// against, and the ids the named delegates read (filled by the description;
/// declaration order is deterministic, so they are identical on every
/// construction — which is what makes the delegates emittable).
struct StallCauseMachine {
  /// Ticker value the workers' escape guard waits for.
  static constexpr std::uint64_t kEscapeAt = 6;
  /// Ticker value the parker's exit guard waits for (after every worker has
  /// escaped, so W.block can never actually fire in the golden workload).
  static constexpr std::uint64_t kParkUntil = 12;

  std::uint64_t to_emit = 0;
  std::uint64_t emitted = 0;
  /// Incremented once per cycle by the independent ticker transition.
  std::uint64_t counter = 0;
  core::TypeId ty_parker = core::kNoType;
  core::TypeId ty_worker = core::kNoType;
  core::PlaceId into = core::kNoPlace;
};

// -- named delegates (referenced by symbol in generated simulator sources) ----
void stallcause_tick_action(StallCauseMachine& m, core::FireCtx& ctx);
bool stallcause_fetch_guard(StallCauseMachine& m, core::FireCtx& ctx);
void stallcause_fetch_action(StallCauseMachine& m, core::FireCtx& ctx);
bool stallcause_park_exit_guard(StallCauseMachine& m, core::FireCtx& ctx);
bool stallcause_escape_guard(StallCauseMachine& m, core::FireCtx& ctx);

/// The StallCause DelegateRegistry: symbol -> typed binding for every
/// delegate above, plus the emission metadata (machine type, header).
const desc::DelegateRegistry& stallcause_delegates();

/// Fill the machine-context fields the delegates read (type ids, fetch
/// place) by name from the lowered net — shared by both construction paths.
void bind_stallcause_context(const core::Net& net, StallCauseMachine& m);

/// Golden-workload runner/inspector (key "stallcause"): one parker plus three
/// workers through the PA/PB/PC net of tests/golden/stallcause.trace.
GoldenRunResult golden_run_stallcause(core::EngineOptions options);
void golden_inspect_stallcause(core::EngineOptions options, const GoldenInspectFn& fn);

/// Checkpointable golden session (same parker+workers workload, advanceable
/// in cycle chunks; see machines/golden_trace.hpp).
std::unique_ptr<GoldenSession> golden_session_stallcause(core::EngineOptions options);

class StallCauseModel;

/// The same session over a simulator the caller built: the description
/// loader (machines/desc_machines.hpp) hands over its described machine.
std::unique_ptr<GoldenSession> golden_session_stallcause(
    std::unique_ptr<StallCauseModel> sim);

/// The straight golden workload (trace recording + run + stats) on a
/// caller-built simulator: golden_run_stallcause's body, rerun by the reset tests.
GoldenRunResult golden_finish_stallcause(StallCauseModel& sim);

class StallCauseModel {
 public:
  explicit StallCauseModel(std::uint64_t to_emit, core::EngineOptions options = {});

  /// Model-as-data construction: the same machine, loaded from a serialized
  /// description. Defined in machines/desc_machines.cpp.
  StallCauseModel(const desc::Description& d, const desc::DelegateRegistry& registry,
                  core::EngineOptions options, std::uint64_t to_emit);

  /// Run until everything emitted and drained (or `max_cycles`).
  std::uint64_t run(std::uint64_t max_cycles = 1u << 20);

  core::Net& net() { return sim_.net(); }
  core::Engine& engine() { return sim_.engine(); }
  StallCauseMachine& machine() { return sim_.machine(); }
  const StallCauseMachine& machine() const { return sim_.machine(); }

  core::PlaceId pa() const { return pa_.id(); }
  core::PlaceId pb() const { return pb_.id(); }
  core::PlaceId pc() const { return pc_.id(); }

 private:
  model::PlaceHandle pa_, pb_, pc_;
  model::Simulator<StallCauseMachine> sim_;
};

}  // namespace rcpn::machines
