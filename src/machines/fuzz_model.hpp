// Seeded random pipeline models — the fuzz generator as a library machine.
//
// A mt19937 seeded with `seed` drives every decision, so two constructions
// (or a construction in another process) produce byte-identical model
// descriptions: varying stage counts and capacities, place delays, fork/join
// edges, multi-issue fetch widths, guard mixes (periodic stalls, clock
// windows, state-referencing backpressure), token delay overrides,
// reservation emit/consume pairs, age-based flushes and looping topologies
// (bounded feedback arcs that force real token cycles through the SCC /
// two-list analysis).
//
// Every delegate is a *named* free function — the per-transition parameters
// the old closure captures carried (watched place, loop trip bound, flush
// victim) live in FuzzMachine arrays indexed by core::FireCtx::transition —
// so any seeded topology is fully emittable by gen::emit_simulator, as the
// engine TU and as the freestanding program. That is the point: the lockstep
// fuzz suite (tests/test_fuzz_lockstep.cpp) reaches the emitter with
// randomized models, not just the six curated machines.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "machines/golden_trace.hpp"
#include "model/model_builder.hpp"

namespace rcpn::model {
template <typename Machine>
class Simulator;
}

namespace rcpn::machines {

/// Default drain cap of a fuzz run when no explicit cycle budget is given —
/// shared with farm::effective_cycle_budget so a budget of 0 and an explicit
/// budget of this value describe (and hash as) the same simulation.
inline constexpr std::uint64_t kFuzzDrainCap = 25000;

struct FuzzMachine {
  std::uint64_t to_emit = 0;
  std::uint64_t emitted = 0;
  /// Counters mutated by generated actions; compared across backends at the
  /// end, so action *execution order* differences surface even when traces
  /// happen to agree.
  std::uint64_t actions_run = 0;
  std::uint64_t flushes = 0;
  /// Backward (feedback) arc traversals: per-shard loop-coverage evidence.
  std::uint64_t loops_taken = 0;

  /// Fetch parameters (filled by the model description).
  core::PlaceId entry = core::kNoPlace;
  std::vector<core::TypeId> fetch_types;

  /// Per-transition delegate parameters, indexed by the transition id the
  /// dispatch hands over in FireCtx::transition (watched place for
  /// backpressure guards, trip bound for loop guards, victim stage for flush
  /// actions). This is what replaces closure captures and keeps the model
  /// emittable.
  std::vector<std::int32_t> guard_param;
  std::vector<std::int32_t> action_param;
};

// -- named delegates (referenced by symbol in generated simulator sources) ----
bool fuzz_guard_periodic(core::FireCtx& ctx);
bool fuzz_guard_window(core::FireCtx& ctx);
bool fuzz_guard_backpressure(FuzzMachine& m, core::FireCtx& ctx);
bool fuzz_guard_loop(FuzzMachine& m, core::FireCtx& ctx);
bool fuzz_fetch_guard(FuzzMachine& m, core::FireCtx& ctx);
void fuzz_action_count(FuzzMachine& m, core::FireCtx& ctx);
void fuzz_action_delay(core::FireCtx& ctx);
void fuzz_action_flush(FuzzMachine& m, core::FireCtx& ctx);
void fuzz_action_loop(FuzzMachine& m, core::FireCtx& ctx);
void fuzz_fetch_action(FuzzMachine& m, core::FireCtx& ctx);

/// The fuzz DelegateRegistry: symbol -> typed binding for every delegate
/// above (mixed machine/ctx arities), plus the emission metadata.
const desc::DelegateRegistry& fuzz_delegates();

/// Build the random pipeline model of `seed` into `b`, recording the
/// delegate parameters into `m`. Some seeds carry a two-list ablation as a
/// model edit: seed % 7 == 3 pins every stage two-list, seed % 5 == 4
/// declares no reads_state.
void describe_fuzz_model(unsigned seed, model::ModelBuilder<FuzzMachine>& b,
                         FuzzMachine& m);

/// The options a seed runs under: `backend` and the fuzz watchdog limit.
/// Every seed gets the same; its schedule is part of its model.
core::EngineOptions fuzz_options_for(unsigned seed, core::Backend backend);

/// Model (net) name of a seed, e.g. "fuzz-7".
std::string fuzz_model_name(unsigned seed);

/// The seed a fuzz model name spells. Accepts exactly the names
/// fuzz_model_name prints: "fuzz-" and a decimal seed with no sign, no
/// leading zero and no trailing text, at most 4294967295. Every parser of
/// "fuzz-<n>" keys (farm jobs, rcpn_emit, the description loader) uses this.
std::optional<unsigned> parse_fuzz_model_name(std::string_view name);

/// Golden-style session of a seed's model (machine key "fuzz-<seed>"):
/// construct it under `options` and, advanced in cycle chunks, run it until
/// every token drained; finish_session returns the retire trace + stats.
/// Advancing throws std::runtime_error if the model wedges (deadlock watchdog
/// / cycle cap). `max_cycles` overrides the drain cap (0 = the default 25000).
std::unique_ptr<GoldenSession> make_fuzz_session(unsigned seed,
                                                 core::EngineOptions options,
                                                 std::uint64_t max_cycles = 0);

/// The same session over a fuzz simulator the caller built; its net name
/// (fuzz_model_name of the seed) is the session's machine key. The
/// description loader (machines/desc_machines.hpp) hands over its described
/// model this way.
std::unique_ptr<GoldenSession> make_fuzz_session(
    std::unique_ptr<model::Simulator<FuzzMachine>> sim, std::uint64_t max_cycles = 0);

}  // namespace rcpn::machines
