// Execution statistics collected by the engine: cycle counts, retired
// instructions (CPI), per-transition firing counts and per-place stall
// counts. These feed the Fig 10 / Fig 11 benchmark harnesses directly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace rcpn::core {

class Net;

/// Why a ready token failed to fire any of its candidate transitions this
/// cycle. Attribution follows the candidate scan: the *last* candidate's
/// failure reason wins (a token with zero candidates counts as
/// no_ready_token), identically in every backend — the lockstep tests compare
/// the per-place breakdown across engines.
enum class StallCause : std::uint8_t {
  /// No candidate matched, or a reservation-input token was missing/not ready.
  no_ready_token = 0,
  /// The transition's guard evaluated to false.
  guard_rejected = 1,
  /// An output stage lacked capacity (pipeline backpressure).
  capacity_backpressure = 2,
};

inline constexpr unsigned kNumStallCauses = 3;

const char* stall_cause_name(StallCause c);

struct Stats {
  std::uint64_t cycles = 0;
  /// Instruction tokens that reached the virtual end stage.
  std::uint64_t retired = 0;
  /// Instruction tokens emitted into the net (fetch).
  std::uint64_t fetched = 0;
  /// Instruction tokens squashed by flushes.
  std::uint64_t squashed = 0;
  /// Reservation tokens created.
  std::uint64_t reservations = 0;
  /// Total transition firings (instruction + independent).
  std::uint64_t firings = 0;
  /// Always 0: the engine steps every cycle. Kept because the repository
  /// benchmark's count lines print it (perfbench/src/arm_workloads.cpp).
  std::uint64_t quiesced_cycles = 0;

  std::vector<std::uint64_t> transition_fires;  // indexed by TransitionId
  std::vector<std::uint64_t> place_stalls;      // token present, nothing fired
  /// Stall attribution: [place * kNumStallCauses + cause]. The per-place sum
  /// always equals place_stalls[place].
  std::vector<std::uint64_t> place_stall_causes;

  double cpi() const {
    return retired == 0 ? 0.0 : static_cast<double>(cycles) / static_cast<double>(retired);
  }
  double ipc() const {
    return cycles == 0 ? 0.0 : static_cast<double>(retired) / static_cast<double>(cycles);
  }

  void reset(unsigned num_transitions, unsigned num_places);

  /// Human-readable per-model report (examples use it; benches print tables).
  std::string report(const Net& net) const;
};

}  // namespace rcpn::core
