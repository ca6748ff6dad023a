// Shared plumbing of the per-machine golden sessions (golden_session_fig2,
// ...): every session owns its retire trace (hooked into the engine at
// construction, repopulated by read_checkpoint) and doubles as the machine's
// ckpt::MachineIO. Machine .cpp files include this next to their model and
// implement the per-machine pieces: the workload, the advance loop (the only
// run loop of the golden workload) and the machine-context serialization.
#pragma once

#include <stdexcept>
#include <string>

#include "ckpt/components.hpp"
#include "machines/golden_trace.hpp"

namespace rcpn::machines {

class SessionBase : public GoldenSession, public ckpt::MachineIO {
 public:
  ckpt::MachineIO& io() override { return *this; }
  std::vector<GoldenRetireEvent>& trace() override { return trace_; }

 protected:
  /// Whether the engine stopped: the workload's own end (an ARM program's
  /// exit). A stop by the deadlock watchdog is not an end but a failed run:
  /// it throws, naming the cycle the watchdog tripped in.
  bool engine_stopped() {
    const core::Engine& eng = engine();
    if (eng.deadlocked())
      throw std::runtime_error(machine_key() +
                               ": engine stopped (deadlocked model?) at cycle " +
                               std::to_string(eng.clock() - 1));
    return eng.stopped();
  }

  std::vector<GoldenRetireEvent> trace_;
};

}  // namespace rcpn::machines
