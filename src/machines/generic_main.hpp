// Generic CLI entry point for *arbitrary* user models — the counterpart of
// golden_cli_main for machines that have no fixed golden workload.
//
// golden_cli_main runs golden machines as sessions; a user model has no
// checkpoint serializer, so this header turns a (describe, workload, done)
// triple into the GoldenRunFn golden_cli_main takes in a session's place. Any
// Simulator<M>-described machine becomes a runnable binary — including a
// freestanding one (gen::emit_simulator's generic_describe_expr emits a
// main() calling here, and this header is part of the embedded source
// table) — and therefore a SimFarm subprocess work unit. On top of
// golden_cli_main's flags it adds:
//
//   --cycles N          cycle cap for the run (default 100000)
//   <positional args>   handed to `apply_workload(machine, args)` before the
//                       run — workload-from-argv (e.g. an element count, an
//                       input file), so one binary serves a whole sweep
//
// The run loop steps until `done(machine)` holds with no tokens in flight
// (drained: the golden-trace semantics), the engine stops itself, or the
// cycle cap is reached; reaching the cap is not an error — the trace up to
// the budget is the result, which is exactly what a farm cycle budget means.
// Header-only: the template must inline into freestanding artifacts.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "machines/golden_trace.hpp"
#include "model/simulator.hpp"

namespace rcpn::machines {

inline constexpr std::uint64_t kGenericDefaultCycles = 100000;

/// Run machine M as a CLI binary. `describe` is the Simulator<M> model
/// description; `apply_workload(machine, args)` consumes the positional
/// arguments; `done(machine)` is the completion predicate (return false to
/// run to the cycle cap). All other flags (--golden, --stats, --time,
/// --backend, schedule ablations) are golden_cli_main's, which this wraps.
template <typename M, typename Describe, typename Workload, typename Done>
int generic_cli_main(int argc, char** argv, const std::string& name,
                     Describe describe, Workload apply_workload, Done done,
                     core::EngineOptions base = {}) {
  std::uint64_t cycles = 0;
  std::vector<std::string> workload_args;
  std::vector<char*> fwd;
  fwd.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--cycles" && i + 1 < argc) {
      cycles = std::strtoull(argv[++i], nullptr, 10);
    } else if ((arg == "--golden" || arg == "--time" || arg == "--backend") &&
               i + 1 < argc) {
      fwd.push_back(argv[i]);  // value-taking flags forward as a pair, so the
      fwd.push_back(argv[++i]);  // value is never mistaken for a workload arg
    } else if (!arg.empty() && arg[0] != '-') {
      workload_args.push_back(arg);
    } else {
      fwd.push_back(argv[i]);
    }
  }

  const auto run = [&](core::EngineOptions options) -> GoldenRunResult {
    model::Simulator<M> sim(name, options, describe, M{});
    apply_workload(sim.machine(), workload_args);
    GoldenRunResult r;
    record_golden_retires(sim.engine(), r.trace);
    const std::uint64_t cap = cycles != 0 ? cycles : kGenericDefaultCycles;
    for (std::uint64_t c = 0; c < cap; ++c) {
      if (done(static_cast<const M&>(sim.machine())) &&
          sim.engine().tokens_in_flight() == 0)
        break;
      if (!sim.step()) break;
    }
    r.stats = sim.engine().stats();
    return r;
  };
  return golden_cli_main(static_cast<int>(fwd.size()), fwd.data(), name,
                         /*session=*/{}, base, run);
}

}  // namespace rcpn::machines
