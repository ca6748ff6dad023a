// The per-layer cost ledger of the traced run: every layer the tentpole
// names, timed from outside through its public calls and read from the
// counters it already keeps.
#pragma once

#include <vector>

#include "arm_sims.hpp"
#include "bench.hpp"
#include "sweep.hpp"

namespace perfbench {

/// Measure every per-layer metric over `programs` (run with the given cache
/// geometries) and add them to `layers`. `farm` carries the farm layer's
/// telemetry. Every simulation the ledger runs is checked into `outcome`.
void run_ledger(Context& ctx, const std::vector<ProgramCase>& programs,
                const mem::MemorySystemConfig& sa_mem, const mem::MemorySystemConfig& xs_mem,
                const FarmTotals& farm, Outcome& outcome, Report& layers);

}  // namespace perfbench
