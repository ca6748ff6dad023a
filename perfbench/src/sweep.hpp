// Farm telemetry accumulated over SimFarm::run calls, shared by the `sweep`
// workload and the ledger of `kernels`.
#pragma once

#include <cstdint>

#include "bench.hpp"
#include "farm/report.hpp"

namespace perfbench {

struct FarmTotals {
  std::uint64_t executed = 0, cache_hits = 0, timeouts = 0, steals = 0;
  double queue_wait_ms_sum = 0.0;  // sum over executed jobs
  double busy_s = 0.0;             // summed worker busy time
  double capacity_s = 0.0;         // workers x wall time

  void add(const rcpn::farm::FarmReport& r);
};

/// farm.* per-layer metrics.
void add_farm_metrics(const FarmTotals& t, Report& layers);

/// One checked, untimed batch of the sweep grid: how `kernels` fills the
/// farm rows of its ledger.
FarmTotals run_reference_sweep(Context& ctx, Outcome& outcome);

}  // namespace perfbench
