// The two ARM pipeline models behind one interface, the program set of the
// `kernels` workload, and the deterministic counts the
// correctness gate and the drift check read after every run.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "machines/strongarm.hpp"
#include "machines/xscale.hpp"
#include "sys/program.hpp"

namespace perfbench {

namespace core = rcpn::core;
namespace isa = rcpn::isa;
namespace machines = rcpn::machines;
namespace mem = rcpn::mem;
namespace sys = rcpn::sys;

enum class Machine { strongarm, xscale };

class ArmSim {
 public:
  virtual ~ArmSim() = default;
  virtual machines::RunResult run(const sys::Program& program) = 0;
  /// Load `program` without running it; advance() continues the run.
  virtual void begin(const sys::Program& program) = 0;
  virtual void advance(std::uint64_t cycles) = 0;
  virtual core::Engine& engine() = 0;
  virtual machines::ArmMachine& machine() = 0;
};

/// Construct a model (this is the `model` layer: net description, lowering
/// for the compiled backend, generated-engine lookup).
std::unique_ptr<ArmSim> make_arm_sim(Machine m, core::Backend backend,
                                     const mem::MemorySystemConfig& mem);

/// run() in chunks of `chunk_cycles` simulated cycles, appending each chunk's
/// host seconds to `chunk_secs`. The result is identical to run()'s.
machines::RunResult run_in_chunks(ArmSim& sim, const sys::Program& program,
                                  std::uint64_t chunk_cycles, std::vector<double>& chunk_secs);

/// The shipped cache configuration of `m`.
mem::MemorySystemConfig shipped_mem(Machine m);

/// One benchmark program: a Fig 10 kernel at a fixed scale, its image and
/// the output the functional ISS prints for it.
struct ProgramCase {
  std::string name;
  unsigned scale = 1;
  sys::Program program;
  std::string expected;
};

/// Assemble `name` at `scale` (the `workloads` layer).
sys::Program assemble(const std::string& name, unsigned scale);
/// Program output of the functional ISS (the architectural oracle).
std::string iss_output(const sys::Program& program);

/// Everything deterministic one run leaves behind. A speed-only change must
/// leave every field identical.
struct RunCounts {
  std::uint64_t cycles = 0, retired = 0, fetched = 0, squashed = 0, firings = 0,
                quiesced = 0;
  std::array<std::uint64_t, core::kNumStallCauses> causes{};
  std::uint64_t icache_hits = 0, icache_accesses = 0, dcache_hits = 0,
                dcache_accesses = 0;
  std::uint64_t decode_hits = 0, decode_misses = 0, mispredicts = 0;

  void add(const RunCounts& o);
};

/// Counts of the run `sim` just finished; `decode_before` is the decode
/// cache's statistics before the run (they span program reloads).
RunCounts counts_after_run(ArmSim& sim, const isa::DecodeCache::Stats& decode_before);

/// The gate's cross-backend identity: cycles, retired and the per-place
/// stall-cause table of one run.
struct RunIdentity {
  std::uint64_t cycles = 0, retired = 0;
  std::vector<std::uint64_t> causes;
  bool operator==(const RunIdentity&) const = default;
};
RunIdentity identity_of(ArmSim& sim, const machines::RunResult& r);

/// Print a count block as exact integers (the drift check reads these).
void print_counts(const char* label, const RunCounts& c);

}  // namespace perfbench
