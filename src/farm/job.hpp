// Batch-simulation job descriptions (the unit of work of farm::SimFarm).
//
// A JobSpec names one simulation: which machine to run (a golden-runner key,
// a seeded fuzz model, or one of the fault-injection keys below), under which
// EngineOptions/backend, through which executor, with a seed, a cycle budget
// and a wall-clock timeout. job_key() renders the *identity-defining* subset
// of those fields into one canonical string and job_hash() folds it to a
// 64-bit FNV-1a value — the same stamping idea the generated-artifact
// registry uses for (model, options): two specs with equal hashes describe
// the same deterministic simulation, so the farm's result cache may serve
// one's result for the other. Runtime-only knobs (timeout_ms, reps) are
// deliberately excluded from the key: they change how long we are willing to
// wait, not what is being simulated.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "machines/golden_trace.hpp"

namespace rcpn::farm {

/// How a job's simulation is hosted. `in_process` constructs the model in
/// this process (interpreted/compiled/registered-generated backends);
/// `subprocess` spawns the machine's freestanding gen_fs_<machine> binary and
/// parses its golden-format trace — full address-space isolation, and the
/// only executor whose timeout can stop a simulation stuck inside one cycle.
enum class ExecutorKind : std::uint8_t { in_process, subprocess };

const char* executor_name(ExecutorKind kind);
const char* backend_name(core::Backend backend);

/// Fault-injection machine keys understood by the in-process executor: a
/// job that throws, and a job that sleeps until its own deadline. They exist
/// so the farm's failure paths (exception capture, timeouts) are exercisable
/// from tests and from the rcpn_farm CLI without a real broken model.
inline constexpr const char* kThrowJobKey = "__throw__";
inline constexpr const char* kHangJobKey = "__hang__";

struct JobSpec {
  /// Golden machine key ("fig2", ... "xscale_adpcm"), "fuzz" (seeded by
  /// `seed`), "fuzz-<n>" (explicit seed), a fault-injection key above, or a
  /// path to a serialized model description (ends with ".rcpn" — the
  /// in-process executor loads and runs the described model; the file's
  /// *content* is folded into job_key/job_hash so editing a description
  /// invalidates cached results).
  std::string machine;
  core::EngineOptions options;
  ExecutorKind executor = ExecutorKind::in_process;
  /// Replicate index for fixed-workload machines; topology seed for "fuzz".
  std::uint64_t seed = 0;
  /// Cycle cap for budgeted workloads (fuzz models); 0 = machine default.
  std::uint64_t cycle_budget = 0;
  /// Per-job wall-clock timeout; 0 = the farm's default_timeout_ms.
  std::uint64_t timeout_ms = 0;
  /// Optional rcpn-ckpt/2 checkpoint file to resume from instead of starting
  /// the workload at cycle 0 (golden machine keys and fuzz models). The
  /// file's *content* digest is folded into job_key/job_hash — the restored
  /// state is part of the simulation's identity, so editing or regenerating
  /// the checkpoint invalidates cached results.
  std::string resume_checkpoint;
};

/// True when spec.machine names a serialized model description file
/// (a ".rcpn" path) rather than a compiled-in machine key.
bool is_description_job(const JobSpec& spec);

/// True when spec.machine names a seeded fuzz model ("fuzz" seeded by
/// spec.seed, or "fuzz-<n>" exactly as machines::fuzz_model_name prints it);
/// fills `seed` accordingly. False for malformed fuzz names ("fuzz-12x",
/// "fuzz-007", "fuzz-4294967296") and for "fuzz" with a seed above
/// 4294967295: such jobs fail as unknown machines.
bool is_fuzz_job(const JobSpec& spec, unsigned& seed);

/// The cycle budget the executors actually enforce for `spec` — the value
/// job_key renders. Fuzz models resolve 0 to their default drain cap, and
/// machines that ignore the budget (golden keys run a fixed workload to
/// completion) canonicalize to 0, so two specs that simulate identically
/// cannot hash apart — and, conversely, a budget the execution would not
/// honor can never make two *different*-looking specs share a stale cached
/// result.
std::uint64_t effective_cycle_budget(const JobSpec& spec);

/// Canonical identity string: machine, backend, schedule-affecting options
/// signature (core::options_signature), deadlock limit, seed, effective
/// cycle budget, executor — stable across processes and library versions
/// that agree on those semantics. Description jobs append `;desc=<fnv1a of
/// file content>` (or `;desc=missing` for an unreadable file); jobs resuming
/// from a checkpoint append `;ckpt=<fnv1a of file content>` the same way.
std::string job_key(const JobSpec& spec);

/// 64-bit FNV-1a of job_key(spec): the result-cache key and the per-job
/// identity stamp in FarmReport JSON.
std::uint64_t job_hash(const JobSpec& spec);

/// Order-sensitive FNV-1a digest of a retire trace — the compact equality
/// witness FarmReport records per job (two runs with equal digests retired
/// the same instructions at the same cycles in the same order).
std::uint64_t trace_digest(const std::vector<machines::GoldenRetireEvent>& trace);

enum class JobStatus : std::uint8_t { ok, failed, timeout };

const char* job_status_name(JobStatus status);

/// Outcome of one job. `stats`/`retired`/`digest` are meaningful only for
/// status == ok; `error` is empty only for status == ok.
struct JobResult {
  JobStatus status = JobStatus::failed;
  std::string error;
  core::Stats stats;
  std::uint64_t retired = 0;       // trace length (= stats.retired for golden runs)
  std::uint64_t digest = 0;        // trace_digest of the retire trace
  double wall_seconds = 0.0;       // execution wall time (0 for cache hits)
  bool cached = false;             // served from the farm's result cache
  int exit_code = 0;               // subprocess executor: child exit status
};

}  // namespace rcpn::farm
