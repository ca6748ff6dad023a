// The two ways SimFarm hosts a job; the farm calls one of these two functions
// per job, picked by JobSpec::executor.
//
// run_in_process constructs the job's machine as a golden session inside the
// calling worker thread — fastest (no process spawn, shared code pages) — and
// advances it 4,096 cycles at a time, checking the wall-clock deadline
// between chunks: a job past its deadline stops at the next chunk boundary
// and comes back `timeout`, naming the cycle it reached. In-process code that
// never returns from a single cycle cannot be stopped; use the subprocess
// executor for untrusted models.
//
// run_subprocess spawns the machine's freestanding gen_fs_<machine> binary
// and parses its golden-format stdout — one fork/exec per job, but hard
// isolation: a crash is an exit code, a child past its deadline is
// SIGKILLed, and the simulation cannot corrupt farm memory. Description and
// fuzz jobs have no such binary: it fails them, naming the in-process
// executor.
//
// Both compute the job's deadline once, saturating: a timeout beyond the
// steady clock's range means no deadline. Neither throws: every failure mode
// (model exception, unknown key, spawn failure, nonzero exit, unparseable
// output) becomes a JobResult with status failed/timeout and a
// human-readable reason.
#pragma once

#include <cstdint>
#include <string>

#include "farm/job.hpp"

namespace rcpn::farm {

JobResult run_in_process(const JobSpec& spec, std::uint64_t timeout_ms);

/// `bin_dir` holds the gen_fs_<machine> binaries.
JobResult run_subprocess(const JobSpec& spec, std::uint64_t timeout_ms,
                         const std::string& bin_dir);

}  // namespace rcpn::farm
