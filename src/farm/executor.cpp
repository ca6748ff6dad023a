#include "farm/executor.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "desc/description.hpp"
#include "machines/desc_machines.hpp"
#include "machines/fuzz_model.hpp"
#include "machines/golden_runner.hpp"

namespace rcpn::farm {
namespace {

using Clock = std::chrono::steady_clock;

/// Cycles an in-process job advances between two deadline checks. In an
/// optimized build a chunk is about a millisecond of simulation or less,
/// which bounds how far a timed-out job overshoots its deadline.
constexpr std::uint64_t kChunkCycles = 4096;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// `start + timeout_ms`, saturating: a deadline past the end of the steady
/// clock's range is no deadline at all (time_point::max()).
Clock::time_point deadline_after(Clock::time_point start, std::uint64_t timeout_ms) {
  const auto room = std::chrono::duration_cast<std::chrono::milliseconds>(
      Clock::time_point::max() - start);
  if (timeout_ms >= static_cast<std::uint64_t>(room.count()))
    return Clock::time_point::max();
  return start + std::chrono::milliseconds(timeout_ms);
}

JobResult ok_result(const std::vector<machines::GoldenRetireEvent>& trace,
                    const core::Stats& stats) {
  JobResult r;
  r.status = JobStatus::ok;
  r.stats = stats;
  r.retired = trace.size();
  r.digest = trace_digest(trace);
  return r;
}

JobResult failed_result(std::string why) {
  JobResult r;
  r.status = JobStatus::failed;
  r.error = std::move(why);
  return r;
}

JobResult timeout_result(std::uint64_t timeout_ms, const std::string& detail) {
  JobResult r;
  r.status = JobStatus::timeout;
  r.error = "timed out after " + std::to_string(timeout_ms) + "ms" + detail;
  return r;
}

/// The job's machine as a golden session, workload loaded: a described
/// model, a seeded fuzz model or a golden machine, restored from
/// spec.resume_checkpoint when one is set. Throws (captured by
/// run_in_process) on an unknown key, an unreadable file or any checkpoint
/// mismatch — the ckpt layer's errors name the offender.
std::unique_ptr<machines::GoldenSession> make_session(const JobSpec& spec) {
  if (is_description_job(spec)) {
    if (!spec.resume_checkpoint.empty())
      throw std::runtime_error("description job '" + spec.machine +
                               "' cannot resume from a checkpoint");
    // Serialized-model job: the .rcpn file IS the model, schedule and
    // watchdog limit included; the spec still picks the backend, so one
    // sweep can run a description across backends.
    const desc::Description d = desc::read_file(spec.machine);
    return machines::make_description_session(d, desc::engine_options(d, spec.options),
                                              spec.cycle_budget);
  }
  unsigned fuzz_seed = 0;
  std::unique_ptr<machines::GoldenSession> session =
      is_fuzz_job(spec, fuzz_seed)
          ? machines::make_fuzz_session(fuzz_seed, spec.options, spec.cycle_budget)
          : machines::make_golden_session(spec.machine, spec.options);
  if (!spec.resume_checkpoint.empty()) {
    std::ifstream in(spec.resume_checkpoint, std::ios::binary);
    if (!in)
      throw std::runtime_error("cannot read checkpoint '" + spec.resume_checkpoint +
                               "'");
    std::ostringstream buf;
    buf << in.rdbuf();
    machines::read_checkpoint(*session, buf.str());
  }
  return session;
}

/// Tail of `out` for error messages: enough to show the child's complaint
/// without dumping a whole trace into the report.
std::string output_tail(const std::string& out, std::size_t max = 400) {
  const std::string trimmed =
      out.size() <= max ? out : "..." + out.substr(out.size() - max);
  std::string flat = trimmed;
  for (char& c : flat)
    if (c == '\n') c = ' ';
  return flat;
}

}  // namespace

JobResult run_in_process(const JobSpec& spec, std::uint64_t timeout_ms) {
  const auto t0 = Clock::now();
  const Clock::time_point deadline = deadline_after(t0, timeout_ms);
  JobResult result;
  try {
    if (spec.machine == kThrowJobKey) {
      throw std::runtime_error("injected failure (" + std::string(kThrowJobKey) + ")");
    } else if (spec.machine == kHangJobKey) {
      std::this_thread::sleep_until(deadline);
      result = timeout_result(timeout_ms, "");
    } else {
      const std::unique_ptr<machines::GoldenSession> session = make_session(spec);
      bool running = session->advance(kChunkCycles);
      while (running && Clock::now() < deadline)
        running = session->advance(kChunkCycles);
      result = running ? timeout_result(timeout_ms,
                                        " at cycle " +
                                            std::to_string(session->engine().clock()))
                       : ok_result(session->trace(), session->engine().stats());
    }
  } catch (const std::exception& e) {
    result = failed_result(e.what());
  } catch (...) {
    result = failed_result("unknown exception");
  }
  result.wall_seconds = seconds_since(t0);
  return result;
}

namespace {

enum class SpawnOutcome { exited, timed_out, spawn_failed };

/// fork/exec `argv`, capture stdout+stderr, enforce `deadline` with SIGKILL.
SpawnOutcome spawn_with_deadline(const std::vector<std::string>& argv,
                                 Clock::time_point deadline, std::string& out,
                                 int& exit_code) {
  out.clear();
  exit_code = -1;

  // Built before fork(): the child of a multi-threaded parent may only make
  // async-signal-safe calls, so it must not allocate.
  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);

  // Close-on-exec, so a child another worker forks meanwhile does not inherit
  // this pipe: a leaked write end would hold back this capture's EOF until
  // that unrelated child exits. dup2() clears the flag on stdout/stderr.
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) return SpawnOutcome::spawn_failed;

  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return SpawnOutcome::spawn_failed;
  }
  if (pid == 0) {
    ::close(fds[0]);
    ::dup2(fds[1], STDOUT_FILENO);
    ::dup2(fds[1], STDERR_FILENO);
    ::close(fds[1]);
    ::execv(cargv[0], cargv.data());
    ::_exit(127);  // exec failed (missing binary): a distinctive exit code
  }

  ::close(fds[1]);
  bool killed = false;
  char buf[4096];
  for (;;) {
    const auto now = Clock::now();
    if (!killed && now >= deadline) {
      ::kill(pid, SIGKILL);
      killed = true;
    }
    // Poll in slices of at most 50 ms, so the deadline is re-checked.
    const long long left_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now).count();
    const int slice_ms = killed ? 50 : static_cast<int>(std::clamp(left_ms, 1LL, 50LL));
    struct pollfd pfd{fds[0], POLLIN, 0};
    const int pr = ::poll(&pfd, 1, slice_ms);
    if (pr > 0) {
      const ssize_t n = ::read(fds[0], buf, sizeof(buf));
      if (n > 0) {
        out.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      // A signal (SIGCHLD from another worker's child, a profiler tick)
      // landing mid-read must not be mistaken for EOF: that would abort the
      // capture and report a truncated output tail. Retry the poll/read.
      if (n < 0 && errno == EINTR) continue;
      break;  // EOF (or real read error): child closed its end
    }
    // pr == 0: poll slice elapsed — loop to re-check the deadline.
    if (pr < 0 && errno != EINTR) break;
  }
  ::close(fds[0]);

  // waitpid blocks until the child exits, which is exactly when SIGCHLD
  // arrives — without SA_RESTART the call returns EINTR instead of the pid.
  // Retry: the child is still ours to reap.
  int status = 0;
  pid_t waited;
  do {
    waited = ::waitpid(pid, &status, 0);
  } while (waited < 0 && errno == EINTR);
  if (waited != pid) return SpawnOutcome::spawn_failed;
  if (killed) return SpawnOutcome::timed_out;
  if (WIFEXITED(status)) {
    exit_code = WEXITSTATUS(status);
    return SpawnOutcome::exited;
  }
  exit_code = WIFSIGNALED(status) ? 128 + WTERMSIG(status) : -1;
  return SpawnOutcome::exited;
}

}  // namespace

JobResult run_subprocess(const JobSpec& spec, std::uint64_t timeout_ms,
                         const std::string& bin_dir) {
  const auto t0 = Clock::now();
  JobResult result;
  // This function must not throw: a worker thread has no handler above this
  // frame, so a stray exception — bad_alloc while buffering a huge child
  // output, a parse helper's surprise — would std::terminate the whole grid
  // instead of failing this one job. A child killed mid-fprintf (partial
  // final trace line) must come back as a failed JobResult carrying the
  // output tail, nothing worse.
  try {
    unsigned fuzz_seed = 0;
    if (is_description_job(spec) || is_fuzz_job(spec, fuzz_seed)) {
      // Descriptions and fuzz models have no pre-built gen_fs_<machine>
      // binary; fail loudly instead of exec'ing a nonsense path.
      result = failed_result("job '" + spec.machine +
                             "' has no gen_fs_ binary to spawn (descriptions "
                             "and fuzz models have none); use in-process executor");
    } else {
      std::vector<std::string> argv;
      argv.push_back(bin_dir + "/gen_fs_" + spec.machine);
      argv.push_back("--stats");
      // The freestanding binary runs the generated engine of the shipped
      // model; the library backends go through its --backend flag.
      if (spec.options.backend != core::Backend::generated) {
        argv.push_back("--backend");
        argv.push_back(backend_name(spec.options.backend));
      }
      if (!spec.resume_checkpoint.empty()) {
        argv.push_back("--restore");
        argv.push_back(spec.resume_checkpoint);
      }

      std::string out;
      int exit_code = -1;
      const SpawnOutcome outcome =
          spawn_with_deadline(argv, deadline_after(t0, timeout_ms), out, exit_code);
      std::vector<machines::GoldenRetireEvent> trace;
      core::Stats stats;
      if (outcome == SpawnOutcome::spawn_failed)
        result = failed_result("failed to spawn " + argv[0]);
      else if (outcome == SpawnOutcome::timed_out)
        result = timeout_result(timeout_ms, " (SIGKILL)");
      else if (exit_code != 0)
        result = failed_result(argv[0] + " exited with " + std::to_string(exit_code) +
                               ": " + output_tail(out));
      else if (!machines::parse_golden_trace(out, trace) ||
               !machines::parse_golden_stats(out, stats))
        result = failed_result("unparseable simulator output: " + output_tail(out));
      else
        result = ok_result(trace, stats);
      result.exit_code = exit_code;
    }
  } catch (const std::exception& e) {
    result = failed_result(e.what());
  } catch (...) {
    result = failed_result("unknown exception in subprocess executor");
  }
  result.wall_seconds = seconds_since(t0);
  return result;
}

}  // namespace rcpn::farm
