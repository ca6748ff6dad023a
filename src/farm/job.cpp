#include "farm/job.hpp"

#include <fstream>
#include <limits>
#include <optional>
#include <sstream>

#include "core/options_signature.hpp"
#include "machines/fuzz_model.hpp"

namespace rcpn::farm {
namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv1a_bytes(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t v) {
  // Mix fixed-width little-endian bytes so the digest is layout-independent.
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

const char* executor_name(ExecutorKind kind) {
  switch (kind) {
    case ExecutorKind::in_process: return "in-process";
    case ExecutorKind::subprocess: return "subprocess";
  }
  return "?";
}

const char* backend_name(core::Backend backend) {
  switch (backend) {
    case core::Backend::interpreted: return "interpreted";
    case core::Backend::compiled: return "compiled";
    case core::Backend::generated: return "generated";
  }
  return "?";
}

const char* job_status_name(JobStatus status) {
  switch (status) {
    case JobStatus::ok: return "ok";
    case JobStatus::failed: return "failed";
    case JobStatus::timeout: return "timeout";
  }
  return "?";
}

bool is_description_job(const JobSpec& spec) {
  return spec.machine.size() > 5 && spec.machine.ends_with(".rcpn");
}

bool is_fuzz_job(const JobSpec& spec, unsigned& seed) {
  if (spec.machine == "fuzz") {
    if (spec.seed > std::numeric_limits<std::uint32_t>::max()) return false;
    seed = static_cast<unsigned>(spec.seed);
    return true;
  }
  const std::optional<unsigned> named = machines::parse_fuzz_model_name(spec.machine);
  if (named) seed = *named;
  return named.has_value();
}

std::uint64_t effective_cycle_budget(const JobSpec& spec) {
  unsigned seed = 0;
  if (is_fuzz_job(spec, seed))
    return spec.cycle_budget != 0 ? spec.cycle_budget : machines::kFuzzDrainCap;
  if (is_description_job(spec)) return spec.cycle_budget;
  // Golden machine keys (and the fault-injection keys) run their fixed
  // workload to completion — no executor honors a budget for them, so the
  // budget must not distinguish (or unify) their identities.
  return 0;
}

namespace {

/// `;name=<fnv1a of file content>` (or `;name=missing`): the identity of a
/// file-backed job input is its content, not its path — editing the file
/// must miss the result cache.
void append_file_digest(std::ostringstream& key, const char* name,
                        const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    key << ";" << name << "=missing";
    return;
  }
  std::ostringstream content;
  content << in.rdbuf();
  const std::string text = content.str();
  key << ";" << name << "=" << std::hex
      << fnv1a_bytes(kFnvOffset, text.data(), text.size()) << std::dec;
}

}  // namespace

std::string job_key(const JobSpec& spec) {
  // One canonical field order; every identity-defining field spelled by a
  // stable name (enum values never leak as raw integers). timeout_ms is a
  // patience knob, not an identity — see the header. The cycle budget is
  // canonicalized to what the executors enforce (effective_cycle_budget), so
  // budget values the execution would ignore cannot split or alias identities.
  std::ostringstream key;
  key << "machine=" << spec.machine
      << ";backend=" << backend_name(spec.options.backend)
      << ";options=" << core::options_signature(spec.options)
      << ";deadlock=" << spec.options.deadlock_limit
      << ";seed=" << spec.seed
      << ";cycles=" << effective_cycle_budget(spec)
      << ";executor=" << executor_name(spec.executor);
  if (is_description_job(spec)) append_file_digest(key, "desc", spec.machine);
  if (!spec.resume_checkpoint.empty())
    append_file_digest(key, "ckpt", spec.resume_checkpoint);
  return key.str();
}

std::uint64_t job_hash(const JobSpec& spec) {
  const std::string key = job_key(spec);
  return fnv1a_bytes(kFnvOffset, key.data(), key.size());
}

std::uint64_t trace_digest(const std::vector<machines::GoldenRetireEvent>& trace) {
  std::uint64_t h = kFnvOffset;
  for (const auto& e : trace) {
    h = fnv1a_u64(h, e.cycle);
    h = fnv1a_u64(h, e.pc);
    h = fnv1a_u64(h, e.seq);
  }
  return h;
}

}  // namespace rcpn::farm
