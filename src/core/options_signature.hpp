// The ONE table of schedule-affecting EngineOptions.
//
// Three encoders used to spell these flags independently — the generated
// artifact registry key (gen::find_generated_engine), the Traits stamp in
// emitted simulators, and farm::job_key — so adding a schedule-affecting
// option could silently miss one of them. They now all derive from this
// table: a new flag is added here once and every encoder picks it up.
//
// "Schedule-affecting" means the flag changes which tokens fire when
// (the two-list analysis).
// Runtime knobs (backend, deadlock_limit, obs) are deliberately absent.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "core/engine.hpp"

namespace rcpn::core {

/// Number of schedule-affecting option flags.
unsigned num_schedule_options();

/// Name of flag `i` — identical to the EngineOptions member name
/// ("two_list_state_refs", "force_two_list_all", ...).
const char* schedule_option_name(unsigned i);

/// Read flag `i` from `options`.
bool schedule_option_get(unsigned i, const EngineOptions& options);

/// Write flag `i` into `options`.
void schedule_option_set(unsigned i, EngineOptions& options, bool value);

/// Bitmask of the schedule-affecting flags (flag i -> bit i). Stable across
/// releases for existing flags: this is the generated-artifact registry key.
std::uint32_t options_bits(const EngineOptions& options);

/// Comma-separated names of the flags set in `bits`, or "(none)" — the
/// human-readable spelling used in error messages and emitted headers.
std::string options_bits_desc(std::uint32_t bits);

/// Canonical "name=0|1,name=0|1,..." rendering of every schedule-affecting
/// flag, in table order. Used verbatim in farm job keys and serialized model
/// descriptions, so two EngineOptions with equal signatures are
/// schedule-equivalent.
std::string options_signature(const EngineOptions& options);

/// Apply a signature produced by options_signature() onto `options`,
/// overwriting only the schedule-affecting flags it names. Throws
/// std::invalid_argument naming the offending token on an unknown flag name
/// or a value other than 0/1.
void apply_options_signature(EngineOptions& options, std::string_view signature);

}  // namespace rcpn::core
