#include "core/options_signature.hpp"

#include <stdexcept>

namespace rcpn::core {

namespace {

/// One schedule-affecting flag: its name (== the EngineOptions member name)
/// and pointer-to-member. Table order fixes both the bit assignment and the
/// signature field order, so APPEND new flags — never reorder.
struct ScheduleOption {
  const char* name;
  bool EngineOptions::*member;
};

constexpr ScheduleOption kScheduleOptions[] = {
    {"two_list_state_refs", &EngineOptions::two_list_state_refs},
    {"force_two_list_all", &EngineOptions::force_two_list_all},
    {"linear_search", &EngineOptions::linear_search},
};

constexpr unsigned kNumScheduleOptions =
    sizeof(kScheduleOptions) / sizeof(kScheduleOptions[0]);

static_assert(kNumScheduleOptions <= 32, "options_bits is a uint32_t");

}  // namespace

unsigned num_schedule_options() { return kNumScheduleOptions; }

const char* schedule_option_name(unsigned i) { return kScheduleOptions[i].name; }

bool schedule_option_get(unsigned i, const EngineOptions& options) {
  return options.*kScheduleOptions[i].member;
}

void schedule_option_set(unsigned i, EngineOptions& options, bool value) {
  options.*kScheduleOptions[i].member = value;
}

std::uint32_t options_bits(const EngineOptions& options) {
  std::uint32_t bits = 0;
  for (unsigned i = 0; i < kNumScheduleOptions; ++i)
    if (schedule_option_get(i, options)) bits |= 1u << i;
  return bits;
}

std::string options_bits_desc(std::uint32_t bits) {
  std::string desc;
  for (unsigned i = 0; i < kNumScheduleOptions; ++i) {
    if (!(bits & (1u << i))) continue;
    if (!desc.empty()) desc += ",";
    desc += kScheduleOptions[i].name;
  }
  return desc.empty() ? "(none)" : desc;
}

std::string options_signature(const EngineOptions& options) {
  std::string sig;
  for (unsigned i = 0; i < kNumScheduleOptions; ++i) {
    if (!sig.empty()) sig += ",";
    sig += kScheduleOptions[i].name;
    sig += schedule_option_get(i, options) ? "=1" : "=0";
  }
  return sig;
}

void apply_options_signature(EngineOptions& options, std::string_view signature) {
  std::string_view rest = signature;
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string_view field =
        comma == std::string_view::npos ? rest : rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view{} : rest.substr(comma + 1);
    if (field.empty()) continue;

    const std::size_t eq = field.find('=');
    if (eq == std::string_view::npos)
      throw std::invalid_argument("options signature field '" + std::string(field) +
                                  "' is not name=0|1");
    const std::string_view name = field.substr(0, eq);
    const std::string_view value = field.substr(eq + 1);
    if (value != "0" && value != "1")
      throw std::invalid_argument("options signature flag '" + std::string(name) +
                                  "' has value '" + std::string(value) +
                                  "', expected 0 or 1");
    bool found = false;
    for (unsigned i = 0; i < kNumScheduleOptions; ++i) {
      if (name != kScheduleOptions[i].name) continue;
      schedule_option_set(i, options, value == "1");
      found = true;
      break;
    }
    if (!found)
      throw std::invalid_argument("unknown schedule-affecting option flag '" +
                                  std::string(name) + "' in options signature");
  }
}

}  // namespace rcpn::core
