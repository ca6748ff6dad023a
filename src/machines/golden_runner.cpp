#include "machines/golden_runner.hpp"

#include <stdexcept>

#include "machines/fig5_processor.hpp"
#include "machines/simple_pipeline.hpp"
#include "machines/stallcause.hpp"
#include "machines/strongarm.hpp"
#include "machines/tomasulo.hpp"
#include "machines/xscale.hpp"

namespace rcpn::machines {

namespace {

/// One golden machine: the key-indexed dispatch row tying the per-machine
/// session (defined next to its machine, so it is freestanding-emittable,
/// and named golden_session_<key>) to the header the emitter inlines.
struct GoldenMachine {
  const char* key;
  const char* model;
  const char* header;
  std::unique_ptr<GoldenSession> (*session)(core::EngineOptions);
};

constexpr GoldenMachine kGoldenMachines[] = {
    {"fig2", "Fig2", "machines/simple_pipeline.hpp", &golden_session_fig2},
    {"fig5", "Fig5", "machines/fig5_processor.hpp", &golden_session_fig5},
    {"tomasulo", "Tomasulo", "machines/tomasulo.hpp", &golden_session_tomasulo},
    {"strongarm_crc", "StrongArm", "machines/strongarm.hpp",
     &golden_session_strongarm_crc},
    {"xscale_adpcm", "XScale", "machines/xscale.hpp", &golden_session_xscale_adpcm},
    {"stallcause", "StallCause", "machines/stallcause.hpp", &golden_session_stallcause},
};

const GoldenMachine& find_machine(const std::string& key) {
  for (const GoldenMachine& m : kGoldenMachines)
    if (key == m.key) return m;
  throw std::invalid_argument("unknown golden machine key '" + key + "'");
}

}  // namespace

const std::vector<std::string>& golden_machine_keys() {
  static const std::vector<std::string> keys = [] {
    std::vector<std::string> k;
    for (const GoldenMachine& m : kGoldenMachines) k.push_back(m.key);
    return k;
  }();
  return keys;
}

std::string golden_model_name(const std::string& key) { return find_machine(key).model; }

std::unique_ptr<GoldenSession> make_golden_session(const std::string& key,
                                                   core::EngineOptions options) {
  return find_machine(key).session(options);
}

GoldenRunResult run_golden_machine_full(const std::string& key,
                                        core::EngineOptions options) {
  return finish_session(*make_golden_session(key, options));
}

std::string golden_session_expr(const std::string& key) {
  return "rcpn::machines::golden_session_" + std::string(find_machine(key).key) +
         "(options)";
}

std::string golden_session_header(const std::string& key) {
  return find_machine(key).header;
}

}  // namespace rcpn::machines
