#include "machines/desc_machines.hpp"

#include <stdexcept>

#include "desc/delegate_registry.hpp"
#include "machines/fig5_processor.hpp"
#include "machines/fuzz_model.hpp"
#include "machines/golden_runner.hpp"
#include "machines/simple_pipeline.hpp"
#include "machines/stallcause.hpp"
#include "machines/strongarm.hpp"
#include "machines/tomasulo.hpp"
#include "machines/xscale.hpp"
#include "model/simulator.hpp"

namespace rcpn::machines {

namespace {

/// Restore a loaded fuzz simulator's per-transition delegate parameters:
/// replay describe_fuzz_model(seed) into a throwaway builder against the
/// *live* machine. Declaration order is deterministic, so the throwaway ids
/// equal the loaded ids and the guard_param/action_param arrays line up.
void restore_fuzz_params(const desc::Description& d, unsigned seed, FuzzMachine& m) {
  model::ModelBuilder<FuzzMachine> throwaway(d.model);
  describe_fuzz_model(seed, throwaway, m);
}

}  // namespace

const desc::DelegateRegistry& delegates_for(const desc::Description& d) {
  if (d.machine_type == "rcpn::machines::Fig2Machine") return fig2_delegates();
  if (d.machine_type == "rcpn::machines::Fig5Machine") return fig5_delegates();
  if (d.machine_type == "rcpn::machines::TomasuloMachine") return tomasulo_delegates();
  if (d.machine_type == "rcpn::machines::StallCauseMachine")
    return stallcause_delegates();
  if (d.machine_type == "rcpn::machines::ArmPipeMachine") return arm_pipe_delegates();
  if (d.machine_type == "rcpn::machines::FuzzMachine") return fuzz_delegates();
  throw model::ModelError("description '" + d.model + "': no shipped DelegateRegistry " +
                          "for machine type '" + d.machine_type + "'");
}

desc::Description describe_machine(const std::string& key,
                                   core::EngineOptions options) {
  if (const std::optional<unsigned> seed = parse_fuzz_model_name(key)) {
    model::Simulator<FuzzMachine> sim(
        key, options,
        [s = *seed](model::ModelBuilder<FuzzMachine>& b, FuzzMachine& m) {
          describe_fuzz_model(s, b, m);
        },
        FuzzMachine{});
    return desc::describe_net(sim.net(), options);
  }
  desc::Description d;
  inspect_golden_machine(key, options, [&](core::Net& net, core::Engine&) {
    d = desc::describe_net(net, options);
  });
  return d;
}

std::unique_ptr<GoldenSession> make_description_session(const desc::Description& d,
                                                        core::EngineOptions options,
                                                        std::uint64_t max_cycles) {
  const desc::DelegateRegistry& reg = delegates_for(d);
  if (d.model == "Fig2")
    return golden_session_fig2(std::make_unique<SimplePipeline>(d, reg, options, 64));
  if (d.model == "Fig5")
    return golden_session_fig5(std::make_unique<Fig5Processor>(d, reg, options));
  if (d.model == "Tomasulo")
    return golden_session_tomasulo(std::make_unique<TomasuloCore>(d, reg, options));
  if (d.model == "StallCause")
    return golden_session_stallcause(
        std::make_unique<StallCauseModel>(d, reg, options, 4));
  if (d.model == "StrongArm") {
    StrongArmConfig cfg;
    cfg.engine = options;
    return golden_session_strongarm_crc(std::make_unique<StrongArmSim>(d, reg, cfg));
  }
  if (d.model == "XScale") {
    XScaleConfig cfg;
    cfg.engine = options;
    return golden_session_xscale_adpcm(std::make_unique<XScaleSim>(d, reg, cfg));
  }
  if (const std::optional<unsigned> seed = parse_fuzz_model_name(d.model)) {
    auto sim = std::make_unique<model::Simulator<FuzzMachine>>(d, reg, options,
                                                                FuzzMachine{});
    restore_fuzz_params(d, *seed, sim->machine());
    return make_fuzz_session(std::move(sim), max_cycles);
  }
  throw model::ModelError("description model '" + d.model +
                          "' names no machine family shipped with this library");
}

GoldenRunResult run_description(const desc::Description& d, core::EngineOptions options,
                                std::uint64_t max_cycles) {
  return finish_session(*make_description_session(d, options, max_cycles));
}

void inspect_description(const desc::Description& d, core::EngineOptions options,
                         const GoldenInspectFn& fn) {
  const std::unique_ptr<GoldenSession> session = make_description_session(d, options);
  fn(session->engine().net(), session->engine());
}

std::string description_machine_key(const desc::Description& d) {
  for (const std::string& key : golden_machine_keys())
    if (golden_model_name(key) == d.model) return key;
  return "";
}

// -- description constructors of the wrapper classes --------------------------
// Defined here (not in the machine cpps) so freestanding amalgamations, which
// embed the machine cpps, never reference the description layer.

SimplePipeline::SimplePipeline(const desc::Description& d,
                               const desc::DelegateRegistry& registry,
                               core::EngineOptions options, std::uint64_t to_generate)
    : sim_(d, registry, options,
           Fig2Machine{to_generate, 0, core::kNoType, core::kNoType, core::kNoPlace}) {
  bind_fig2_context(sim_.net(), sim_.machine());
}

Fig5Processor::Fig5Processor(const desc::Description& d,
                             const desc::DelegateRegistry& registry,
                             core::EngineOptions options)
    : sim_(d, registry, options) {
  bind_fig5_context(sim_.net(), sim_.machine());
}

TomasuloCore::TomasuloCore(const desc::Description& d,
                           const desc::DelegateRegistry& registry,
                           core::EngineOptions options)
    : sim_(d, registry, options) {
  bind_tomasulo_context(sim_.net(), sim_.machine());
}

StallCauseModel::StallCauseModel(const desc::Description& d,
                                 const desc::DelegateRegistry& registry,
                                 core::EngineOptions options, std::uint64_t to_emit)
    : sim_(d, registry, options, StallCauseMachine{to_emit}) {
  bind_stallcause_context(sim_.net(), sim_.machine());
}

StrongArmSim::StrongArmSim(const desc::Description& d,
                           const desc::DelegateRegistry& registry,
                           StrongArmConfig config)
    : cfg_(std::move(config)),
      sim_(d, registry, cfg_.engine,
           ArmMachine::Config{cfg_.mem, regfile::WritePolicy::multi_writer}) {
  bind_strongarm_context(sim_.net(), sim_.machine());
}

XScaleSim::XScaleSim(const desc::Description& d, const desc::DelegateRegistry& registry,
                     XScaleConfig config)
    : cfg_(std::move(config)),
      sim_(d, registry, cfg_.engine,
           ArmMachine::Config{cfg_.mem, regfile::WritePolicy::multi_writer}) {
  sim_.machine().m.bp = std::make_unique<predictor::Btb>(cfg_.btb_entries);
  bind_xscale_context(sim_.net(), sim_.machine());
}

}  // namespace rcpn::machines
