#include "desc/delegate_registry.hpp"

namespace rcpn::desc {

DelegateRegistry::DelegateRegistry(std::string machine_type,
                                   std::vector<std::string> includes)
    : machine_type_(std::move(machine_type)), includes_(std::move(includes)) {}

void DelegateRegistry::pin_machine(std::type_index machine) {
  if (typed_ && ctx_type_ != machine)
    throw model::ModelError("DelegateRegistry for '" + machine_type_ +
                            "' bound with two different machine context types");
  typed_ = true;
  ctx_type_ = machine;
}

const DelegateRegistry::Binding* DelegateRegistry::find_guard(
    std::string_view symbol) const {
  const auto it = guards_.find(symbol);
  return it == guards_.end() ? nullptr : &it->second;
}

const DelegateRegistry::Binding* DelegateRegistry::find_action(
    std::string_view symbol) const {
  const auto it = actions_.find(symbol);
  return it == actions_.end() ? nullptr : &it->second;
}

std::vector<std::string> DelegateRegistry::guard_symbols() const {
  std::vector<std::string> out;
  for (const auto& [sym, _] : guards_) out.push_back(sym);
  return out;
}

std::vector<std::string> DelegateRegistry::action_symbols() const {
  std::vector<std::string> out;
  for (const auto& [sym, _] : actions_) out.push_back(sym);
  return out;
}

void DelegateRegistry::add_guard(std::string symbol, Binding binding) {
  if (binding.guard == nullptr)
    throw model::ModelError("registry guard binding for '" + symbol +
                            "' has no guard function");
  if (!guards_.emplace(std::move(symbol), binding).second)
    throw model::ModelError("duplicate guard symbol in DelegateRegistry for '" +
                            machine_type_ + "'");
}

void DelegateRegistry::add_action(std::string symbol, Binding binding) {
  if (binding.action == nullptr)
    throw model::ModelError("registry action binding for '" + symbol +
                            "' has no action function");
  if (!actions_.emplace(std::move(symbol), binding).second)
    throw model::ModelError("duplicate action symbol in DelegateRegistry for '" +
                            machine_type_ + "'");
}

}  // namespace rcpn::desc

namespace rcpn::model {

// The registry-facing half of ModelBuilderBase lives here (not in
// model_builder.cpp) so the builder header only needs a forward declaration
// of desc::DelegateRegistry, and the freestanding amalgamation pulls these
// definitions exactly when a model uses the registry API (this file is the
// companion of desc/delegate_registry.hpp).

void ModelBuilderBase::use_delegates_checked(const desc::DelegateRegistry& registry,
                                             std::type_index machine) {
  // typeid(void) = the untyped base overload: accept any registry.
  if (machine != std::type_index(typeid(void)) && !registry.matches_machine(machine))
    throw ModelError("model '" + name_ + "': use_delegates called with a "
                     "DelegateRegistry for machine context '" +
                     registry.machine_type() +
                     "', which is not this builder's Machine type");
  delegates_ = &registry;
  emit_machine_type_ = registry.machine_type();
  for (const std::string& header : registry.includes()) {
    bool present = false;
    for (const std::string& have : emit_includes_) present = present || have == header;
    if (!present) emit_includes_.push_back(header);
  }
}

const desc::DelegateRegistry& ModelBuilderBase::require_delegates(
    const char* what, const std::string& symbol) const {
  if (delegates_ == nullptr)
    throw ModelError("model '" + name_ + "': " + what + "(\"" + symbol +
                     "\") requires use_delegates(registry) to be called first");
  return *delegates_;
}

void ModelBuilderBase::bind_guard_ref(TransitionDef& def, const std::string& symbol) {
  const desc::DelegateRegistry& reg = require_delegates("guard_ref", symbol);
  const desc::DelegateRegistry::Binding* b = reg.find_guard(symbol);
  if (b == nullptr)
    throw ModelError("model '" + name_ + "': unknown guard delegate symbol '" +
                     symbol + "' — not registered in the DelegateRegistry for '" +
                     reg.machine_type() + "'");
  def.guard = nullptr;
  def.fast_guard = b->guard;
  def.guard_symbol = symbol;
  def.guard_symbol_machine = b->takes_machine;
  def.guard_reads_token = b->token == desc::TokenUse::reads;
  if (b->takes_machine) def.needs_machine = true;
}

void ModelBuilderBase::bind_action_ref(TransitionDef& def, const std::string& symbol) {
  const desc::DelegateRegistry& reg = require_delegates("action_ref", symbol);
  const desc::DelegateRegistry::Binding* b = reg.find_action(symbol);
  if (b == nullptr)
    throw ModelError("model '" + name_ + "': unknown action delegate symbol '" +
                     symbol + "' — not registered in the DelegateRegistry for '" +
                     reg.machine_type() + "'");
  def.action = nullptr;
  def.fast_action = b->action;
  def.action_symbol = symbol;
  def.action_symbol_machine = b->takes_machine;
  def.action_reads_token = b->token == desc::TokenUse::reads;
  if (b->takes_machine) def.needs_machine = true;
}

}  // namespace rcpn::model
