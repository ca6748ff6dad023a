#include "gen/generated.hpp"

#include <map>

#include "core/options_signature.hpp"

namespace rcpn::gen {

namespace {
// Function-local static: emitted TUs register from static initializers, so
// the map must be constructed on first use, not in link order.
std::map<std::pair<std::string, std::uint32_t>, GeneratedFactory>& registry() {
  static std::map<std::pair<std::string, std::uint32_t>, GeneratedFactory> r;
  return r;
}
}  // namespace

void register_generated_engine(const std::string& model, std::uint32_t options_key,
                               GeneratedFactory factory) {
  registry()[{model, options_key}] = factory;
}

GeneratedFactory find_generated_engine(const std::string& model,
                                       std::uint32_t options_key) {
  const auto& r = registry();
  const auto it = r.find({model, options_key});
  return it == r.end() ? nullptr : it->second;
}

GeneratedFactory find_generated_engine(const std::string& model,
                                       const core::EngineOptions& options) {
  return find_generated_engine(model, core::options_bits(options));
}

GeneratedFactory find_generated_engine(const std::string& model) {
  return find_generated_engine(model, core::options_bits(core::EngineOptions{}));
}

std::vector<std::string> registered_generated_models() {
  std::vector<std::string> names;
  for (const auto& [key, _] : registry())
    if (names.empty() || names.back() != key.first) names.push_back(key.first);
  return names;
}

}  // namespace rcpn::gen
