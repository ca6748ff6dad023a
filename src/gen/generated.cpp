#include "gen/generated.hpp"

#include <map>

namespace rcpn::gen {

namespace {
// Function-local static: emitted TUs register from static initializers, so
// the map must be constructed on first use, not in link order.
std::map<std::string, GeneratedFactory>& registry() {
  static std::map<std::string, GeneratedFactory> r;
  return r;
}
}  // namespace

void register_generated_engine(const std::string& model, GeneratedFactory factory) {
  registry()[model] = factory;
}

GeneratedFactory find_generated_engine(const std::string& model) {
  const auto& r = registry();
  const auto it = r.find(model);
  return it == r.end() ? nullptr : it->second;
}

}  // namespace rcpn::gen
