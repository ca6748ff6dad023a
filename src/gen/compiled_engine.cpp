#include "gen/compiled_engine.hpp"

namespace rcpn::gen {

// The compiled backend's hot loop is compiled once, here, into the library.
template class TableEngine<RuntimeTables>;

}  // namespace rcpn::gen
