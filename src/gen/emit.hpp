// Graphviz exporter for a built model.
//
//  * emit_dot(net) prints the RCPN for graphviz: stages as clusters of their
//    places, transitions as boxes per operation class, reservation arcs
//    dashed, the virtual end place as a double circle. After build(),
//    two-list stages are shaded.
//
// The generated static schedule itself is printed by gen::emit_simulator
// (emit_simulator.hpp), whose Traits carry every table with place and
// transition names in comments.
#pragma once

#include <string>

#include "core/net.hpp"

namespace rcpn::gen {

std::string emit_dot(const core::Net& net);

}  // namespace rcpn::gen
