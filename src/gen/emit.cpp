#include "gen/emit.hpp"

#include <cstdarg>
#include <cstdio>

namespace rcpn::gen {

namespace {

std::string quote(const std::string& s) {
  // DOT double-quoted string: escape quotes only — backslashes stay literal
  // so label escapes like \n pass through.
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += '\\';
    out += c;
  }
  return out + "\"";
}

void appendf(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  out += buf;
}

}  // namespace

std::string emit_dot(const core::Net& net) {
  std::string out = "digraph " + quote(net.name()) + " {\n";
  out += "  rankdir=LR;\n  node [fontname=\"Helvetica\"];\n";

  // Stages as clusters of their places; the end stage's places as plain
  // double circles (they retire tokens on entry and belong to no cluster).
  for (unsigned s = 0; s < net.num_stages(); ++s) {
    const core::PipelineStage& st = net.stage(static_cast<core::StageId>(s));
    if (st.is_end()) continue;
    appendf(out, "  subgraph cluster_s%u {\n", s);
    std::string label = st.name() + " (cap " + std::to_string(st.capacity()) + ")";
    if (st.two_list()) label += " [two-list]";
    out += "    label=" + quote(label) + ";\n";
    out += st.two_list() ? "    style=filled; fillcolor=\"#eeeeee\";\n"
                         : "    style=dashed;\n";
    for (unsigned p = 0; p < net.num_places(); ++p) {
      const core::Place& pl = net.place(static_cast<core::PlaceId>(p));
      if (pl.stage != static_cast<core::StageId>(s)) continue;
      std::string plabel = pl.name;
      if (pl.delay > 1) plabel += "\\nd=" + std::to_string(pl.delay);
      appendf(out, "    p%u [shape=ellipse, label=%s];\n", p, quote(plabel).c_str());
    }
    out += "  }\n";
  }
  for (unsigned p = 0; p < net.num_places(); ++p) {
    if (!net.stage_of(static_cast<core::PlaceId>(p)).is_end()) continue;
    appendf(out, "  p%u [shape=doublecircle, label=%s];\n", p,
            quote(net.place(static_cast<core::PlaceId>(p)).name).c_str());
  }

  // Transitions as boxes, labeled with their operation class (sub-net).
  for (unsigned ti = 0; ti < net.num_transitions(); ++ti) {
    const core::Transition& t = net.transition(static_cast<core::TransitionId>(ti));
    std::string label = t.name();
    label += t.independent() ? "\\n(independent)"
                             : "\\n[" + net.type_name(t.subnet()) + "]";
    if (t.delay() > 0) label += " d=" + std::to_string(t.delay());
    if (t.max_fires_per_cycle() > 1)
      label += " x" + std::to_string(t.max_fires_per_cycle());
    appendf(out, "  t%u [shape=box%s, label=%s];\n", ti,
            t.independent() ? ", style=bold" : "", quote(label).c_str());
    for (const core::InArc& a : t.inputs()) {
      const bool res = a.need == core::ArcNeed::reservation;
      std::string attrs = res ? "style=dashed" : "";
      if (!res && a.priority != 0) {
        if (!attrs.empty()) attrs += ", ";
        attrs += "label=\"pr " + std::to_string(a.priority) + "\"";
      }
      appendf(out, "  p%u -> t%u%s%s%s;\n", static_cast<unsigned>(a.place), ti,
              attrs.empty() ? "" : " [", attrs.c_str(), attrs.empty() ? "" : "]");
    }
    for (const core::OutArc& a : t.outputs()) {
      const bool res = a.emit == core::ArcEmit::reservation;
      appendf(out, "  t%u -> p%u%s;\n", ti, static_cast<unsigned>(a.place),
              res ? " [style=dashed]" : "");
    }
    for (core::PlaceId sr : t.state_refs())
      appendf(out, "  p%u -> t%u [style=dotted, label=\"state\"];\n",
              static_cast<unsigned>(sr), ti);
  }

  out += "}\n";
  return out;
}

}  // namespace rcpn::gen
