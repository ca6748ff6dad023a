#include "gen/emit.hpp"

#include <cctype>
#include <cstdarg>
#include <cstdio>

namespace rcpn::gen {

namespace {

std::string sanitize(const std::string& name) {
  std::string out;
  for (char c : name)
    out += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
  if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0]))) out = "m_" + out;
  return out;
}

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

std::string emit_cpp(const CompiledModel& cm, const core::Net& net) {
  std::string out;
  const std::string ns = sanitize(net.name());
  out += "// Generated by rcpn::gen::emit_cpp from model '" + net.name() +
         "'. Do not edit.\n"
         "// Static schedule extracted by the engine build (paper §4, Fig 6/8):\n"
         "// candidate-transition runs per (place, type), reverse-topological place\n"
         "// order, two-list stage set, flat arc tables. Guards/actions are\n"
         "// runtime-bound delegates and are referenced by transition id only.\n"
         "#include <cstdint>\n\n"
         "namespace rcpn_gen::" +
         ns + " {\n\n";

  appendf(out, "constexpr unsigned kNumStages = %u;\n", cm.num_stages);
  appendf(out, "constexpr unsigned kNumPlaces = %u;\n", cm.num_places);
  appendf(out, "constexpr unsigned kNumTypes = %u;\n", cm.num_types);
  appendf(out, "constexpr unsigned kNumTransitions = %u;\n\n", cm.num_transitions);

  // Place tables.
  out += "// place id -> owning stage / residence delay\n";
  out += "constexpr std::int16_t kPlaceStage[kNumPlaces] = {";
  for (unsigned p = 0; p < cm.num_places; ++p)
    appendf(out, "%s%d", p ? ", " : "", static_cast<int>(cm.place_stage[p]));
  out += "};\n";
  out += "constexpr std::uint32_t kPlaceDelay[kNumPlaces] = {";
  for (unsigned p = 0; p < cm.num_places; ++p)
    appendf(out, "%s%u", p ? ", " : "", cm.place_delay[p]);
  out += "};\n\n";

  // Token-pool sizing (slots per stage + arena hints).
  out += "// token pools: slots reserved per stage; arena pre-allocation\n";
  out += "constexpr std::uint32_t kStageReserve[kNumStages] = {";
  for (unsigned s = 0; s < cm.num_stages; ++s)
    appendf(out, "%s%u", s ? ", " : "", cm.stage_reserve[s]);
  out += "};\n";
  appendf(out, "constexpr std::uint32_t kInstrPoolHint = %u;\n", cm.instr_pool_hint);
  appendf(out, "constexpr std::uint32_t kResPoolHint = %u;\n\n", cm.res_pool_hint);

  // Fig 8 process order.
  out += "// Fig 8 processing order (reverse topological; end places dropped)\n";
  appendf(out, "constexpr std::int16_t kProcessOrder[%zu] = {", cm.order.size());
  for (std::size_t i = 0; i < cm.order.size(); ++i)
    appendf(out, "%s%d /*%s*/", i ? ", " : "", static_cast<int>(cm.order[i]),
            net.place(cm.order[i]).name.c_str());
  out += "};\n\n";

  // Two-list set.
  out += "// stages using the two-list (master/slave) algorithm\n";
  appendf(out, "constexpr std::int16_t kTwoListStages[%zu] = {",
          cm.two_list_stages.empty() ? std::size_t{1} : cm.two_list_stages.size());
  for (std::size_t i = 0; i < cm.two_list_stages.size(); ++i)
    appendf(out, "%s%d /*%s*/", i ? ", " : "", static_cast<int>(cm.two_list_stages[i]),
            net.stage(cm.two_list_stages[i]).name().c_str());
  out += cm.two_list_stages.empty() ? "0};  // none\n\n" : "};\n\n";

  // Fig 6 table.
  out += "// Fig 6: (place, type) -> [begin, count) run in kBody\n";
  out += "struct CandRange { std::uint32_t begin, count; };\n";
  out += "constexpr CandRange kCell[kNumPlaces * kNumTypes] = {\n";
  for (unsigned p = 0; p < cm.num_places; ++p) {
    out += "    ";
    for (unsigned ty = 0; ty < cm.num_types; ++ty) {
      const CandRange& r = cm.cell[static_cast<std::size_t>(p) * cm.num_types + ty];
      appendf(out, "{%u, %u}, ", r.begin, r.count);
    }
    appendf(out, "// %s\n", net.place(static_cast<core::PlaceId>(p)).name.c_str());
  }
  out += "};\n\n";

  // Transition body table.
  out +=
      "// transition runs: {id, delay, resIn begin/count, out begin/count, "
      "simple}\n"
      "struct Tx { std::int16_t id; std::uint32_t delay; std::uint32_t resIn; "
      "std::uint16_t nResIn; std::uint32_t out; std::uint16_t nOut; bool simple; "
      "};\n";
  appendf(out, "constexpr Tx kBody[%zu] = {\n", cm.body.size());
  for (std::size_t bi = 0; bi < cm.body.size(); ++bi) {
    const CompiledTransition& ct = cm.body[bi];
    appendf(out, "    {%d, %u, %u, %u, %u, %u, %s},  // %s",
            static_cast<int>(ct.id), ct.delay, ct.res_in_begin, ct.n_res_in,
            ct.out_begin, ct.n_out, ct.simple ? "true" : "false",
            net.transition(ct.id).name().c_str());
    // Lowered delegate symbols (emit_simulator turns these into direct calls).
    const CompiledModel::DelegateSyms& sym = cm.body_syms[bi];
    if (!sym.guard.empty()) appendf(out, " guard=%s", sym.guard.c_str());
    if (!sym.action.empty()) appendf(out, " action=%s", sym.action.c_str());
    out += "\n";
  }
  out += "};\n";
  appendf(out, "constexpr Tx kIndependent[%zu] = {\n", cm.independent.size());
  for (const CompiledTransition& ct : cm.independent)
    appendf(out, "    {%d, %u, %u, %u, %u, %u, false},  // %s (max_fires %d)\n",
            static_cast<int>(ct.id), ct.delay, ct.res_in_begin, ct.n_res_in,
            ct.out_begin, ct.n_out, net.transition(ct.id).name().c_str(),
            ct.max_fires);
  out += "};\n\n";

  // Flat arc arrays.
  appendf(out, "constexpr std::int16_t kResIn[%zu] = {",
          cm.res_in.empty() ? 1 : cm.res_in.size());
  if (cm.res_in.empty()) out += "0  /* none */";
  for (std::size_t i = 0; i < cm.res_in.size(); ++i)
    appendf(out, "%s%d", i ? ", " : "", static_cast<int>(cm.res_in[i]));
  out += "};\n";
  out += "// output arcs: place id, negative = emit reservation\n";
  appendf(out, "constexpr std::int32_t kOutArcs[%zu] = {",
          cm.out_arcs.empty() ? 1 : cm.out_arcs.size());
  if (cm.out_arcs.empty()) out += "0  /* none */";
  for (std::size_t i = 0; i < cm.out_arcs.size(); ++i) {
    const StaticOutArc& a = cm.out_arcs[i];
    appendf(out, "%s%d", i ? ", " : "",
            a.reservation ? -(static_cast<int>(a.place) + 1)
                          : static_cast<int>(a.place) + 1);
  }
  out += "};\n\n";

  out += "}  // namespace rcpn_gen::" + ns + "\n";
  return out;
}

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
