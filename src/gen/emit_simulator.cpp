#include "gen/emit_simulator.hpp"

#include <cctype>
#include <cstdarg>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "core/options_signature.hpp"
#include "gen/embed.hpp"
#include "gen/generated.hpp"

namespace rcpn::gen {

namespace {

std::string sanitize(const std::string& name) {
  std::string out;
  for (char c : name)
    out += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
  if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0]))) out = "m_" + out;
  return out;
}

void appendf(std::string& out, const char* fmt, ...) {
  char buf[1024];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  out += buf;
}

/// Emit one `base.<flag> = true|false;` line per schedule-affecting option
/// (core::options_signature table), reproducing the stamped variant in the
/// emitted main()'s base EngineOptions.
void emit_base_option_lines(std::string& out, const core::EngineOptions& eo) {
  for (unsigned i = 0; i < core::num_schedule_options(); ++i)
    appendf(out, "  base.%s = %s;\n", core::schedule_option_name(i),
            core::schedule_option_get(i, eo) ? "true" : "false");
}

void emit_tx(std::string& out, const CompiledTransition& ct, const core::Net& net) {
  appendf(out,
          "      {%d, %d, %u, %u, %u, %u, %u, %d, %s},  // %s\n",
          static_cast<int>(ct.id), static_cast<int>(ct.move_place), ct.delay,
          ct.res_in_begin, ct.out_begin, ct.n_res_in, ct.n_out, ct.max_fires,
          ct.simple ? "true" : "false", net.transition(ct.id).name().c_str());
}

/// The guard/action dispatch switch: one case per transition that binds a
/// named delegate, calling it directly with the typed machine context.
void emit_dispatch(std::string& out, const core::Net& net, bool guards) {
  const char* fn = guards ? "guard" : "action";
  appendf(out,
          "  static %s %s(std::int16_t id, [[maybe_unused]] Machine& m,\n"
          "         %s     [[maybe_unused]] rcpn::core::FireCtx& ctx) {\n"
          "    switch (id) {\n",
          guards ? "bool" : "void", fn, guards ? " " : "");
  for (unsigned t = 0; t < net.num_transitions(); ++t) {
    const core::Transition& tr = net.transition(static_cast<core::TransitionId>(t));
    const std::string& sym = guards ? tr.guard_symbol() : tr.action_symbol();
    if (sym.empty()) continue;
    // The registered arity decides the call shape: (Machine&, FireCtx&) named
    // functions get the typed context, (FireCtx&)-only ones just the context.
    const bool takes_machine =
        guards ? tr.guard_symbol_takes_machine() : tr.action_symbol_takes_machine();
    const char* args = takes_machine ? "m, ctx" : "ctx";
    if (guards) {
      appendf(out, "      case %u: return ::%s(%s);  // %s\n", t, sym.c_str(), args,
              tr.name().c_str());
    } else {
      appendf(out, "      case %u: ::%s(%s); return;  // %s\n", t, sym.c_str(), args,
              tr.name().c_str());
    }
  }
  out += guards ? "      default: return true;\n" : "      default: return;\n";
  out += "    }\n  }\n";
}

}  // namespace

std::string emit_simulator(const CompiledModel& cm, const core::Net& net,
                           const EmitSimOptions& options) {
  // -- emittability checks ----------------------------------------------------
  if (net.emit_machine_type().empty())
    throw std::runtime_error("emit_simulator: model '" + net.name() +
                             "' declared no machine context type "
                             "(ModelBuilder::emit_machine_type)");
  std::string missing;
  for (unsigned t = 0; t < net.num_transitions(); ++t) {
    const core::Transition& tr = net.transition(static_cast<core::TransitionId>(t));
    if (tr.guard_fn() != nullptr && tr.guard_symbol().empty())
      missing += "\n  guard of '" + tr.name() + "'";
    if (tr.action_fn() != nullptr && tr.action_symbol().empty())
      missing += "\n  action of '" + tr.name() + "'";
  }
  if (!missing.empty())
    throw std::runtime_error(
        "emit_simulator: model '" + net.name() +
        "' binds anonymous delegates that cannot be emitted (register them "
        "as named free functions with guard_named/action_named):" +
        missing);

  const bool freestanding = options.mode == EmitMode::freestanding;
  if (freestanding && !options.machine_key.empty() && options.run_expr.empty())
    throw std::runtime_error(
        "emit_simulator: freestanding main() for '" + options.machine_key +
        "' needs EmitSimOptions::run_expr (the golden-runner call expression)");
  const bool generic_main = !options.generic_describe_expr.empty();
  if (generic_main && !options.machine_key.empty())
    throw std::runtime_error(
        "emit_simulator: machine_key and generic_describe_expr are mutually "
        "exclusive (a golden-runner main or a generic main, not both)");

  const core::EngineOptions& eo = options.engine_options;
  const std::uint32_t opt_key = generated_options_key(eo);

  const std::string ns = sanitize(net.name());
  std::string out;
  out +=
      "// Generated by rcpn::gen::emit_simulator from model '" + net.name() +
      "'. Do not edit.\n"
      "//\n"
      "// A complete standalone simulator for this model (paper §4-5): the\n"
      "// static schedule as constexpr tables, every guard/action as a direct\n"
      "// call to its named delegate (no void* environments), executed by a\n"
      "// gen::StaticEngine specialization instantiated in this translation\n"
      "// unit — compile with -O3 -flto for whole-program optimization. The\n"
      "// engine verifies every table against the live model at build() and\n"
      "// refuses to run a stale artifact.\n"
      "//\n";
  appendf(out,
          "// EngineOptions stamp: %s\n"
          "// — schedule variant [%s]; build() throws when run under any other\n"
          "// ablation.\n",
          core::options_signature(eo).c_str(),
          generated_options_desc(opt_key).c_str());

  if (freestanding) {
    out +=
        "//\n"
        "// FREESTANDING: the runtime subset below is inlined from the library\n"
        "// sources (src/gen/embed.hpp) — this file compiles with zero repo\n"
        "// includes and links against nothing but the C++ standard library:\n"
        "//\n"
        "//   c++ -std=c++20 -O3 -flto this_file.cpp\n";
#if RCPN_OBS
    // Freestanding TUs never see the cmake-level PUBLIC definition (they link
    // nothing), so an emitter built with the probe layer stamps it: the
    // emitted simulator then records the same event stream as the other three
    // backends and its CLI accepts --trace-json/--profile.
    out += "#define RCPN_OBS 1  // probes compiled in (emitter built with RCPN_OBS=ON)\n";
#endif
    out +=
        "#include <cstdint>\n"
        "#include <memory>\n"
        "\n";
    std::vector<std::string> roots = {"gen/static_engine.hpp", "gen/generated.hpp"};
    for (const std::string& inc : net.emit_includes()) roots.push_back(inc);
    for (const std::string& inc : options.extra_roots) roots.push_back(inc);
    if (!options.machine_key.empty()) roots.push_back("machines/golden_trace.hpp");
    if (generic_main) roots.push_back("machines/generic_main.hpp");
    out += amalgamate_sources(roots);
  } else {
    out +=
        "#include <cstdint>\n"
        "#include <memory>\n"
        "\n"
        "#include \"core/engine.hpp\"\n"
        "#include \"gen/generated.hpp\"\n"
        "#include \"gen/static_engine.hpp\"\n";
    std::vector<std::string> seen;
    for (const std::string& inc : net.emit_includes()) {
      bool dup = false;
      for (const std::string& s : seen) dup = dup || s == inc;
      if (dup) continue;
      seen.push_back(inc);
      out += "#include \"" + inc + "\"\n";
    }
    if (!options.machine_key.empty())
      out += "#include \"machines/golden_runner.hpp\"\n";
    if (generic_main) out += "#include \"machines/generic_main.hpp\"\n";
  }

  out +=
      "\n"
      "namespace rcpn_gen {\n"
      "namespace {\n"
      "namespace " +
      ns +
      " {\n"
      "\n"
      "struct Traits {\n"
      "  using Machine = " +
      net.emit_machine_type() +
      ";\n"
      "  static constexpr const char* kModelName = \"" +
      net.name() + "\";\n\n"
      "  // schedule-affecting EngineOptions the tables were lowered under\n"
      "  // (core::options_bits; StaticEngine::build() verifies the key\n"
      "  // against the live options)\n";
  appendf(out, "  static constexpr std::uint32_t kOptionsKey = %uu;  // %s\n\n",
          opt_key, core::options_signature(eo).c_str());

  appendf(out, "  static constexpr unsigned kNumStages = %u;\n", cm.num_stages);
  appendf(out, "  static constexpr unsigned kNumPlaces = %u;\n", cm.num_places);
  appendf(out, "  static constexpr unsigned kNumTypes = %u;\n", cm.num_types);
  appendf(out, "  static constexpr unsigned kNumTransitions = %u;\n", cm.num_transitions);
  appendf(out, "  static constexpr unsigned kNumOrder = %zu;\n", cm.order.size());
  appendf(out, "  static constexpr unsigned kNumTwoList = %zu;\n",
          cm.two_list_stages.size());
  appendf(out, "  static constexpr unsigned kNumBody = %zu;\n", cm.body.size());
  appendf(out, "  static constexpr unsigned kNumIndependent = %zu;\n\n",
          cm.independent.size());

  // Place tables.
  out += "  // place id -> owning stage / residence delay\n";
  out += "  static constexpr std::int16_t kPlaceStage[kNumPlaces] = {";
  for (unsigned p = 0; p < cm.num_places; ++p)
    appendf(out, "%s%d", p ? ", " : "", static_cast<int>(cm.place_stage[p]));
  out += "};\n";
  out += "  static constexpr std::uint32_t kPlaceDelay[kNumPlaces] = {";
  for (unsigned p = 0; p < cm.num_places; ++p)
    appendf(out, "%s%u", p ? ", " : "", cm.place_delay[p]);
  out += "};\n\n";

  // Token-pool sizing.
  out += "  // token pools: slots reserved per stage; arena pre-allocation\n";
  out += "  static constexpr std::uint32_t kStageReserve[kNumStages] = {";
  for (unsigned s = 0; s < cm.num_stages; ++s)
    appendf(out, "%s%u", s ? ", " : "", cm.stage_reserve[s]);
  out += "};\n";
  appendf(out, "  static constexpr std::uint32_t kInstrPoolHint = %u;\n",
          cm.instr_pool_hint);
  appendf(out, "  static constexpr std::uint32_t kResPoolHint = %u;\n\n",
          cm.res_pool_hint);

  // Fig 8 process order (reverse topological; end places dropped).
  out += "  // Fig 8 processing order (reverse topological; end places dropped)\n";
  appendf(out, "  static constexpr std::int16_t kProcessOrder[%zu] = {",
          cm.order.empty() ? std::size_t{1} : cm.order.size());
  for (std::size_t i = 0; i < cm.order.size(); ++i)
    appendf(out, "%s%d /*%s*/", i ? ", " : "", static_cast<int>(cm.order[i]),
            net.place(cm.order[i]).name.c_str());
  out += cm.order.empty() ? "0};  // none\n" : "};\n";

  // Two-list set.
  out += "  // stages using the two-list (master/slave) algorithm\n";
  appendf(out, "  static constexpr std::int16_t kTwoListStages[%zu] = {",
          cm.two_list_stages.empty() ? std::size_t{1} : cm.two_list_stages.size());
  for (std::size_t i = 0; i < cm.two_list_stages.size(); ++i)
    appendf(out, "%s%d /*%s*/", i ? ", " : "", static_cast<int>(cm.two_list_stages[i]),
            net.stage(cm.two_list_stages[i]).name().c_str());
  out += cm.two_list_stages.empty() ? "0};  // none\n\n" : "};\n\n";

  // Fig 6 table.
  out += "  // Fig 6: (place, type) -> [begin, count) run in kBody\n";
  appendf(out, "  static constexpr rcpn::gen::CandRange kCell[%zu] = {\n",
          cm.cell.empty() ? std::size_t{1} : cm.cell.size());
  if (cm.cell.empty()) out += "      {0, 0},  // none\n";
  for (unsigned p = 0; p < cm.num_places; ++p) {
    out += "      ";
    for (unsigned ty = 0; ty < cm.num_types; ++ty) {
      const CandRange& r = cm.cell[static_cast<std::size_t>(p) * cm.num_types + ty];
      appendf(out, "{%u, %u}, ", r.begin, r.count);
    }
    appendf(out, "// %s\n", net.place(static_cast<core::PlaceId>(p)).name.c_str());
  }
  out += "  };\n\n";

  // Transition tables.
  out +=
      "  // transition rows: {id, movePlace, delay, resIn begin, out begin,\n"
      "  //                   nResIn, nOut, maxFires, simple}\n";
  appendf(out, "  static constexpr rcpn::gen::StaticTx kBody[%zu] = {\n",
          cm.body.empty() ? std::size_t{1} : cm.body.size());
  if (cm.body.empty()) out += "      {},  // none\n";
  for (const CompiledTransition& ct : cm.body) emit_tx(out, ct, net);
  out += "  };\n";
  appendf(out, "  static constexpr rcpn::gen::StaticTx kIndependent[%zu] = {\n",
          cm.independent.empty() ? std::size_t{1} : cm.independent.size());
  if (cm.independent.empty()) out += "      {},  // none\n";
  for (const CompiledTransition& ct : cm.independent) emit_tx(out, ct, net);
  out += "  };\n\n";

  // Flat arc arrays.
  appendf(out, "  static constexpr std::int16_t kResIn[%zu] = {",
          cm.res_in.empty() ? std::size_t{1} : cm.res_in.size());
  if (cm.res_in.empty()) out += "0  /* none */";
  for (std::size_t i = 0; i < cm.res_in.size(); ++i)
    appendf(out, "%s%d", i ? ", " : "", static_cast<int>(cm.res_in[i]));
  out += "};\n";
  appendf(out, "  static constexpr rcpn::gen::StaticOutArc kOutArcs[%zu] = {",
          cm.out_arcs.empty() ? std::size_t{1} : cm.out_arcs.size());
  if (cm.out_arcs.empty()) out += "{0, false}  /* none */";
  for (std::size_t i = 0; i < cm.out_arcs.size(); ++i)
    appendf(out, "%s{%d, %s}", i ? ", " : "", static_cast<int>(cm.out_arcs[i].place),
            cm.out_arcs[i].reservation ? "true" : "false");
  out += "};\n\n";

  // Delegate bindings: the symbol each transition dispatches to, verified
  // against the live model at build() so a stale binary with rebound
  // delegates refuses to run (presence alone would miss a swapped symbol).
  out += "  // transition id -> bound delegate symbol (\"\" = none); verified live\n";
  out += "  static constexpr const char* kGuardSym[kNumTransitions] = {";
  for (unsigned t = 0; t < net.num_transitions(); ++t)
    appendf(out, "%s\"%s\"", t ? ", " : "",
            net.transition(static_cast<core::TransitionId>(t)).guard_symbol().c_str());
  out += "};\n";
  out += "  static constexpr const char* kActionSym[kNumTransitions] = {";
  for (unsigned t = 0; t < net.num_transitions(); ++t)
    appendf(out, "%s\"%s\"", t ? ", " : "",
            net.transition(static_cast<core::TransitionId>(t)).action_symbol().c_str());
  out += "};\n\n";

  // Delegate presence + the direct-call dispatch switches.
  out += "  // transition id -> delegate presence (gates the dispatch calls)\n";
  out += "  static constexpr bool kHasGuard[kNumTransitions] = {";
  for (unsigned t = 0; t < net.num_transitions(); ++t)
    appendf(out, "%s%s", t ? ", " : "",
            net.transition(static_cast<core::TransitionId>(t)).has_guard() ? "true"
                                                                           : "false");
  out += "};\n";
  out += "  static constexpr bool kHasAction[kNumTransitions] = {";
  for (unsigned t = 0; t < net.num_transitions(); ++t)
    appendf(out, "%s%s", t ? ", " : "",
            net.transition(static_cast<core::TransitionId>(t)).has_action() ? "true"
                                                                            : "false");
  out += "};\n\n";

  out += "  // direct calls to the model's named delegates (no void* env)\n";
  emit_dispatch(out, net, /*guards=*/true);
  out += "\n";
  emit_dispatch(out, net, /*guards=*/false);

  out +=
      "};\n"
      "\n"
      "std::unique_ptr<rcpn::core::Engine> make_engine(rcpn::core::Net& net,\n"
      "                                                rcpn::core::EngineOptions "
      "options) {\n"
      "  return std::make_unique<rcpn::gen::StaticEngine<Traits>>(net, options);\n"
      "}\n"
      "\n"
      "// Linking this TU into a binary makes Backend::generated resolve to the\n"
      "// engine above for this model, under exactly the stamped options.\n"
      "[[maybe_unused]] const bool kRegistered =\n"
      "    (rcpn::gen::register_generated_engine(\n"
      "         \"" +
      net.name() +
      "\",\n"
      "         Traits::kOptionsKey,\n"
      "         &make_engine),\n"
      "     true);\n"
      "\n"
      "}  // namespace " +
      ns +
      "\n"
      "}  // namespace\n"
      "}  // namespace rcpn_gen\n";

  if (!options.machine_key.empty()) {
    if (freestanding) {
      out +=
          "\n"
          "// Run the golden workload on the generated engine; with --golden FILE\n"
          "// diff the cycle-stamped retire trace and report the first divergence.\n"
          "// The base options reproduce the stamped emission variant.\n"
          "int main(int argc, char** argv) {\n"
          "  rcpn::core::EngineOptions base;\n";
      emit_base_option_lines(out, eo);
      out +=
          "  return rcpn::machines::golden_cli_main(\n"
          "      argc, argv, \"" +
          options.machine_key +
          "\",\n"
          "      [](rcpn::core::EngineOptions options) {\n"
          "        return " +
          options.run_expr +
          ";\n"
          "      },\n"
          "      base";
      if (!options.session_expr.empty()) {
        out +=
            ",\n"
            "      [](rcpn::core::EngineOptions options) {\n"
            "        return " +
            options.session_expr +
            ";\n"
            "      }";
      }
      out += ");\n}\n";
    } else {
      out +=
          "\n"
          "// Run the golden workload on the generated engine; with --golden FILE\n"
          "// diff the cycle-stamped retire trace and report the first divergence.\n"
          "int main(int argc, char** argv) {\n"
          "  return rcpn::machines::generated_main(argc, argv, \"" +
          options.machine_key + "\");\n}\n";
    }
  }

  if (generic_main) {
    const std::string mtype = net.emit_machine_type();
    const std::string workload =
        !options.generic_workload_expr.empty()
            ? options.generic_workload_expr
            : "[](" + mtype + "&, const std::vector<std::string>&) {}";
    const std::string done = !options.generic_done_expr.empty()
                                 ? options.generic_done_expr
                                 : "[](const " + mtype + "&) { return false; }";
    out +=
        "\n"
        "// Generic CLI main: --cycles N caps the run, positional arguments are\n"
        "// the workload; see machines/generic_main.hpp. The base options\n"
        "// reproduce the stamped emission variant.\n"
        "int main(int argc, char** argv) {\n"
        "  rcpn::core::EngineOptions base;\n";
    emit_base_option_lines(out, eo);
    out += "  return rcpn::machines::generic_cli_main<" + mtype +
           ">(\n"
           "      argc, argv, \"" +
           net.name() +
           "\",\n"
           "      " +
           options.generic_describe_expr +
           ",\n"
           "      " +
           workload +
           ",\n"
           "      " +
           done +
           ",\n"
           "      base);\n"
           "}\n";
  }
  return out;
}

}  // namespace rcpn::gen
