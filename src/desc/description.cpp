#include "desc/description.hpp"

#include <charconv>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>

#include "core/options_signature.hpp"
#include "desc/delegate_registry.hpp"

namespace rcpn::desc {

using model::ModelError;

namespace {

[[noreturn]] void bad(std::size_t line, const std::string& what) {
  throw ModelError("description line " + std::to_string(line) + ": " + what);
}

/// A serializable identifier: non-empty, no whitespace or '#', and not
/// claiming the '@'-reserved namespace ("@end" is the virtual end place).
void check_name(const std::string& name, const char* kind) {
  bool ok = !name.empty() && name[0] != '@';
  for (char c : name)
    ok = ok && c != ' ' && c != '\t' && c != '\n' && c != '\r' && c != '#';
  if (!ok)
    throw ModelError(std::string("description: ") + kind + " name '" + name +
                     "' is not serializable (empty, leading '@', whitespace or '#')");
}

/// Parse a decimal number into a field of type T. A value above T's maximum
/// is rejected naming the limit, never truncated.
template <typename T = std::uint64_t>
T parse_num(std::string_view token, std::size_t line, const char* what) {
  std::uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(token.begin(), token.end(), value);
  if (ec != std::errc{} || ptr != token.end())
    bad(line, std::string(what) + " '" + std::string(token) + "' is not a number");
  const auto max = static_cast<std::uint64_t>(std::numeric_limits<T>::max());
  if (value > max)
    bad(line, std::string(what) + " " + std::string(token) + " exceeds the limit " +
                  std::to_string(max));
  return static_cast<T>(value);
}

std::vector<std::string_view> split_tokens(std::string_view s) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t')) ++i;
    std::size_t j = i;
    while (j < s.size() && s[j] != ' ' && s[j] != '\t') ++j;
    if (j > i) out.push_back(s.substr(i, j - i));
    i = j;
  }
  return out;
}

/// "key=value" attribute, or empty key when the token has no '='.
std::pair<std::string_view, std::string_view> split_attr(std::string_view token) {
  const std::size_t eq = token.find('=');
  if (eq == std::string_view::npos) return {{}, token};
  return {token.substr(0, eq), token.substr(eq + 1)};
}

/// Delegate arity keyword: the call shape emitted and bound for the symbol.
const char* arity_word(bool takes_machine) { return takes_machine ? "machine" : "ctx"; }

void append_delegate(std::string& out, const char* kind, const DescDelegate& d) {
  if (d.symbol.empty()) return;
  out += "  ";
  out += kind;
  out += " ";
  out += d.symbol;
  out += " ";
  out += arity_word(d.takes_machine);
  out += "\n";
}

}  // namespace

std::string to_text(const Description& d) {
  check_name(d.model, "model");
  std::string out;
  out += d.version;
  out += "\n";
  out += "model " + d.model + "\n";
  if (!d.machine_type.empty()) out += "machine " + d.machine_type + "\n";
  for (const std::string& h : d.includes) out += "include " + h + "\n";
  if (!d.options.empty()) out += "options " + d.options + "\n";
  out += "deadlock_limit " + std::to_string(d.deadlock_limit) + "\n";

  out += "\n";
  for (const DescStage& s : d.stages) {
    check_name(s.name, "stage");
    out += "stage " + s.name + " capacity=" + std::to_string(s.capacity);
    if (s.forced_two_list >= 0)
      out += std::string(" two_list=") + (s.forced_two_list ? "1" : "0");
    out += "\n";
  }
  for (const DescPlace& p : d.places) {
    check_name(p.name, "place");
    if (p.end) {
      out += "end_place " + p.name + "\n";
    } else {
      check_name(p.stage, "stage");
      out += "place " + p.name + " stage=" + p.stage;
      if (p.delay != 1) out += " delay=" + std::to_string(p.delay);
      out += "\n";
    }
  }
  for (const std::string& t : d.types) {
    check_name(t, "type");
    out += "type " + t + "\n";
  }

  for (const DescTransition& t : d.transitions) {
    check_name(t.name, "transition");
    out += "\n";
    if (t.independent) {
      out += "independent " + t.name + "\n";
    } else {
      check_name(t.type, "type");
      out += "transition " + t.name + " type=" + t.type + "\n";
    }
    const auto arc_place = [](const std::string& name) {
      if (name != kEndPlaceName) check_name(name, "place");
      return name;
    };
    for (const DescArcIn& a : t.in) {
      if (a.reservation) {
        out += "  consume " + arc_place(a.place) + "\n";
      } else {
        out += "  from " + arc_place(a.place);
        if (a.priority != 0) out += " priority=" + std::to_string(a.priority);
        out += "\n";
      }
    }
    for (const DescArcOut& a : t.out)
      out += (a.reservation ? "  emit " : "  to ") + arc_place(a.place) + "\n";
    for (const std::string& p : t.state_refs)
      out += "  reads_state " + arc_place(p) + "\n";
    if (t.delay != 0) out += "  delay " + std::to_string(t.delay) + "\n";
    if (t.max_fires != 1) out += "  max_fires " + std::to_string(t.max_fires) + "\n";
    append_delegate(out, "guard", t.guard);
    append_delegate(out, "action", t.action);
    out += "end\n";
  }
  return out;
}

Description parse(std::string_view text) {
  Description d;
  d.version.clear();
  d.deadlock_limit = core::EngineOptions{}.deadlock_limit;

  DescTransition* open = nullptr;  // transition block being filled
  bool saw_version = false;
  std::size_t line_no = 0;

  std::string_view rest = text;
  while (!rest.empty() || line_no == 0) {
    if (rest.empty()) break;
    const std::size_t nl = rest.find('\n');
    std::string_view line = nl == std::string_view::npos ? rest : rest.substr(0, nl);
    rest = nl == std::string_view::npos ? std::string_view{} : rest.substr(nl + 1);
    ++line_no;
    if (const std::size_t hash = line.find('#'); hash != std::string_view::npos)
      line = line.substr(0, hash);
    const std::vector<std::string_view> tok = split_tokens(line);
    if (tok.empty()) continue;

    if (!saw_version) {
      // The whole first non-blank line is the version tag.
      if (tok.size() != 1 || tok[0] != kDescVersion)
        bad(line_no, "unsupported description version '" +
                         std::string(tok.size() == 1 ? tok[0] : line) +
                         "' (this library reads " + std::string(kDescVersion) + ")");
      d.version = std::string(tok[0]);
      saw_version = true;
      continue;
    }

    const std::string_view kw = tok[0];
    const auto need = [&](std::size_t n, const char* usage) {
      if (tok.size() < n) bad(line_no, std::string("expected: ") + usage);
    };

    if (open != nullptr) {
      if (kw == "end") {
        open = nullptr;
      } else if (kw == "from") {
        need(2, "from <place> [priority=N]");
        DescArcIn a;
        a.place = std::string(tok[1]);
        for (std::size_t i = 2; i < tok.size(); ++i) {
          const auto [k, v] = split_attr(tok[i]);
          if (k == "priority")
            a.priority = parse_num<std::uint8_t>(v, line_no, "priority");
          else
            bad(line_no, "unknown from-arc attribute '" + std::string(tok[i]) + "'");
        }
        open->in.push_back(std::move(a));
      } else if (kw == "consume") {
        need(2, "consume <place>");
        open->in.push_back({std::string(tok[1]), /*reservation=*/true, 0});
      } else if (kw == "to") {
        need(2, "to <place>");
        open->out.push_back({std::string(tok[1]), /*reservation=*/false});
      } else if (kw == "emit") {
        need(2, "emit <place>");
        open->out.push_back({std::string(tok[1]), /*reservation=*/true});
      } else if (kw == "reads_state") {
        need(2, "reads_state <place>");
        open->state_refs.push_back(std::string(tok[1]));
      } else if (kw == "delay") {
        need(2, "delay <cycles>");
        open->delay = parse_num<std::uint32_t>(tok[1], line_no, "delay");
      } else if (kw == "max_fires") {
        need(2, "max_fires <n>");
        open->max_fires = parse_num<int>(tok[1], line_no, "max_fires");
      } else if (kw == "guard" || kw == "action") {
        need(3, "guard|action <symbol> machine|ctx");
        DescDelegate del;
        del.symbol = std::string(tok[1]);
        if (tok[2] == "machine") {
          del.takes_machine = true;
        } else if (tok[2] == "ctx") {
          del.takes_machine = false;
        } else {
          bad(line_no, "delegate arity must be 'machine' or 'ctx', got '" +
                           std::string(tok[2]) + "'");
        }
        (kw == "guard" ? open->guard : open->action) = std::move(del);
      } else {
        bad(line_no, "unknown directive '" + std::string(kw) + "' in transition block");
      }
      continue;
    }

    if (kw == "model") {
      need(2, "model <name>");
      d.model = std::string(tok[1]);
    } else if (kw == "machine") {
      need(2, "machine <type>");
      d.machine_type = std::string(tok[1]);
    } else if (kw == "include") {
      need(2, "include <header>");
      d.includes.push_back(std::string(tok[1]));
    } else if (kw == "options") {
      need(2, "options <signature>");
      d.options = std::string(tok[1]);
    } else if (kw == "deadlock_limit") {
      need(2, "deadlock_limit <cycles>");
      d.deadlock_limit = parse_num(tok[1], line_no, "deadlock_limit");
    } else if (kw == "stage") {
      need(2, "stage <name> capacity=N [two_list=0|1]");
      DescStage s;
      s.name = std::string(tok[1]);
      for (std::size_t i = 2; i < tok.size(); ++i) {
        const auto [k, v] = split_attr(tok[i]);
        if (k == "capacity")
          s.capacity = parse_num<std::uint32_t>(v, line_no, "capacity");
        else if (k == "two_list")
          s.forced_two_list = parse_num(v, line_no, "two_list") != 0 ? 1 : 0;
        else
          bad(line_no, "unknown stage attribute '" + std::string(tok[i]) + "'");
      }
      d.stages.push_back(std::move(s));
    } else if (kw == "place") {
      need(2, "place <name> stage=S [delay=N]");
      DescPlace p;
      p.name = std::string(tok[1]);
      for (std::size_t i = 2; i < tok.size(); ++i) {
        const auto [k, v] = split_attr(tok[i]);
        if (k == "stage")
          p.stage = std::string(v);
        else if (k == "delay")
          p.delay = parse_num<std::uint32_t>(v, line_no, "delay");
        else
          bad(line_no, "unknown place attribute '" + std::string(tok[i]) + "'");
      }
      if (p.stage.empty()) bad(line_no, "place '" + p.name + "' names no stage");
      d.places.push_back(std::move(p));
    } else if (kw == "end_place") {
      need(2, "end_place <name>");
      DescPlace p;
      p.name = std::string(tok[1]);
      p.end = true;
      d.places.push_back(std::move(p));
    } else if (kw == "type") {
      need(2, "type <name>");
      d.types.push_back(std::string(tok[1]));
    } else if (kw == "transition") {
      need(3, "transition <name> type=T");
      DescTransition t;
      t.name = std::string(tok[1]);
      const auto [k, v] = split_attr(tok[2]);
      if (k != "type")
        bad(line_no, "transition '" + t.name + "' needs a type=... attribute");
      t.type = std::string(v);
      d.transitions.push_back(std::move(t));
      open = &d.transitions.back();
    } else if (kw == "independent") {
      need(2, "independent <name>");
      DescTransition t;
      t.name = std::string(tok[1]);
      t.independent = true;
      d.transitions.push_back(std::move(t));
      open = &d.transitions.back();
    } else {
      bad(line_no, "unknown directive '" + std::string(kw) + "'");
    }
  }

  if (!saw_version)
    throw ModelError("description is empty — expected a '" +
                     std::string(kDescVersion) + "' version line");
  if (open != nullptr)
    throw ModelError("description ends inside transition '" + open->name +
                     "' (missing 'end')");
  if (d.model.empty()) throw ModelError("description declares no model name");
  return d;
}

Description describe_net(const core::Net& net, const core::EngineOptions& options) {
  Description d;
  d.model = net.name();
  d.machine_type = net.emit_machine_type();
  d.includes = net.emit_includes();
  d.options = core::options_signature(options);
  d.deadlock_limit = options.deadlock_limit;

  // Declared stages (id 0 is the automatic virtual end stage).
  for (unsigned s = 1; s < net.num_stages(); ++s) {
    const core::PipelineStage& st = net.stage(static_cast<core::StageId>(s));
    DescStage ds;
    ds.name = st.name();
    ds.capacity = st.capacity();
    if (st.two_list_forced()) ds.forced_two_list = st.two_list() ? 1 : 0;
    d.stages.push_back(std::move(ds));
  }

  // Declared places (id 0 is the automatic virtual end place).
  for (unsigned p = 1; p < net.num_places(); ++p) {
    const core::Place& pl = net.place(static_cast<core::PlaceId>(p));
    DescPlace dp;
    dp.name = pl.name;
    if (net.stage(pl.stage).is_end()) {
      dp.end = true;
    } else {
      dp.stage = net.stage(pl.stage).name();
      dp.delay = pl.delay;
    }
    d.places.push_back(std::move(dp));
  }

  for (unsigned t = 0; t < net.num_types(); ++t)
    d.types.push_back(net.type_name(static_cast<core::TypeId>(t)));

  const auto place_name = [&net](core::PlaceId p) -> std::string {
    return p == net.end_place() ? kEndPlaceName : net.place(p).name;
  };

  std::string anonymous;
  for (unsigned t = 0; t < net.num_transitions(); ++t) {
    const core::Transition& tr = net.transition(static_cast<core::TransitionId>(t));
    if (tr.guard_fn() != nullptr && tr.guard_symbol().empty())
      anonymous += "\n  guard of '" + tr.name() + "'";
    if (tr.action_fn() != nullptr && tr.action_symbol().empty())
      anonymous += "\n  action of '" + tr.name() + "'";

    DescTransition dt;
    dt.name = tr.name();
    dt.independent = tr.independent();
    if (!dt.independent) dt.type = net.type_name(tr.subnet());
    for (const core::InArc& a : tr.inputs())
      dt.in.push_back({place_name(a.place), a.need == core::ArcNeed::reservation,
                       a.priority});
    for (const core::OutArc& a : tr.outputs())
      dt.out.push_back({place_name(a.place), a.emit == core::ArcEmit::reservation});
    for (const core::PlaceId p : tr.state_refs())
      dt.state_refs.push_back(place_name(p));
    dt.delay = tr.delay();
    dt.max_fires = tr.max_fires_per_cycle();
    if (!tr.guard_symbol().empty())
      dt.guard = {tr.guard_symbol(), tr.guard_symbol_takes_machine()};
    if (!tr.action_symbol().empty())
      dt.action = {tr.action_symbol(), tr.action_symbol_takes_machine()};
    d.transitions.push_back(std::move(dt));
  }

  if (!anonymous.empty())
    throw ModelError(
        "model '" + d.model +
        "' binds anonymous delegates that cannot be serialized (register them "
        "as named free functions in a DelegateRegistry):" +
        anonymous);
  return d;
}

core::EngineOptions engine_options(const Description& d, core::EngineOptions base) {
  try {
    core::apply_options_signature(base, d.options);
  } catch (const std::invalid_argument& e) {
    throw ModelError("description of model '" + d.model + "': " + e.what());
  }
  base.deadlock_limit = d.deadlock_limit;
  return base;
}

Description read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ModelError("cannot read model description file '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  try {
    return parse(text.str());
  } catch (const ModelError& e) {
    throw ModelError(path + ": " + e.what());
  }
}

void write_file(const std::string& path, const Description& d) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw ModelError("cannot write model description file '" + path + "'");
  out << to_text(d);
  if (!out.flush()) throw ModelError("failed writing model description file '" + path + "'");
}

std::string canonical_file_name(const Description& d) {
  std::string name;
  for (char c : d.model)
    name += static_cast<char>(c >= 'A' && c <= 'Z' ? c - 'A' + 'a' : c);
  return name + ".rcpn";
}

}  // namespace rcpn::desc

namespace rcpn::model {

desc::Description ModelBuilderBase::describe(const core::EngineOptions& options) const {
  if (!built())
    throw ModelError("model '" + name_ +
                     "': describe() requires a built model (call build() first)");
  return desc::describe_net(*net_, options);
}

void ModelBuilderBase::from_description(const desc::Description& d,
                                        const desc::DelegateRegistry& registry) {
  if (d.version != desc::kDescVersion)
    throw ModelError("model description version '" + d.version +
                     "' is not supported (this library reads " +
                     std::string(desc::kDescVersion) + ")");
  if (built() || !stages_.empty() || !places_.empty() || !types_.empty() ||
      !transitions_.empty())
    throw ModelError("from_description requires an empty, un-built builder "
                     "(model '" + name_ + "' already has declarations)");
  if (!d.machine_type.empty() && d.machine_type != registry.machine_type())
    throw ModelError("description of model '" + d.model +
                     "' names machine type '" + d.machine_type +
                     "' but the DelegateRegistry binds '" +
                     registry.machine_type() + "'");

  name_ = d.model;
  use_delegates_checked(registry, std::type_index(typeid(void)));

  std::map<std::string, StageHandle> stages;
  std::map<std::string, PlaceHandle> places;
  std::map<std::string, TypeHandle> types;

  for (const desc::DescStage& s : d.stages) {
    const StageHandle h = add_stage(s.name, s.capacity);
    if (s.forced_two_list >= 0) force_two_list(h, s.forced_two_list != 0);
    stages.emplace(s.name, h);
  }
  for (const desc::DescPlace& p : d.places) {
    if (p.end) {
      places.emplace(p.name, add_end_place(p.name));
      continue;
    }
    const auto st = stages.find(p.stage);
    if (st == stages.end())
      throw ModelError("description of model '" + d.model + "': place '" + p.name +
                       "' is bound to unknown stage '" + p.stage + "'");
    places.emplace(p.name, add_place(p.name, st->second, p.delay));
  }
  for (const std::string& t : d.types) types.emplace(t, add_type(t));

  const auto place_of = [&](const std::string& name,
                            const std::string& where) -> PlaceHandle {
    if (name == desc::kEndPlaceName) return end();
    const auto it = places.find(name);
    if (it == places.end())
      throw ModelError("description of model '" + d.model + "': transition '" +
                       where + "' references unknown place '" + name + "'");
    return it->second;
  };

  for (const desc::DescTransition& t : d.transitions) {
    TypeHandle type;
    if (!t.independent) {
      const auto it = types.find(t.type);
      if (it == types.end())
        throw ModelError("description of model '" + d.model + "': transition '" +
                         t.name + "' has unknown type '" + t.type + "'");
      type = it->second;
    }
    TransitionHandle h;
    TransitionDef& def = add_transition_def(t.name, type, t.independent, &h);
    for (const desc::DescArcIn& a : t.in)
      def.in.push_back({place_of(a.place, t.name), a.reservation, a.priority});
    for (const desc::DescArcOut& a : t.out)
      def.out.push_back({place_of(a.place, t.name), a.reservation});
    for (const std::string& p : t.state_refs)
      def.state_refs.push_back(place_of(p, t.name));
    def.delay = t.delay;
    def.max_fires = t.max_fires;
    if (!t.guard.symbol.empty()) {
      bind_guard_ref(def, t.guard.symbol);
      if (def.guard_symbol_machine != t.guard.takes_machine)
        throw ModelError("description of model '" + d.model + "': guard '" +
                         t.guard.symbol + "' of transition '" + t.name +
                         "' is declared with arity '" +
                         (t.guard.takes_machine ? "machine" : "ctx") +
                         "' but the registry binding takes '" +
                         (def.guard_symbol_machine ? "machine" : "ctx") + "'");
    }
    if (!t.action.symbol.empty()) {
      bind_action_ref(def, t.action.symbol);
      if (def.action_symbol_machine != t.action.takes_machine)
        throw ModelError("description of model '" + d.model + "': action '" +
                         t.action.symbol + "' of transition '" + t.name +
                         "' is declared with arity '" +
                         (t.action.takes_machine ? "machine" : "ctx") +
                         "' but the registry binding takes '" +
                         (def.action_symbol_machine ? "machine" : "ctx") + "'");
    }
  }
}

}  // namespace rcpn::model
