// rcpn_emit: the model-as-data command line — serialize machines to .rcpn
// descriptions and generate standalone C++ simulators from keys or files.
//
//   rcpn_emit list                         # what machines exist
//   rcpn_emit describe fig2 --out fig2.rcpn   # machine -> .rcpn description
//   rcpn_emit emit fig2 --out gen_fig2.cpp    # machine -> simulator program
//   rcpn_emit emit models/strongarm.rcpn      # .rcpn -> simulator program
//   rcpn_emit emit fig2 --no-main             # engine TU for a librcpn binary
//   rcpn_emit fuzz 7 --out gen_fuzz7.cpp      # shorthand for emit fuzz-7
//
// The generate→compile→verify workflow (see README "Generated simulators"):
// the emitted program inlines the runtime subset, so it needs no -I and no
// library at all:
//
//   ./rcpn_emit emit fig2 --out gen_fig2.cpp               # 1. generate
//   g++ -std=c++20 -O3 -flto gen_fig2.cpp -o gen_fig2      # 2. compile
//   ./gen_fig2 --golden tests/golden/fig2.trace            # 3. verify
//
// When `emit` is handed a .rcpn file the description's recorded engine
// options are the base and explicit CLI flags override them; delegate
// symbols resolve through the library's shipped registries
// (machines/desc_machines.hpp).
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "desc/description.hpp"
#include "gen/compiled_engine.hpp"
#include "gen/emit.hpp"
#include "gen/emit_simulator.hpp"
#include "machines/desc_machines.hpp"
#include "machines/fuzz_model.hpp"
#include "machines/golden_runner.hpp"

using namespace rcpn;

namespace {

int usage(const char* argv0, int code) {
  std::fprintf(stderr,
               "usage: %s <command> ...\n"
               "commands:\n"
               "  list\n"
               "      print the machine keys this build ships\n"
               "  describe <machine> [--out FILE] [schedule flags]\n"
               "      serialize the machine's model to a canonical .rcpn\n"
               "      description (stdout unless --out)\n"
               "  emit <machine|file.rcpn> [--out FILE] [--no-main] [--dot]\n"
               "       [schedule flags]\n"
               "      generate the standalone C++ simulator program: the runtime\n"
               "      subset is inlined, so it compiles with no repo includes and\n"
               "      links against nothing but the C++ standard library\n"
               "  fuzz <seed> [emit flags]\n"
               "      shorthand for `emit fuzz-<seed>`\n"
               "  machine: one of",
               argv0);
  for (const std::string& key : machines::golden_machine_keys())
    std::fprintf(stderr, " %s", key.c_str());
  std::fprintf(stderr,
               ", fuzz-<seed> (seeded random model),\n"
               "  or a path ending in .rcpn (the description's recorded engine\n"
               "  options are the base; explicit flags below override them)\n"
               "  schedule flags: --force-two-list-all --no-two-list-state-refs\n"
               "                  (emit an ablation-variant schedule, stamped and\n"
               "                  verified at build())\n"
               "  --no-main: emit engine + registrar only, #including the library\n"
               "             (link into a binary that links librcpn)\n"
               "  --dot:     emit the model structure for graphviz (gen::emit_dot)\n");
  return code;
}

/// Write `source` to `out_path`, or stdout when the path is empty.
int write_output(const std::string& source, const std::string& out_path) {
  if (out_path.empty()) {
    std::fputs(source.c_str(), stdout);
    return 0;
  }
  std::ofstream out(out_path);
  out << source;
  if (!out.good()) {
    std::fprintf(stderr, "rcpn_emit: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(stderr, "rcpn_emit: wrote %s (%zu bytes)\n", out_path.c_str(),
               source.size());
  return 0;
}

/// Which schedule flags the command line explicitly set — .rcpn inputs use
/// the description's recorded options as the base and re-apply only these.
struct ScheduleOverrides {
  bool force_two_list_all = false;
  bool no_two_list_state_refs = false;

  void apply(core::EngineOptions& options) const {
    if (force_two_list_all) options.force_two_list_all = true;
    if (no_two_list_state_refs) options.two_list_state_refs = false;
  }
};

/// Shared schedule-flag parsing; returns false on an unrecognized flag.
bool parse_schedule_flag(const std::string& arg, ScheduleOverrides& seen) {
  if (arg == "--force-two-list-all") {
    seen.force_two_list_all = true;
  } else if (arg == "--no-two-list-state-refs") {
    seen.no_two_list_state_refs = true;
  } else {
    return false;
  }
  return true;
}

int cmd_list(const char* argv0, const std::vector<std::string>& args) {
  if (!args.empty()) return usage(argv0, 2);
  for (const std::string& key : machines::golden_machine_keys())
    std::printf("%s\n", key.c_str());
  std::printf("fuzz-<seed>\n");
  return 0;
}

int cmd_describe(const char* argv0, const std::vector<std::string>& args) {
  std::string machine, out_path;
  core::EngineOptions options;
  options.backend = core::Backend::compiled;
  ScheduleOverrides overrides;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--out" && i + 1 < args.size()) {
      out_path = args[++i];
    } else if (parse_schedule_flag(arg, overrides)) {
    } else if (arg == "--help" || arg == "-h") {
      return usage(argv0, 0);
    } else if (machine.empty() && arg[0] != '-') {
      machine = arg;
    } else {
      return usage(argv0, 2);
    }
  }
  if (machine.empty()) return usage(argv0, 2);
  overrides.apply(options);
  try {
    const desc::Description d = machines::describe_machine(machine, options);
    return write_output(desc::to_text(d), out_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rcpn_emit: %s\n", e.what());
    return 1;
  }
}

int cmd_emit(const char* argv0, const std::vector<std::string>& args) {
  std::string machine, out_path;
  bool with_main = true, dot = false;
  ScheduleOverrides overrides;
  core::EngineOptions cli_options;
  cli_options.backend = core::Backend::compiled;  // the lowering pass lives there
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--out" && i + 1 < args.size()) {
      out_path = args[++i];
    } else if (arg == "--no-main") {
      with_main = false;
    } else if (parse_schedule_flag(arg, overrides)) {
    } else if (arg == "--dot") {
      dot = true;
    } else if (arg == "--help" || arg == "-h") {
      return usage(argv0, 0);
    } else if (machine.empty() && arg[0] != '-') {
      machine = arg;
    } else {
      return usage(argv0, 2);
    }
  }
  if (machine.empty()) return usage(argv0, 2);

  const bool from_file =
      machine.size() > 5 && machine.compare(machine.size() - 5, 5, ".rcpn") == 0;
  std::string source;
  try {
    // Resolve a .rcpn input up front: the description's recorded options are
    // the base; explicit CLI schedule flags override them.
    desc::Description d;
    std::string key = machine;  // golden key or fuzz-<seed>
    core::EngineOptions options = cli_options;
    if (from_file) {
      d = desc::read_file(machine);
      options = desc::engine_options(d, cli_options);
      key = machines::description_machine_key(d);
      if (key.empty()) key = d.model;  // fuzz-<seed> descriptions
    }
    overrides.apply(options);
    const std::optional<unsigned> seed = machines::parse_fuzz_model_name(key);
    // The machine to lower: its session, built on the compiled engine and
    // never advanced.
    const std::unique_ptr<machines::GoldenSession> session =
        from_file ? machines::make_description_session(d, options)
        : seed    ? machines::make_fuzz_session(*seed, options)
                  : machines::make_golden_session(key, options);
    const core::Net& net = session->engine().net();
    if (dot) {
      source = gen::emit_dot(net);
    } else {
      const auto& ce = dynamic_cast<const gen::CompiledEngine&>(session->engine());
      gen::EmitSimOptions emit_opts;
      emit_opts.engine_options = options;
      if (with_main) {
        // The main runs the machine's session: the one fuzz shards and farm
        // jobs run for fuzz-<seed>, the golden session otherwise.
        emit_opts.machine_key = key;
        emit_opts.session_expr =
            seed ? "rcpn::machines::make_fuzz_session(" + std::to_string(*seed) +
                       "u, options)"
                 : machines::golden_session_expr(key);
        emit_opts.extra_roots.push_back(
            seed ? "machines/fuzz_model.hpp" : machines::golden_session_header(key));
      }
      source = gen::emit_simulator(ce.compiled(), net, emit_opts);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rcpn_emit: %s\n", e.what());
    return 1;
  }
  return write_output(source, out_path);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0], 2);
  const std::string cmd = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  if (cmd == "--help" || cmd == "-h") return usage(argv[0], 0);
  if (cmd == "list") return cmd_list(argv[0], args);
  if (cmd == "describe") return cmd_describe(argv[0], args);
  if (cmd == "emit") return cmd_emit(argv[0], args);
  if (cmd == "fuzz") {
    // `rcpn_emit fuzz 7 ...` == `rcpn_emit emit fuzz-7 ...`
    if (args.empty() || args[0].empty() || args[0][0] == '-')
      return usage(argv[0], 2);
    args[0] = "fuzz-" + args[0];
    return cmd_emit(argv[0], args);
  }
  return usage(argv[0], 2);
}
