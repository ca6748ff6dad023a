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
// When `emit` is handed a .rcpn file, delegate symbols resolve through the
// library's shipped registries (machines/desc_machines.hpp). `--no-main`
// prints the engine TU of the described model, edits included. A program
// runs its shipped machine's session, so it is emitted only from that
// machine's own description (what `rcpn_emit describe <key>` prints); any
// other is refused, naming the first line that differs.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
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
               "  describe <machine> [--out FILE]\n"
               "      serialize the machine's model to a canonical .rcpn\n"
               "      description (stdout unless --out)\n"
               "  emit <machine|file.rcpn> [--out FILE] [--no-main] [--dot]\n"
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
               "  or a path ending in .rcpn (a program needs the machine's own\n"
               "  description; an edited one emits with --no-main only)\n"
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

/// The first line where two texts differ, as "line N ('a' vs 'b')", or ""
/// when they are equal.
std::string first_difference(const std::string& a, const std::string& b) {
  std::istringstream in_a(a), in_b(b);
  std::string la, lb;
  for (int line = 1;; ++line) {
    const bool more_a = static_cast<bool>(std::getline(in_a, la));
    const bool more_b = static_cast<bool>(std::getline(in_b, lb));
    if (!more_a && !more_b) return "";
    if (!more_a) la.clear();
    if (!more_b) lb.clear();
    if (la != lb) return "line " + std::to_string(line) + " ('" + la + "' vs '" + lb + "')";
  }
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
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--out" && i + 1 < args.size()) {
      out_path = args[++i];
    } else if (arg == "--help" || arg == "-h") {
      return usage(argv0, 0);
    } else if (machine.empty() && arg[0] != '-') {
      machine = arg;
    } else {
      return usage(argv0, 2);
    }
  }
  if (machine.empty()) return usage(argv0, 2);
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
  core::EngineOptions cli_options;
  cli_options.backend = core::Backend::compiled;  // the lowering pass lives there
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--out" && i + 1 < args.size()) {
      out_path = args[++i];
    } else if (arg == "--no-main") {
      with_main = false;
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
    // Resolve a .rcpn input up front; its deadlock_limit is part of it.
    desc::Description d;
    std::string key = machine;  // golden key or fuzz-<seed>
    core::EngineOptions options = cli_options;
    if (from_file) {
      d = desc::read_file(machine);
      options = desc::engine_options(d, cli_options);
      key = machines::description_machine_key(d);
      if (key.empty()) key = d.model;  // fuzz-<seed> descriptions
    }
    const std::optional<unsigned> seed = machines::parse_fuzz_model_name(key);
    // The machine to lower: its session, built on the compiled engine and
    // never advanced.
    const std::unique_ptr<machines::GoldenSession> session =
        from_file ? machines::make_description_session(d, options)
        : seed    ? machines::make_fuzz_session(*seed, options)
                  : machines::make_golden_session(key, options);
    if (from_file && with_main && !dot) {
      // The program's main() builds the shipped machine (its session
      // expression), not this description: refuse an edited one rather than
      // emit a program that runs a different model than its tables.
      const std::string diff =
          first_difference(desc::to_text(d), desc::to_text(machines::describe_machine(key)));
      if (!diff.empty())
        throw std::runtime_error(
            machine + " differs from the shipped " + key + " model at " + diff +
            ": an emitted program runs the shipped model. Emit the described "
            "model's engine TU with --no-main and link it into a binary that "
            "loads this description");
    }
    const core::Net& net = session->engine().net();
    if (dot) {
      source = gen::emit_dot(net);
    } else {
      const auto& ce = dynamic_cast<const gen::CompiledEngine&>(session->engine());
      gen::EmitSimOptions emit_opts;
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
