#include "machines/golden_trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "obs/export.hpp"

namespace rcpn::machines {

void record_golden_retires(core::Engine& eng, std::vector<GoldenRetireEvent>& out) {
  eng.hooks().on_retire = [&eng, &out](core::InstructionToken* t) {
    out.push_back(GoldenRetireEvent{eng.clock(), t->pc, t->seq});
  };
}

std::string format_golden_trace(const std::string& name,
                                const std::vector<GoldenRetireEvent>& trace) {
  std::ostringstream out;
  out << "# " << name << " golden cycle-stamped retire trace: cycle pc(hex) seq\n";
  for (const GoldenRetireEvent& e : trace)
    out << e.cycle << " " << std::hex << e.pc << std::dec << " " << e.seq << "\n";
  return out.str();
}

std::string format_golden_stats(const core::Stats& stats) {
  std::ostringstream out;
  out << "# stats cycles=" << stats.cycles << " retired=" << stats.retired
      << " fetched=" << stats.fetched << " squashed=" << stats.squashed
      << " reservations=" << stats.reservations << " firings=" << stats.firings
      << "\n";
  return out.str();
}

std::string format_stall_causes(const core::Stats& stats) {
  std::ostringstream out;
  const std::size_t places = stats.place_stalls.size();
  for (std::size_t p = 0; p < places; ++p)
    for (unsigned c = 0; c < core::kNumStallCauses; ++c) {
      const std::uint64_t n =
          stats.place_stall_causes[p * core::kNumStallCauses + c];
      if (n == 0) continue;
      out << "# stallcause place=" << p << " cause="
          << core::stall_cause_name(static_cast<core::StallCause>(c))
          << " count=" << n << "\n";
    }
  return out.str();
}

bool parse_stall_causes(const std::string& text, unsigned num_places,
                        std::vector<std::uint64_t>& out) {
  out.assign(static_cast<std::size_t>(num_places) * core::kNumStallCauses, 0);
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    // Anchor on `place=`, not just the tag: a machine literally named
    // "stallcause" puts the tag in its trace header line too.
    if (line.rfind("# stallcause place=", 0) != 0) continue;
    unsigned long long place = 0, count = 0;
    char cause[64] = {0};
    if (std::sscanf(line.c_str(), "# stallcause place=%llu cause=%63s count=%llu",
                    &place, cause, &count) != 3)
      return false;
    if (place >= num_places) return false;
    int ci = -1;
    for (unsigned c = 0; c < core::kNumStallCauses; ++c)
      if (std::string(cause) ==
          core::stall_cause_name(static_cast<core::StallCause>(c)))
        ci = static_cast<int>(c);
    if (ci < 0) return false;
    out[static_cast<std::size_t>(place) * core::kNumStallCauses +
        static_cast<unsigned>(ci)] = count;
  }
  return true;
}

bool parse_golden_stats(const std::string& text, core::Stats& out) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("# stats ", 0) != 0) continue;
    unsigned long long cycles = 0, retired = 0, fetched = 0, squashed = 0,
                       reservations = 0, firings = 0;
    if (std::sscanf(line.c_str(),
                    "# stats cycles=%llu retired=%llu fetched=%llu squashed=%llu "
                    "reservations=%llu firings=%llu",
                    &cycles, &retired, &fetched, &squashed, &reservations,
                    &firings) != 6)
      return false;
    out.cycles = cycles;
    out.retired = retired;
    out.fetched = fetched;
    out.squashed = squashed;
    out.reservations = reservations;
    out.firings = firings;
    return true;
  }
  return false;
}

namespace {

bool parse_golden_stream(std::istream& in, std::vector<GoldenRetireEvent>& out) {
  bool ok = true;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    GoldenRetireEvent e;
    fields >> e.cycle >> std::hex >> e.pc >> std::dec >> e.seq;
    ok = ok && !fields.fail();
    out.push_back(e);
  }
  return ok;
}

}  // namespace

bool parse_golden_trace(const std::string& text, std::vector<GoldenRetireEvent>& out) {
  std::istringstream in(text);
  return parse_golden_stream(in, out);
}

bool load_golden_trace(const std::string& path, std::vector<GoldenRetireEvent>& out) {
  std::ifstream in(path);
  return in.good() && parse_golden_stream(in, out);
}

std::string diff_golden_traces(const std::vector<GoldenRetireEvent>& golden,
                               const std::vector<GoldenRetireEvent>& got) {
  const std::size_t n = std::min(golden.size(), got.size());
  std::ostringstream msg;
  for (std::size_t i = 0; i < n; ++i) {
    if (golden[i] == got[i]) continue;
    msg << "first divergence at retirement #" << i << ": golden {cycle "
        << golden[i].cycle << ", pc 0x" << std::hex << golden[i].pc << std::dec
        << ", seq " << golden[i].seq << "} vs got {cycle " << got[i].cycle << ", pc 0x"
        << std::hex << got[i].pc << std::dec << ", seq " << got[i].seq << "}";
    return msg.str();
  }
  if (golden.size() != got.size()) {
    msg << "trace length differs (golden " << golden.size() << ", got " << got.size()
        << "); first " << (golden.size() < got.size() ? "extra" : "missing")
        << " retirement is #" << n;
    if (n < got.size())
      msg << " at cycle " << got[n].cycle;
    else if (n < golden.size())
      msg << " at golden cycle " << golden[n].cycle;
    return msg.str();
  }
  return {};
}

std::string write_checkpoint(GoldenSession& s) {
  return ckpt::save_snapshot(s.engine(), s.io(), s.trace());
}

void read_checkpoint(GoldenSession& s, const std::string& text) {
  ckpt::restore_snapshot(text, s.engine(), s.io(), s.trace());
}

GoldenRunResult finish_session(GoldenSession& s) {
  while (s.advance(std::uint64_t(1) << 62)) {
  }
  return s.result();
}

namespace {

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
  return out.good();
}

}  // namespace

int golden_cli_main(int argc, char** argv, const std::string& name,
                    const GoldenSessionFn& session, core::EngineOptions base) {
  std::string golden_path;
  std::string trace_json_path;
  std::string ckpt_out;
  std::string restore_path;
  std::uint64_t ckpt_at = 0;
  bool have_ckpt_at = false;
  std::uint64_t ckpt_every = 0;
  bool print_stats = false;
  bool print_profile = false;
  core::EngineOptions options = base;
  options.backend = core::Backend::generated;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--golden" && i + 1 < argc) {
      golden_path = argv[++i];
    } else if (arg == "--stats") {
      print_stats = true;
    } else if (arg == "--trace-json" && i + 1 < argc) {
      trace_json_path = argv[++i];
    } else if (arg == "--profile") {
      print_profile = true;
    } else if (arg == "--backend" && i + 1 < argc) {
      const std::string b = argv[++i];
      if (b == "interpreted") {
        options.backend = core::Backend::interpreted;
      } else if (b == "compiled") {
        options.backend = core::Backend::compiled;
      } else if (b != "generated") {
        std::fprintf(stderr, "unknown backend '%s'\n", b.c_str());
        return 2;
      }
    } else if (arg == "--checkpoint-at" && i + 1 < argc) {
      ckpt_at = std::strtoull(argv[++i], nullptr, 10);
      have_ckpt_at = true;
    } else if (arg == "--checkpoint-every" && i + 1 < argc) {
      ckpt_every = std::strtoull(argv[++i], nullptr, 10);
      if (ckpt_every == 0) {
        std::fprintf(stderr, "--checkpoint-every expects a positive cycle count\n");
        return 2;
      }
    } else if (arg == "--checkpoint-out" && i + 1 < argc) {
      ckpt_out = argv[++i];
    } else if (arg == "--restore" && i + 1 < argc) {
      restore_path = argv[++i];
    } else if (arg == "--force-two-list-all") {
      options.force_two_list_all = true;
    } else if (arg == "--no-two-list-state-refs") {
      options.two_list_state_refs = false;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: %s [--golden FILE] [--stats]\n"
          "       [--trace-json FILE] [--profile]\n"
          "       [--backend generated|compiled|interpreted]\n"
          "       [--force-two-list-all] [--no-two-list-state-refs]\n"
          "       [--checkpoint-at T --checkpoint-out FILE]\n"
          "       [--checkpoint-every K --checkpoint-out FILE]\n"
          "       [--restore FILE]\n"
          "Runs the %s workload on the generated simulator engine.\n"
          "Default: print the cycle-stamped retire trace to stdout.\n"
          "--golden FILE: diff the trace against FILE; exit 1 on the first\n"
          "divergence, naming its cycle.\n"
          "--stats: also print the aggregate `# stats ...` line.\n"
          "--trace-json FILE: write a Chrome-trace-event/Perfetto JSON of the\n"
          "run (needs a build with RCPN_OBS=ON; load in ui.perfetto.dev).\n"
          "--profile: print the aggregate observability profile (occupancy\n"
          "histograms, stall causes, candidate-scan hit rates; RCPN_OBS=ON).\n"
          "The schedule flags select ablation variants; the generated backend\n"
          "only accepts the options its tables were emitted for (use\n"
          "--backend compiled to run other schedules from this binary).\n"
          "--checkpoint-at T: run to cycle T, write the rcpn-ckpt/3 snapshot\n"
          "to --checkpoint-out FILE and exit. --checkpoint-every K: run to\n"
          "completion, alternating FILE.0/FILE.1 every K cycles. --restore\n"
          "FILE: resume from a snapshot and run to completion; the printed\n"
          "trace and stats are byte-identical to the straight run.\n",
          argv[0], name.c_str());
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument '%s' (try --help)\n", arg.c_str());
      return 2;
    }
  }

  const bool want_ckpt = have_ckpt_at || ckpt_every > 0 || !restore_path.empty();
  if (want_ckpt) {
    if ((have_ckpt_at || ckpt_every > 0) && ckpt_out.empty()) {
      std::fprintf(stderr,
                   "--checkpoint-at/--checkpoint-every need --checkpoint-out "
                   "FILE\n");
      return 2;
    }
    if (have_ckpt_at && ckpt_every > 0) {
      std::fprintf(stderr,
                   "--checkpoint-at and --checkpoint-every are mutually "
                   "exclusive\n");
      return 2;
    }
  }

  const bool want_obs = !trace_json_path.empty() || print_profile;
#if !RCPN_OBS
  if (want_obs) {
    std::fprintf(stderr,
                 "--trace-json/--profile need a build with RCPN_OBS=ON (this "
                 "binary was compiled without the probe layer)\n");
    return 2;
  }
#else
  obs::Hub obs_hub;
  if (want_obs) options.obs = &obs_hub;
#endif

  GoldenRunResult result;
  try {
    std::unique_ptr<GoldenSession> s = session(options);
    if (!restore_path.empty()) {
      std::ifstream in(restore_path, std::ios::binary);
      if (!in.good()) {
        std::fprintf(stderr, "%s: cannot read checkpoint %s\n", name.c_str(),
                     restore_path.c_str());
        return 2;
      }
      std::ostringstream buf;
      buf << in.rdbuf();
      read_checkpoint(*s, buf.str());
    }
    if (have_ckpt_at) {
      const core::Cycle now = s->engine().clock();
      if (ckpt_at > now) s->advance(ckpt_at - now);
      if (!write_file(ckpt_out, write_checkpoint(*s))) {
        std::fprintf(stderr, "%s: cannot write %s\n", name.c_str(), ckpt_out.c_str());
        return 2;
      }
      std::fprintf(stderr, "%s: wrote checkpoint at cycle %llu to %s\n", name.c_str(),
                   static_cast<unsigned long long>(s->engine().clock()),
                   ckpt_out.c_str());
      return 0;
    }
    if (ckpt_every > 0) {
      // Two-slot ring: the last two periodic snapshots survive, so a crash
      // while writing one slot always leaves the other intact.
      unsigned slot = 0;
      while (s->advance(ckpt_every)) {
        const std::string path = ckpt_out + "." + std::to_string(slot % 2);
        if (!write_file(path, write_checkpoint(*s))) {
          std::fprintf(stderr, "%s: cannot write %s\n", name.c_str(), path.c_str());
          return 2;
        }
        ++slot;
      }
      result = s->result();
    } else {
      result = finish_session(*s);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", name.c_str(), e.what());
    return 2;
  }
  if (result.trace.empty()) {
    std::fprintf(stderr, "%s: workload retired nothing\n", name.c_str());
    return 1;
  }

#if RCPN_OBS
  if (!trace_json_path.empty()) {
    std::ofstream out(trace_json_path, std::ios::binary);
    if (!out.good()) {
      std::fprintf(stderr, "%s: cannot write %s\n", name.c_str(),
                   trace_json_path.c_str());
      return 2;
    }
    out << obs::export_chrome_trace(obs_hub);
    std::fprintf(stderr, "%s: wrote %s\n", name.c_str(), trace_json_path.c_str());
  }
  if (print_profile) std::fputs(obs::format_profile(obs_hub).c_str(), stdout);
#endif

  if (golden_path.empty()) {
    std::fputs(format_golden_trace(name, result.trace).c_str(), stdout);
    if (print_stats) {
      std::fputs(format_golden_stats(result.stats).c_str(), stdout);
      std::fputs(format_stall_causes(result.stats).c_str(), stdout);
    }
    return 0;
  }

  if (print_stats) {
      std::fputs(format_golden_stats(result.stats).c_str(), stdout);
      std::fputs(format_stall_causes(result.stats).c_str(), stdout);
    }
  std::vector<GoldenRetireEvent> golden;
  if (!load_golden_trace(golden_path, golden)) {
    std::fprintf(stderr, "%s: missing or malformed golden file %s\n", name.c_str(),
                 golden_path.c_str());
    return 2;
  }
  const std::string diff = diff_golden_traces(golden, result.trace);
  if (!diff.empty()) {
    std::fprintf(stderr, "%s (generated): %s\n", name.c_str(), diff.c_str());
    return 1;
  }
  std::printf("%s: %zu retirements match %s\n", name.c_str(), result.trace.size(),
              golden_path.c_str());
  return 0;
}

}  // namespace rcpn::machines
