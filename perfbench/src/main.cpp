// perfbench: the repository benchmark binary.
//
//   perfbench --workload kernels|sweep --seed N --seconds S
//             --trace 0|1 [--root DIR] [--work-dir DIR] [--corrupt-expected]
//             [--inject-fuzz-error]
//
// With --trace 0 the last stdout line is the end-to-end result; with
// --trace 1 it is the per-layer ledger, and the spans are written to
// <work-dir>/trace-<workload>-<seed>.json. See README.md.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"
#include "gen/generated.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload kernels|sweep --seed N --seconds S "
               "--trace 0|1 [--root DIR] [--work-dir DIR] [--corrupt-expected] "
               "[--inject-fuzz-error]\n");
  return 2;
}

/// Layers whose self time the traced run reports (span-name prefixes).
constexpr const char* kLayers[] = {"bench", "core",      "model", "gen",  "workloads",
                                   "baseline", "isa",    "arm",   "mem",  "desc",
                                   "ckpt",  "farm",      "job"};

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Context ctx;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        ctx.workload = value();
      } else if (a == "--seed") {
        ctx.seed = std::stoull(value());
        have_seed = true;
      } else if (a == "--seconds") {
        ctx.seconds = std::stod(value());
        have_seconds = ctx.seconds > 0.0;
      } else if (a == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") return usage();
        ctx.trace = v == "1";
        have_trace = true;
      } else if (a == "--root") {
        ctx.root = value();
      } else if (a == "--work-dir") {
        ctx.work_dir = value();
      } else if (a == "--corrupt-expected") {
        ctx.corrupt_expected = true;
      } else if (a == "--inject-fuzz-error") {
        ctx.inject_fuzz_error = true;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  const bool kernels = ctx.workload == "kernels";
  if ((!kernels && ctx.workload != "sweep") || !have_seed || !have_seconds || !have_trace)
    return usage();

  // The generated engines are the paper's simulators: their absence is an
  // error, never a silently missing column.
  for (const char* model : {"StrongArm", "XScale"})
    if (rcpn::gen::find_generated_engine(model) == nullptr) {
      std::fprintf(stderr, "perfbench: no generated engine linked for %s\n", model);
      return 3;
    }

  const unsigned hw = std::thread::hardware_concurrency();
  ctx.threads = hw == 0 ? 1 : hw;
  Tracer tracer(ctx.trace);
  ctx.tracer = &tracer;
  Outcome outcome;
  Report e2e, layers;
  try {
    const int rc = kernels ? run_kernels_workload(ctx, outcome, e2e, layers)
                           : run_sweep_workload(ctx, outcome, e2e, layers);
    if (rc != 0) return rc;

    print_report("end-to-end metrics", e2e);
    std::printf("  failed_frac %.6g (%llu of %llu checked simulations failed the gate)\n",
                outcome.attempted ? static_cast<double>(outcome.failed) /
                                        static_cast<double>(outcome.attempted)
                                  : 0.0,
                static_cast<unsigned long long>(outcome.failed),
                static_cast<unsigned long long>(outcome.attempted));
    if (!ctx.trace) {
      std::printf("%s\n", result_json(outcome, e2e).c_str());
      return 0;
    }

    const auto self = tracer.self_seconds_by_layer();
    double total = 0.0;
    for (const auto& [layer, secs] : self) total += secs;
    std::printf("\nself time by layer (%zu spans):\n", tracer.span_count());
    for (const char* layer : kLayers) {
      const auto it = self.find(layer);
      const double secs = it == self.end() ? 0.0 : it->second;
      std::printf("  %-10s %10.3f ms  %5.1f%%\n", layer, 1e3 * secs,
                  total > 0.0 ? 100.0 * secs / total : 0.0);
      layers.add(std::string("self_ms.") + layer, 1e3 * secs, "ms");
    }
    const std::string trace_path = ctx.work_dir + "/trace-" + ctx.workload + "-" +
                                   std::to_string(ctx.seed) + ".json";
    if (tracer.write_chrome_trace(trace_path))
      std::printf("spans written to %s\n", trace_path.c_str());
    else
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_path.c_str());
    print_report("per-layer metrics", layers);
    std::printf("%s\n", result_json(outcome, layers).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
