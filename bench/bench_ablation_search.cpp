// Ablation — the Fig 6 sorted per-(place, type) transition table vs the
// CPN-style global enabled-transition search (paper §4: "Searching for
// enabled transitions ... can be very time consuming in generic Petri Net
// models"): the RCPN engine on the Fig 2 net against a genuinely generic CPN
// simulator (NaiveEngine) running the *converted* Fig 2 net, whose every
// step re-scans all transitions and double-buffers all places.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "cpn/naive_engine.hpp"
#include "cpn/rcpn_to_cpn.hpp"
#include "machines/simple_pipeline.hpp"
#include "util/table.hpp"

using namespace rcpn;

int main() {
  std::printf("Ablation: Fig 6 sorted candidate table vs global search\n");
  std::printf("REPRO_SCALE=%.2f\n\n", bench::repro_scale());

  // Generic CPN engine on the converted Fig 2 net vs the RCPN engine on the
  // original — firings per second through the same structure.
  std::printf("Fig 2 pipeline, tokens through the net:\n");
  const std::uint64_t kTokens = bench::scaled_count(400'000);

  machines::SimplePipeline pipe(kTokens);
  const auto [cycles_rcpn, secs_rcpn] =
      bench::timed([&] { return pipe.run(1u << 30); });
  const double rcpn_fps =
      static_cast<double>(pipe.engine().stats().firings) / secs_rcpn / 1e6;

  machines::SimplePipeline proto(1);
  const cpn::ConversionResult conv = cpn::convert(proto.net());
  cpn::NaiveEngine naive(conv.net);
  const auto [fired, secs_naive] = bench::timed([&] {
    // Generator transitions fire freely: run a comparable number of cycles.
    std::uint64_t total = 0;
    while (naive.firings() < kTokens * 3) total += naive.step();
    return total;
  });
  const double naive_fps = static_cast<double>(naive.firings()) / secs_naive / 1e6;

  util::Table t2({"engine", "firings/s (M)", "search visits per firing"});
  t2.add_row({"RCPN engine (sorted tables)", util::Table::fmt(rcpn_fps, 2), "1.0"});
  char visits[32];
  std::snprintf(visits, sizeof(visits), "%.1f",
                static_cast<double>(naive.search_visits()) /
                    static_cast<double>(naive.firings()));
  t2.add_row({"naive CPN engine (converted net)", util::Table::fmt(naive_fps, 2),
              visits});
  t2.print();
  (void)cycles_rcpn;
  (void)fired;
  return 0;
}
