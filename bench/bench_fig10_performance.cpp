// Figure 10 — "Simulation performance (Million cycle/second)".
//
// The paper's headline experiment: simulation speed of SimpleScalar-Arm vs
// the RCPN-generated XScale and StrongArm simulators over the six
// benchmarks, plus the average row and the derived speedup factors.
// Absolute numbers are host-dependent; the claims under reproduction are the
// ordering (RCPN-StrongArm fastest of the two RCPN models because its net is
// simpler) and the RCPN-vs-SimpleScalar gap (see the README "Performance"
// section for the honest discussion of the measured factor vs the paper's
// ~15x).
//
// Both RCPN models run on every available engine backend:
//  * interpreted — core::Engine walking the net;
//  * compiled (c) — gen::CompiledEngine over the flattened tables;
//  * generated (g) — the standalone gen::emit_simulator artifact, from the
//    emitted no-main TUs the build links in.
// BENCH_fig10.json records compiled_vs_interpreted and, when available,
// generated_vs_compiled ratios so the perf trajectory across PRs tracks both
// devirtualization steps. CI fails if the compiled backend regresses below
// the interpreted one (aggregate over all workloads).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "baseline/simplescalar_sim.hpp"
#include "bench/bench_util.hpp"
#include "gen/generated.hpp"
#include "machines/strongarm.hpp"
#include "machines/xscale.hpp"
#include "util/table.hpp"

using namespace rcpn;

namespace {

/// Interleaved best-of-`k` A/B ratio: alternate the two sides so shared-host
/// noise hits both evenly, take each side's minimum as its floor. Returns
/// floor(off) / floor(on) — >1.0 means the optimization wins.
double ab_ratio(int k, const std::function<double()>& timed_on,
                const std::function<double()>& timed_off) {
  double t_on = 0.0, t_off = 0.0;
  for (int i = 0; i < k; ++i) {
    const double a = timed_on();
    const double b = timed_off();
    if (t_on == 0.0 || a < t_on) t_on = a;
    if (t_off == 0.0 || b < t_off) t_off = b;
  }
  return t_on > 0.0 ? t_off / t_on : 0.0;
}

}  // namespace

int main() {
  const bool has_gen_sa = gen::find_generated_engine("StrongArm") != nullptr;
  const bool has_gen_xs = gen::find_generated_engine("XScale") != nullptr;

  std::printf("Figure 10: simulation performance (Million cycles/second)\n");
  std::printf("host-dependent; REPRO_SCALE=%.2f; (c) = compiled, (g) = generated\n",
              bench::repro_scale());
  if (!has_gen_sa || !has_gen_xs)
    std::printf("generated backend not linked in — (g) columns skipped\n");
  std::printf("\n");

  util::Table table({"benchmark", "SimpleScalar", "XScale", "XScale(c)", "XScale(g)",
                     "StrongArm", "StrongArm(c)", "StrongArm(g)", "SA(c)/SS", "c/int",
                     "SAg/c", "XSg/c"});

  double sum_ss = 0, sum_xs = 0, sum_xc = 0, sum_sa = 0, sum_sc = 0;
  double sum_xg = 0, sum_sg = 0;
  unsigned n = 0;
  std::vector<std::string> json_rows;
  baseline::SimpleScalarSim ss;
  machines::XScaleSim xs;
  machines::StrongArmSim sa;
  machines::XScaleConfig xc_cfg;
  xc_cfg.engine.backend = core::Backend::compiled;
  machines::XScaleSim xc(xc_cfg);
  machines::StrongArmConfig sc_cfg;
  sc_cfg.engine.backend = core::Backend::compiled;
  machines::StrongArmSim sc(sc_cfg);
  std::unique_ptr<machines::XScaleSim> xg;
  std::unique_ptr<machines::StrongArmSim> sg;
  if (has_gen_xs) {
    machines::XScaleConfig cfg;
    cfg.engine.backend = core::Backend::generated;
    xg = std::make_unique<machines::XScaleSim>(cfg);
  }
  if (has_gen_sa) {
    machines::StrongArmConfig cfg;
    cfg.engine.backend = core::Backend::generated;
    sg = std::make_unique<machines::StrongArmSim>(cfg);
  }

  // Untimed warm-up: the first run of each simulator pays one-off costs
  // (page faults on freshly-allocated pools, branch-predictor and frequency
  // ramp-up) that would distort whichever benchmark happens to come first.
  {
    const workloads::Workload& w0 = workloads::all().front();
    const sys::Program warm = workloads::build(w0, 1);
    ss.run(warm);
    xs.run(warm);
    xc.run(warm);
    sa.run(warm);
    sc.run(warm);
    if (xg) xg->run(warm);
    if (sg) sg->run(warm);
  }

  for (const workloads::Workload& w : workloads::all()) {
    const sys::Program prog = workloads::build(w, bench::scaled(w));

    const auto [rss, tss] = bench::timed([&] { return ss.run(prog); });
    const auto [rxs, txs] = bench::timed([&] { return xs.run(prog); });
    const auto [rxc, txc] = bench::timed([&] { return xc.run(prog); });
    const auto [rsa, tsa] = bench::timed([&] { return sa.run(prog); });
    const auto [rsc, tsc] = bench::timed([&] { return sc.run(prog); });
    machines::RunResult rxg, rsg;
    double txg = 0, tsg = 0;
    if (xg) std::tie(rxg, txg) = bench::timed([&] { return xg->run(prog); });
    if (sg) std::tie(rsg, tsg) = bench::timed([&] { return sg->run(prog); });

    // All runs must agree architecturally; a mismatch voids the row. The
    // compiled/generated backends must also match their interpreted twins
    // cycle-exactly.
    if (rss.output != rxs.output || rss.output != rsa.output ||
        rss.output != rxc.output || rss.output != rsc.output ||
        (xg && rss.output != rxg.output) || (sg && rss.output != rsg.output)) {
      std::fprintf(stderr, "output mismatch on %s!\n", w.name.c_str());
      return 1;
    }
    if (rsc.cycles != rsa.cycles || rxc.cycles != rxs.cycles ||
        (sg && rsg.cycles != rsa.cycles) || (xg && rxg.cycles != rxs.cycles)) {
      std::fprintf(stderr, "backend cycle mismatch on %s!\n", w.name.c_str());
      return 1;
    }

    const double mss = static_cast<double>(rss.cycles) / tss / 1e6;
    const double mxs = static_cast<double>(rxs.cycles) / txs / 1e6;
    const double mxc = static_cast<double>(rxc.cycles) / txc / 1e6;
    const double msa = static_cast<double>(rsa.cycles) / tsa / 1e6;
    const double msc = static_cast<double>(rsc.cycles) / tsc / 1e6;
    const double mxg = xg ? static_cast<double>(rxg.cycles) / txg / 1e6 : 0.0;
    const double msg = sg ? static_cast<double>(rsg.cycles) / tsg / 1e6 : 0.0;
    sum_ss += mss;
    sum_xs += mxs;
    sum_xc += mxc;
    sum_sa += msa;
    sum_sc += msc;
    sum_xg += mxg;
    sum_sg += msg;
    ++n;

    char speedup[16], ratio[16], gsa[16], gxs[16];
    std::snprintf(speedup, sizeof(speedup), "%.1fx", msc / mss);
    std::snprintf(ratio, sizeof(ratio), "%.2fx", msc / msa);
    if (sg)
      std::snprintf(gsa, sizeof(gsa), "%.2fx", msg / msc);
    else
      std::snprintf(gsa, sizeof(gsa), "-");
    if (xg)
      std::snprintf(gxs, sizeof(gxs), "%.2fx", mxg / mxc);
    else
      std::snprintf(gxs, sizeof(gxs), "-");
    table.add_row({w.name, util::Table::fmt(mss), util::Table::fmt(mxs),
                   util::Table::fmt(mxc), xg ? util::Table::fmt(mxg) : "-",
                   util::Table::fmt(msa), util::Table::fmt(msc),
                   sg ? util::Table::fmt(msg) : "-", speedup, ratio, gsa, gxs});

    bench::JsonObj row;
    row.str("name", w.name)
        .num("cycles_strongarm", rsa.cycles)
        .num("cycles_xscale", rxs.cycles)
        .num("cycles_simplescalar", rss.cycles)
        .num("mcps_simplescalar", mss)
        .num("mcps_xscale", mxs)
        .num("mcps_xscale_compiled", mxc)
        .num("mcps_strongarm", msa)
        .num("mcps_strongarm_compiled", msc)
        .num("ns_per_cycle_strongarm", 1e3 / msa)
        .num("ns_per_cycle_strongarm_compiled", 1e3 / msc)
        // Keep the PR-1 meaning (interpreted vs baseline) so the perf
        // trajectory stays comparable across runs; each backend gets its
        // own key.
        .num("speedup_strongarm_vs_simplescalar", msa / mss)
        .num("speedup_strongarm_compiled_vs_simplescalar", msc / mss)
        .num("compiled_vs_interpreted_strongarm", msc / msa)
        .num("compiled_vs_interpreted_xscale", mxc / mxs);
    if (sg)
      row.num("mcps_strongarm_generated", msg)
          .num("generated_vs_compiled_strongarm", msg / msc);
    if (xg)
      row.num("mcps_xscale_generated", mxg)
          .num("generated_vs_compiled_xscale", mxg / mxc);
    json_rows.push_back(row.render());
  }

  // -- Per-optimization ablation --------------------------------------------
  // The hot-loop optimization timed against its own off-switch, interleaved
  // best-of-k (ab_ratio); >= 1.0 means the switch pays for itself.
  // find_workload returns nullptr when the name is unknown so a renamed
  // workload skips the ablation loudly (0.0 = not measured) instead of
  // silently measuring whatever workload happens to be first.
  const auto find_workload = [](const char* name) -> const workloads::Workload* {
    for (const workloads::Workload& w : workloads::all())
      if (w.name == name) return &w;
    std::fprintf(stderr,
                 "fig10: workload '%s' not found - skipping ablation "
                 "(reported as 0.0 / not measured)\n",
                 name);
    return nullptr;
  };

  // Decoded-uop cache — StrongArm compiled on the crc kernel; the off
  // switch re-decodes and re-binds operands on every fetch.
  double abl_decode = 0.0;
  if (const workloads::Workload* wp = find_workload("crc")) {
    const workloads::Workload& w = *wp;
    const sys::Program prog = workloads::build(w, bench::scaled(w));
    machines::StrongArmConfig on_cfg;
    on_cfg.engine.backend = core::Backend::compiled;
    machines::StrongArmConfig off_cfg = on_cfg;
    off_cfg.decode_cache_bypass = true;
    machines::StrongArmSim on_sim(on_cfg), off_sim(off_cfg);
    on_sim.run(prog);
    off_sim.run(prog);
    abl_decode = ab_ratio(
        5, [&] { return bench::timed([&] { return on_sim.run(prog); }).second; },
        [&] { return bench::timed([&] { return off_sim.run(prog); }).second; });
  }

  std::printf("\nper-optimization ablation (>= 1.0x means the switch pays):\n");
  std::printf("  decode cache (StrongArm(c), crc, vs bypass):        %.2fx\n", abl_decode);

  const double ratio_sa = sum_sc / sum_sa;
  const double ratio_xs = sum_xc / sum_xs;
  const double gratio_sa = sg ? sum_sg / sum_sc : 0.0;
  const double gratio_xs = xg ? sum_xg / sum_xc : 0.0;
  char speedup[16], ratio[16], gsa[16], gxs[16];
  std::snprintf(speedup, sizeof(speedup), "%.1fx", (sum_sc / n) / (sum_ss / n));
  std::snprintf(ratio, sizeof(ratio), "%.2fx", ratio_sa);
  if (sg)
    std::snprintf(gsa, sizeof(gsa), "%.2fx", gratio_sa);
  else
    std::snprintf(gsa, sizeof(gsa), "-");
  if (xg)
    std::snprintf(gxs, sizeof(gxs), "%.2fx", gratio_xs);
  else
    std::snprintf(gxs, sizeof(gxs), "-");
  table.add_row({"Average", util::Table::fmt(sum_ss / n), util::Table::fmt(sum_xs / n),
                 util::Table::fmt(sum_xc / n), xg ? util::Table::fmt(sum_xg / n) : "-",
                 util::Table::fmt(sum_sa / n), util::Table::fmt(sum_sc / n),
                 sg ? util::Table::fmt(sum_sg / n) : "-", speedup, ratio, gsa, gxs});
  table.print();

  bench::JsonObj avg;
  avg.num("mcps_simplescalar", sum_ss / n)
      .num("mcps_xscale", sum_xs / n)
      .num("mcps_xscale_compiled", sum_xc / n)
      .num("mcps_strongarm", sum_sa / n)
      .num("mcps_strongarm_compiled", sum_sc / n)
      .num("ns_per_cycle_strongarm", 1e3 * n / sum_sa)
      .num("ns_per_cycle_strongarm_compiled", 1e3 * n / sum_sc)
      .num("speedup_strongarm_vs_simplescalar", (sum_sa / n) / (sum_ss / n))
      .num("speedup_strongarm_compiled_vs_simplescalar", (sum_sc / n) / (sum_ss / n))
      .num("speedup_xscale_vs_simplescalar", (sum_xs / n) / (sum_ss / n))
      .num("speedup_xscale_compiled_vs_simplescalar", (sum_xc / n) / (sum_ss / n))
      .num("compiled_vs_interpreted_strongarm", ratio_sa)
      .num("compiled_vs_interpreted_xscale", ratio_xs);
  if (sg)
    avg.num("mcps_strongarm_generated", sum_sg / n)
        .num("generated_vs_compiled_strongarm", gratio_sa)
        .num("speedup_strongarm_generated_vs_simplescalar",
             (sum_sg / n) / (sum_ss / n));
  if (xg)
    avg.num("mcps_xscale_generated", sum_xg / n)
        .num("generated_vs_compiled_xscale", gratio_xs)
        .num("speedup_xscale_generated_vs_simplescalar",
             (sum_xg / n) / (sum_ss / n));

  bench::JsonObj ablations;
  ablations.num("decode_cache", abl_decode);

  const std::string json =
      bench::JsonObj()
          .str("figure", "fig10")
          .str("metric", "simulation speed (million cycles/second)")
          .num("repro_scale", bench::repro_scale())
          .raw("benchmarks", bench::json_array(json_rows))
          .raw("average", avg.render())
          .raw("ablations", ablations.render())
          .render();
  if (bench::write_file("BENCH_fig10.json", json + "\n"))
    std::printf("\nwrote BENCH_fig10.json\n");

  std::printf("\npaper (P4/1.8GHz): SimpleScalar 0.6, RCPN-XScale 8.2,"
              " RCPN-StrongArm 12.2 Mcyc/s (~15x)\n");
  std::printf("shape checks: RCPN-StrongArm > RCPN-XScale: %s\n",
              sum_sa > sum_xs ? "yes (as in the paper)" : "NO");
  std::printf("compiled vs interpreted: StrongArm %.2fx, XScale %.2fx (%s)\n",
              ratio_sa, ratio_xs,
              ratio_sa >= 1.0 ? "compiled not slower" : "COMPILED SLOWER");
  if (sg)
    std::printf("generated vs compiled: StrongArm %.2fx\n", gratio_sa);
  if (xg)
    std::printf("generated vs compiled: XScale %.2fx\n", gratio_xs);
  return 0;
}
