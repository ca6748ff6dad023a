// Property-style and parameterized tests over whole-system invariants:
// capacity conservation, token accounting, timing monotonicity under
// memory-system and predictor sweeps, determinism, and analysis properties
// of converted nets.
#include <gtest/gtest.h>

#include <memory>

#include "baseline/functional_iss.hpp"
#include "baseline/simplescalar_sim.hpp"
#include "cpn/analysis.hpp"
#include "cpn/rcpn_to_cpn.hpp"
#include "machines/desc_machines.hpp"
#include "machines/fig5_processor.hpp"
#include "machines/strongarm.hpp"
#include "machines/tomasulo.hpp"
#include "machines/xscale.hpp"
#include "util/rng.hpp"
#include "workloads/workloads.hpp"

namespace rcpn {
namespace {

using machines::Fig5Instr;
using I = Fig5Instr;

// ---------------------------------------------------------------------------
// Structural invariants under random programs (Fig 5 machine)
// ---------------------------------------------------------------------------

std::vector<Fig5Instr> random_fig5_program(std::uint64_t seed, unsigned len) {
  util::Xorshift64 rng(seed);
  std::vector<Fig5Instr> prog;
  for (unsigned i = 0; i < len; ++i) {
    switch (rng.below(8)) {
      case 0:
        prog.push_back(I::load(static_cast<unsigned>(rng.below(8)),
                               static_cast<std::uint32_t>(rng.below(64)) * 4));
        break;
      case 1:
        prog.push_back(I::store(static_cast<unsigned>(rng.below(8)),
                                static_cast<std::uint32_t>(rng.below(64)) * 4));
        break;
      default:
        prog.push_back(I::alu(static_cast<I::AluOp>(rng.below(4)),
                              static_cast<unsigned>(rng.below(8)),
                              static_cast<unsigned>(rng.below(8)),
                              static_cast<unsigned>(rng.below(8))));
        break;
    }
  }
  return prog;
}

class Fig5Property : public ::testing::TestWithParam<int> {};

TEST_P(Fig5Property, StageCapacityNeverExceededAndTokensConserved) {
  machines::Fig5Processor cpu;
  cpu.load(random_fig5_program(31337 + GetParam(), 60));
  // Step manually, asserting the capacity invariant every cycle.
  std::uint64_t guard_cycles = 0;
  while (cpu.engine().tokens_in_flight() > 0 || guard_cycles == 0) {
    cpu.engine().step();
    ++guard_cycles;
    for (unsigned s = 1; s < cpu.net().num_stages(); ++s) {
      const core::PipelineStage& st = cpu.net().stage(static_cast<core::StageId>(s));
      ASSERT_LE(st.occupancy(), st.capacity())
          << "capacity violated at stage " << st.name();
    }
    ASSERT_LT(guard_cycles, 100000u) << "program did not drain";
    if (guard_cycles > 2 && cpu.engine().tokens_in_flight() == 0) break;
  }
  // Token accounting: everything fetched either retired or was squashed.
  const core::Stats& st = cpu.engine().stats();
  EXPECT_EQ(st.fetched, st.retired + st.squashed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Fig5Property, ::testing::Range(0, 8));

// ---------------------------------------------------------------------------
// Timing monotonicity sweeps
// ---------------------------------------------------------------------------

class MissPenaltySweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(MissPenaltySweep, StrongArmCyclesGrowWithMissPenalty) {
  // compress misses the D-cache; a higher penalty must never make it faster,
  // and must never change architectural results.
  const auto* w = workloads::find("compress");
  const sys::Program prog = workloads::build(*w, w->test_scale);

  machines::StrongArmConfig base;
  base.mem.dcache.miss_penalty = 1;
  machines::StrongArmSim fast(base);
  const auto rf = fast.run(prog);

  machines::StrongArmConfig cfg;
  cfg.mem.dcache.miss_penalty = GetParam();
  machines::StrongArmSim sim(cfg);
  const auto r = sim.run(prog);

  EXPECT_GE(r.cycles, rf.cycles);
  EXPECT_EQ(r.output, rf.output);
  EXPECT_EQ(r.instructions, rf.instructions);
}

INSTANTIATE_TEST_SUITE_P(Penalties, MissPenaltySweep,
                         ::testing::Values(2u, 8u, 24u, 64u, 128u));

TEST(TimingSweep, TinyCachesSlowDownButNeverChangeResults) {
  const auto* w = workloads::find("blowfish");
  const sys::Program prog = workloads::build(*w, w->test_scale);
  machines::StrongArmConfig tiny;
  tiny.mem.dcache.size_bytes = 256;
  tiny.mem.dcache.assoc = 1;
  tiny.mem.icache.size_bytes = 256;
  tiny.mem.icache.assoc = 1;
  machines::StrongArmSim small(tiny);
  machines::StrongArmSim normal;
  const auto rs = small.run(prog);
  const auto rn = normal.run(prog);
  EXPECT_GT(rs.cycles, rn.cycles);
  EXPECT_GT(rs.dcache_misses, rn.dcache_misses);
  EXPECT_EQ(rs.output, rn.output);
}

TEST(TimingSweep, LargerBtbNeverMispredictsMore) {
  const auto* w = workloads::find("go");
  const sys::Program prog = workloads::build(*w, w->test_scale);
  machines::XScaleConfig tiny;
  tiny.btb_entries = 2;
  machines::XScaleConfig big;
  big.btb_entries = 512;
  machines::XScaleSim a(tiny), b(big);
  const auto ra = a.run(prog);
  const auto rb = b.run(prog);
  EXPECT_GE(ra.mispredicts, rb.mispredicts);
  EXPECT_GE(ra.cycles, rb.cycles);
  EXPECT_EQ(ra.output, rb.output);
}

TEST(TimingSweep, XScaleBtbBeatsNoPredictionOnLoops) {
  // crc is loop-dominated: the BTB must cut taken-branch redirects
  // dramatically compared to the predictor-less StrongArm front end.
  const auto* w = workloads::find("crc");
  const sys::Program prog = workloads::build(*w, w->test_scale);
  machines::XScaleSim xs;
  machines::StrongArmSim sa;
  const auto rx = xs.run(prog);
  const auto rs = sa.run(prog);
  EXPECT_LT(rx.mispredicts * 2, rs.mispredicts);
}

// ---------------------------------------------------------------------------
// Determinism & replay
// ---------------------------------------------------------------------------

TEST(Determinism, StrongArmCycleExactAcrossRuns) {
  const auto* w = workloads::find("g721");
  const sys::Program prog = workloads::build(*w, w->test_scale);
  machines::StrongArmSim a, b;
  const auto ra = a.run(prog);
  const auto rb = b.run(prog);
  EXPECT_EQ(ra.cycles, rb.cycles);
  EXPECT_EQ(ra.instructions, rb.instructions);
  EXPECT_EQ(ra.output, rb.output);
  EXPECT_EQ(ra.dcache_misses, rb.dcache_misses);
}

TEST(Determinism, IssChunkedExecutionMatchesStraightRun) {
  const auto* w = workloads::find("adpcm");
  const sys::Program prog = workloads::build(*w, w->test_scale);

  mem::Memory m1;
  sys::SyscallHandler s1;
  baseline::FunctionalIss straight(m1, s1);
  straight.reset(prog);
  straight.run();

  mem::Memory m2;
  sys::SyscallHandler s2;
  baseline::FunctionalIss chunked(m2, s2);
  chunked.reset(prog);
  while (!chunked.exited()) chunked.run(777);  // arbitrary chunk size

  EXPECT_EQ(straight.instret(), chunked.instret());
  EXPECT_EQ(s1.output(), s2.output());
  for (unsigned r = 0; r < 16; ++r) EXPECT_EQ(straight.reg(r), chunked.reg(r));
}

// ---------------------------------------------------------------------------
// Cross-simulator agreement on cache behaviour
// ---------------------------------------------------------------------------

TEST(CrossSim, InstructionCountsAgreeEverywhere) {
  // The ISS, the baseline and both RCPN models must agree on the committed
  // instruction count (modulo the in-flight exit SWI in the RCPN models).
  const auto* w = workloads::find("crc");
  const sys::Program prog = workloads::build(*w, w->test_scale);

  mem::Memory m;
  sys::SyscallHandler sh;
  baseline::FunctionalIss iss(m, sh);
  iss.reset(prog);
  iss.run();

  baseline::SimpleScalarSim ss;
  const auto rss = ss.run(prog);
  machines::StrongArmSim sa;
  const auto rsa = sa.run(prog);
  machines::XScaleSim xs;
  const auto rxs = xs.run(prog);

  EXPECT_EQ(rss.instructions, iss.instret());
  EXPECT_LE(iss.instret() - rsa.instructions, 8u);
  EXPECT_LE(iss.instret() - rxs.instructions, 8u);
}

// ---------------------------------------------------------------------------
// Analysis properties of converted nets
// ---------------------------------------------------------------------------

TEST(ConvertedNets, TomasuloIsRsBoundedAndDeadlockFree) {
  machines::TomasuloCore core(/*rs_entries=*/4, /*num_fus=*/2);
  const cpn::ConversionResult conv = cpn::convert(core.net());
  const cpn::AnalysisResult res = cpn::analyze(conv.net);
  EXPECT_FALSE(res.truncated);
  EXPECT_EQ(res.deadlocks, 0u);
  // No place may ever exceed its stage capacity (RS holds the max, 4).
  EXPECT_TRUE(res.bounded(4));
  EXPECT_TRUE(res.all_fireable());
}

TEST(ConvertedNets, CapacityBoundsMatchStageCapacities) {
  machines::Fig5Processor cpu;
  const cpn::ConversionResult conv = cpn::convert(cpu.net());
  const cpn::AnalysisResult res = cpn::analyze(conv.net);
  ASSERT_FALSE(res.truncated);
  for (unsigned p = 0; p < cpu.net().num_places(); ++p) {
    const auto pid = static_cast<core::PlaceId>(p);
    if (cpu.net().stage_of(pid).is_end()) continue;
    const int cp = conv.place_map[p];
    ASSERT_GE(cp, 0);
    EXPECT_LE(res.place_bound[static_cast<unsigned>(cp)],
              cpu.net().stage_of(pid).capacity())
        << cpu.net().place(pid).name;
  }
}

// ---------------------------------------------------------------------------
// Ablation configurations preserve architecture
// ---------------------------------------------------------------------------

TEST(AblationSafety, AllEngineKnobsPreserveResults) {
  const auto* w = workloads::find("adpcm");
  const sys::Program prog = workloads::build(*w, w->test_scale);
  machines::StrongArmSim reference;
  const auto ref = reference.run(prog);

  // Knob 0, two-list everywhere, is a model edit: every stage pinned.
  desc::Description everywhere = machines::describe_machine("strongarm_crc");
  for (desc::DescStage& s : everywhere.stages) s.forced_two_list = 1;

  for (int knob = 0; knob < 2; ++knob) {
    machines::StrongArmConfig cfg;
    if (knob == 1) cfg.decode_cache_bypass = true;
    const auto sim = knob == 0 ? std::make_unique<machines::StrongArmSim>(
                                     everywhere, machines::delegates_for(everywhere), cfg)
                               : std::make_unique<machines::StrongArmSim>(cfg);
    const auto r = sim->run(prog);
    EXPECT_EQ(r.output, ref.output) << "knob " << knob;
    EXPECT_EQ(r.exit_code, ref.exit_code) << "knob " << knob;
    // Decode bypass must not change timing at all; two-list everywhere
    // legitimately adds cycles.
    if (knob != 0) {
      EXPECT_EQ(r.cycles, ref.cycles) << "knob " << knob;
    }
  }
}

}  // namespace
}  // namespace rcpn
