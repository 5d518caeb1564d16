// Tests for the core LiM module: white-box SRAM construction, the full
// flow, design-space exploration, and the smart memories from §2.2.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>

#include <sstream>

#include <map>
#include <thread>

#include "brick/cache.hpp"
#include "fault/defects.hpp"
#include "fault/inject.hpp"
#include "lim/brick_opt.hpp"
#include "lim/cam_block.hpp"
#include "lim/checkpoint.hpp"
#include "lim/flow.hpp"
#include "lim/report.hpp"
#include "lim/yield.hpp"
#include "lim/macro_models.hpp"
#include "util/error.hpp"
#include "lim/smart_memory.hpp"
#include "lim/sram_builder.hpp"
#include "synth/synth.hpp"
#include "tech/process.hpp"
#include "util/jsonl.hpp"
#include "util/rng.hpp"
#include "util/watchdog.hpp"

namespace limsynth::lim {
namespace {

struct Ctx {
  tech::Process process = tech::default_process();
  tech::StdCellLib cells{process};
};

TEST(SramConfig, Derived) {
  SramConfig cfg{128, 10, 4, 16};
  EXPECT_EQ(cfg.rows_per_bank(), 32);
  EXPECT_EQ(cfg.bricks_per_bank(), 2);
  EXPECT_EQ(cfg.name(), "sram128x10_b4_bw16");
}

TEST(SramBuilder, RejectsBadShapes) {
  Ctx ctx;
  EXPECT_THROW(build_sram({100, 10, 3, 16}, ctx.process, ctx.cells), Error);
  EXPECT_THROW(build_sram({128, 10, 1, 24}, ctx.process, ctx.cells), Error);
  EXPECT_THROW(exact_log2(12), Error);
  EXPECT_EQ(exact_log2(64), 6);
}

/// Functional check: write/read random patterns through the gate-level
/// simulation with attached brick models — the Modelsim step of the flow.
void exercise_sram(const SramConfig& cfg) {
  Ctx ctx;
  SramDesign d = build_sram(cfg, ctx.process, ctx.cells);
  netlist::Simulator sim(d.nl, ctx.cells);
  for (netlist::InstId bank : d.banks)
    sim.attach(bank, std::make_shared<SramBankModel>(cfg.rows_per_bank(),
                                                     cfg.code_bits()));
  sim.settle();

  Rng rng(cfg.words);
  std::vector<std::uint64_t> shadow(static_cast<std::size_t>(cfg.words), 0);
  const std::uint64_t addr_mask = static_cast<std::uint64_t>(cfg.words) - 1;
  const std::uint64_t data_mask = (1ull << cfg.bits) - 1;

  // Write every word.
  for (int w = 0; w < cfg.words; ++w) {
    const std::uint64_t data = rng.next_u64() & data_mask;
    shadow[static_cast<std::size_t>(w)] = data;
    sim.set_bus(d.waddr, static_cast<std::uint64_t>(w));
    sim.set_bus(d.wdata, data);
    sim.set_input(d.wen, true);
    sim.set_bus(d.raddr, 0);
    sim.settle();
    sim.clock_edge();
  }
  sim.set_input(d.wen, false);

  // Random reads, respecting the pipeline latency.
  for (int t = 0; t < 40; ++t) {
    const std::uint64_t addr = rng.next_u64() & addr_mask;
    sim.set_bus(d.raddr, addr);
    sim.settle();
    for (int l = 0; l < d.read_latency(); ++l) sim.clock_edge();
    EXPECT_EQ(sim.bus_value(d.rdata), shadow[static_cast<std::size_t>(addr)])
        << "addr " << addr << " cfg " << cfg.name();
  }
}

TEST(SramBuilder, FunctionalSingleBank) { exercise_sram({32, 10, 1, 16}); }
TEST(SramBuilder, FunctionalStacked) { exercise_sram({128, 10, 1, 16}); }
TEST(SramBuilder, FunctionalBanked) { exercise_sram({128, 10, 4, 16}); }
TEST(SramBuilder, FunctionalWide) { exercise_sram({64, 16, 2, 16}); }

TEST(SramBuilder, FunctionalWithEcc) {
  SramConfig cfg{64, 10, 2, 16};
  cfg.ecc = true;
  exercise_sram(cfg);
}

TEST(SramConfig, ValidateRejectsInconsistentShapes) {
  EXPECT_THROW((SramConfig{100, 10, 4, 16}).validate(), Error);  // not pow2
  EXPECT_THROW((SramConfig{128, 10, 3, 16}).validate(), Error);  // bad banks
  EXPECT_THROW((SramConfig{128, 10, 1, 24}).validate(), Error);  // bad bricks
  EXPECT_THROW((SramConfig{128, 0, 4, 16}).validate(), Error);   // no bits
  SramConfig neg{128, 10, 4, 16};
  neg.spare_rows = -1;
  EXPECT_THROW(neg.validate(), Error);
  SramConfig wide{128, 60, 4, 16};  // SECDED codeword would exceed 64 bits
  wide.ecc = true;
  EXPECT_THROW(wide.validate(), Error);
  SramConfig ok{128, 10, 4, 16};
  ok.ecc = true;
  ok.spare_rows = 2;
  EXPECT_NO_THROW(ok.validate());
  EXPECT_EQ(ok.code_bits(), 15);  // 10 data + 4 checks + overall parity
  // Fault-tolerance features show up in the design name.
  EXPECT_NE(ok.name().find("_ecc"), std::string::npos);
  EXPECT_NE(ok.name().find("_sp2"), std::string::npos);
}

/// Acceptance: a stuck-at bitcell injected into a SECDED-protected SRAM is
/// corrected on the way out of the functional simulator; the identical
/// defect in the unprotected SRAM escapes to rdata.
std::uint64_t read_through(SramDesign& d, netlist::Simulator& sim,
                           std::uint64_t addr) {
  sim.set_bus(d.raddr, addr);
  sim.settle();
  for (int l = 0; l < d.read_latency(); ++l) sim.clock_edge();
  return sim.bus_value(d.rdata);
}

std::uint64_t faulty_sram_read(bool ecc) {
  Ctx ctx;
  SramConfig cfg{32, 10, 1, 16};
  cfg.ecc = ecc;
  SramDesign d = build_sram(cfg, ctx.process, ctx.cells);
  const fault::ArrayGeometry geom = array_geometry(cfg, ctx.process);
  // One stuck-at-1 cell at row 5, column 3 — a data column either way.
  const auto map = std::make_shared<fault::FaultMap>(
      geom,
      std::vector<fault::Defect>{{fault::DefectKind::kCellStuck1, 0, 5, 3, 0}});
  netlist::Simulator sim(d.nl, ctx.cells);
  auto model =
      std::make_shared<SramBankModel>(cfg.rows_per_bank(), cfg.code_bits());
  model->set_faults(map, 0);
  sim.attach(d.banks[0], model);
  sim.settle();
  // Write 0x2A5 (bit 3 clear, so the stuck-at-1 cell corrupts the word).
  sim.set_bus(d.waddr, 5);
  sim.set_bus(d.wdata, 0x2A5);
  sim.set_input(d.wen, true);
  sim.set_bus(d.raddr, 0);
  sim.settle();
  sim.clock_edge();
  sim.set_input(d.wen, false);
  return read_through(d, sim, 5);
}

TEST(SramBuilder, EccCorrectsInjectedStuckBitcell) {
  EXPECT_EQ(faulty_sram_read(/*ecc=*/true), 0x2A5u);
  EXPECT_EQ(faulty_sram_read(/*ecc=*/false), 0x2ADu);  // bit 3 forced high
}

TEST(SramBuilder, EccCostsGatesAreaAndEnergy) {
  Ctx ctx;
  const SramConfig plain{32, 10, 1, 16};
  SramConfig prot = plain;
  prot.ecc = true;
  // The encoder/decoder are real synthesized gates...
  const SramDesign d_plain = build_sram(plain, ctx.process, ctx.cells);
  const SramDesign d_ecc = build_sram(prot, ctx.process, ctx.cells);
  EXPECT_GT(d_ecc.nl.live_instance_count(), d_plain.nl.live_instance_count());
  // ...and the wider codeword bricks cost area and energy in the estimator.
  const DsePoint base = evaluate_partition({128, 10, 16}, ctx.process);
  SweepOptions with_ecc;
  with_ecc.ecc = true;
  const DsePoint ecc = evaluate_partition({128, 10, 16}, ctx.process, with_ecc);
  EXPECT_GT(ecc.area, base.area);
  EXPECT_GT(ecc.read_energy, base.read_energy);
}

TEST(Flow, ProducesConsistentReport) {
  Ctx ctx;
  SramDesign d = build_sram({32, 10, 1, 16}, ctx.process, ctx.cells);
  FlowOptions opt;
  opt.activity_cycles = 60;
  const FlowReport rep = run_sram_flow(d, ctx.cells, ctx.process, opt);
  EXPECT_GT(rep.fmax, 500e6);
  EXPECT_LT(rep.fmax, 10e9);
  EXPECT_GT(rep.area, 0.0);
  EXPECT_GT(rep.power.total(), 0.0);
  EXPECT_NEAR(rep.analysis_frequency, rep.fmax, 1e-6 * rep.fmax);
  EXPECT_GT(rep.power.macro, 0.0);  // brick activity was captured
  EXPECT_GT(rep.synthesis.macro_area, 0.0);
}

TEST(Flow, CornersOrderFmax) {
  Ctx ctx;
  FlowOptions opt;
  opt.activity_cycles = 0;
  auto fmax_at = [&](tech::Corner corner) {
    const tech::Process p = ctx.process.at_corner(corner);
    const tech::StdCellLib cells(p);
    SramDesign d = build_sram({32, 10, 1, 16}, p, cells);
    return run_flow(d.nl, d.lib, cells, p, {}, {}, opt).fmax;
  };
  const double tt = fmax_at(tech::Corner::kTypical);
  EXPECT_GT(fmax_at(tech::Corner::kFast), tt);
  EXPECT_LT(fmax_at(tech::Corner::kSlow), tt);
}

// ------------------------------------------------------------------- DSE

TEST(Dse, EvaluatePartitionMatchesEstimator) {
  Ctx ctx;
  const DsePoint p = evaluate_partition({128, 8, 16}, ctx.process);
  EXPECT_GT(p.read_delay, 0.0);
  EXPECT_NEAR(p.read_delay, p.estimate.read_delay, 1e-18);
  EXPECT_EQ(p.choice.stack(), 8);
}

TEST(Dse, RejectsIndivisible) {
  Ctx ctx;
  EXPECT_THROW(evaluate_partition({100, 8, 16}, ctx.process), Error);
}

TEST(Dse, ParetoFrontBasics) {
  // Point B dominates A; C trades off; D is dominated by C.
  std::vector<std::array<double, 3>> pts = {
      {2, 2, 2}, {1, 1, 1}, {0.5, 3, 1}, {0.6, 3.5, 1.5}};
  const auto front = pareto_front(pts);
  EXPECT_EQ(front, (std::vector<std::size_t>{1, 2}));
}

TEST(Dse, ParetoFrontEdgeCases) {
  // Empty input: empty front, no crash.
  EXPECT_TRUE(pareto_front(std::vector<std::array<double, 3>>{}).empty());
  EXPECT_TRUE(pareto_front(std::vector<DsePoint>{}).empty());
  // A single point is its own front.
  const std::vector<std::array<double, 3>> one = {{1.0, 2.0, 3.0}};
  EXPECT_EQ(pareto_front(one), std::vector<std::size_t>{0});
  // Exact duplicates don't dominate each other: both survive.
  const std::vector<std::array<double, 3>> dup = {
      {1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}, {2.0, 2.0, 2.0}};
  EXPECT_EQ(pareto_front(dup), (std::vector<std::size_t>{0, 1}));
}

/// Acceptance: a sweep over a mix of valid and invalid partitions finishes,
/// marks the failures with their error text, and keeps them off the front.
TEST(Dse, SweepDegradesGracefully) {
  Ctx ctx;
  const std::vector<PartitionChoice> choices = {
      {128, 8, 16},  // fine
      {100, 8, 16},  // 100 not divisible by 16
      {128, 8, 32},  // fine
      {0, 8, 16},    // empty array
      {128, 8, 13},  // 128 not divisible by 13
  };
  const auto pts = sweep_partitions_checkpointed(choices, ctx.process).points;
  ASSERT_EQ(pts.size(), choices.size());
  const std::vector<bool> expect_ok = {true, false, true, false, false};
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(pts[i].ok, expect_ok[i]) << "point " << i;
    if (!pts[i].ok) {
      EXPECT_FALSE(pts[i].error.empty()) << "point " << i;
      EXPECT_DOUBLE_EQ(pts[i].post_repair_yield, 0.0);
    }
  }
  const auto front = pareto_front(pts);
  EXPECT_FALSE(front.empty());
  for (std::size_t i : front) EXPECT_TRUE(pts[i].ok) << "front index " << i;
}

TEST(Dse, YieldAxisDeterministicAndFiltersFront) {
  Ctx ctx;
  SweepOptions opt;
  opt.yield_chips = 60;
  opt.yield_seed = 9;
  opt.spare_rows = 2;
  opt.defect_density_per_m2 = 5e8;  // hot process: yields clearly below 1
  const std::vector<PartitionChoice> choices = {
      {64, 8, 16}, {128, 8, 16}, {256, 8, 16}};
  const auto pts =
      sweep_partitions_checkpointed(choices, ctx.process, opt).points;
  for (const auto& p : pts) {
    EXPECT_GE(p.post_repair_yield, 0.0);
    EXPECT_LE(p.post_repair_yield, 1.0);
  }
  // Bigger arrays collect more defects: yield falls with area.
  EXPECT_GE(pts[0].post_repair_yield, pts[2].post_repair_yield);
  // Same options, same seed: bit-identical yields.
  const auto again =
      sweep_partitions_checkpointed(choices, ctx.process, opt).points;
  for (std::size_t i = 0; i < pts.size(); ++i)
    EXPECT_DOUBLE_EQ(pts[i].post_repair_yield, again[i].post_repair_yield);
  // A yield floor above every point empties the front; floor 0 keeps it.
  EXPECT_TRUE(pareto_front(pts, 1.01).empty());
  EXPECT_FALSE(pareto_front(pts, 0.0).empty());
}

TEST(Dse, SweepFrontNeverEmpty) {
  Ctx ctx;
  std::vector<PartitionChoice> choices;
  for (int bits : {8, 16})
    for (int bw : {16, 32, 64}) choices.push_back({128, bits, bw});
  const auto pts = sweep_partitions_checkpointed(choices, ctx.process).points;
  const auto front = pareto_front(pts);
  EXPECT_FALSE(front.empty());
  EXPECT_LE(front.size(), pts.size());
}

// ------------------------------------------------- Fig. 5 CAM block

TEST(CamBlock, AccumulatesAndInsertsLikeAMap) {
  Ctx ctx;
  CamBlockConfig cfg;
  cfg.entries = 8;
  CamBlockDesign d = build_cam_block(cfg, ctx.process, ctx.cells);
  netlist::Simulator sim(d.nl, ctx.cells);
  CamBlockModels models = attach_cam_block_models(d, sim);
  sim.settle();

  std::map<int, std::uint64_t> reference;
  const std::uint64_t mask = (1ull << cfg.value_bits) - 1;
  Rng rng(41);
  // 20 operations over 6 distinct rows: inserts + repeated accumulates.
  for (int op = 0; op < 20; ++op) {
    const int row = static_cast<int>(rng.below(6)) * 37 + 5;  // sparse ids
    const std::uint64_t v = rng.below(200) + 1;
    cam_block_apply(d, sim, row, v);
    reference[row] = (reference[row] + v) & mask;
  }
  const auto contents = cam_block_contents(d, models);
  EXPECT_EQ(contents.size(), reference.size());
  for (const auto& [row, value] : contents) {
    ASSERT_TRUE(reference.count(row)) << "unexpected row " << row;
    EXPECT_EQ(value, reference[row]) << "row " << row;
  }
}

TEST(CamBlock, MatchAndFullFlags) {
  Ctx ctx;
  CamBlockConfig cfg;
  cfg.entries = 4;
  CamBlockDesign d = build_cam_block(cfg, ctx.process, ctx.cells);
  netlist::Simulator sim(d.nl, ctx.cells);
  (void)attach_cam_block_models(d, sim);
  sim.settle();
  EXPECT_FALSE(sim.value(d.full_out));
  for (int i = 0; i < 4; ++i) cam_block_apply(d, sim, 100 + i, 1);
  EXPECT_TRUE(sim.value(d.full_out));
  // A search for a stored row raises MATCH in stage 1.
  sim.set_bus(d.row, 102);
  sim.set_input(d.op_valid, true);
  sim.settle();
  sim.clock_edge();
  EXPECT_TRUE(sim.value(d.match_out));
  sim.set_input(d.op_valid, false);
  sim.settle();
  sim.clock_edge();
  sim.clock_edge();
}

TEST(CamBlock, StaFindsTheMacWritebackPath) {
  Ctx ctx;
  CamBlockConfig cfg;
  CamBlockDesign d = build_cam_block(cfg, ctx.process, ctx.cells);
  FlowOptions opt;
  opt.activity_cycles = 0;
  const FlowReport rep =
      run_flow(d.nl, d.lib, ctx.cells, ctx.process, {}, {}, opt);
  EXPECT_GT(rep.fmax, 200e6);
  EXPECT_LT(rep.fmax, 5e9);
}

TEST(Report, TimingPowerQorRender) {
  Ctx ctx;
  SramDesign d = build_sram({32, 10, 1, 16}, ctx.process, ctx.cells);
  FlowOptions opt;
  opt.activity_cycles = 40;
  const FlowReport rep = run_sram_flow(d, ctx.cells, ctx.process, opt);

  std::ostringstream timing, power, qor;
  write_timing_report(rep, timing);
  write_power_report(rep, power);
  write_qor_report(d.nl, rep, qor);
  EXPECT_NE(timing.str().find("f_max"), std::string::npos);
  EXPECT_NE(timing.str().find(rep.timing.critical_endpoint),
            std::string::npos);
  EXPECT_NE(power.str().find("memory macros"), std::string::npos);
  EXPECT_NE(qor.str().find("wirelength"), std::string::npos);

  const std::string svg = floorplan_svg(d.nl, d.lib, rep.floorplan);
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("bank0"), std::string::npos);
}

TEST(Yield, DistributionAndCurve) {
  Ctx ctx;
  // Cheap fmax proxy: estimator min_cycle of a brick under each sample —
  // exercises the yield machinery without 40 flow runs.
  auto measure = [&](const tech::Process& p) {
    const brick::Brick b =
        brick::compile_brick({tech::BitcellKind::kSram8T, 16, 10, 2}, p);
    return 1.0 / brick::estimate_brick(b).min_cycle;
  };
  FullYieldOptions opt;
  opt.chips = 40;
  opt.seed = 77;
  const SramConfig cfg{32, 10, 1, 16};
  const YieldResult res =
      analyze_yield_full(cfg, ctx.process, opt, measure).parametric;
  EXPECT_EQ(res.fmax_samples.size(), 40u);
  EXPECT_GT(res.stats.stddev(), 0.0);
  // Yield is monotone non-increasing in frequency.
  for (std::size_t i = 1; i < res.yield_curve.size(); ++i)
    EXPECT_LE(res.yield_curve[i].second, res.yield_curve[i - 1].second);
  // Everything passes far below the distribution; nothing far above.
  EXPECT_DOUBLE_EQ(res.yield_at(0.5 * res.stats.mean()), 1.0);
  EXPECT_DOUBLE_EQ(res.yield_at(2.0 * res.stats.mean()), 0.0);
  // Determinism.
  const YieldResult again =
      analyze_yield_full(cfg, ctx.process, opt, measure).parametric;
  EXPECT_EQ(again.fmax_samples, res.fmax_samples);
}

TEST(Yield, YieldAtHandlesOutOfRangeFrequencies) {
  YieldResult empty;
  EXPECT_THROW(empty.yield_at(1e9), Error);  // no samples: no answer
  YieldResult r;
  r.fmax_samples = {1e9, 2e9, 3e9};
  EXPECT_DOUBLE_EQ(r.yield_at(0.0), 1.0);    // below every sample
  EXPECT_DOUBLE_EQ(r.yield_at(-5e9), 1.0);   // nonsense-low
  EXPECT_DOUBLE_EQ(r.yield_at(1e15), 0.0);   // above every sample
  EXPECT_DOUBLE_EQ(r.yield_at(2e9), 2.0 / 3.0);  // boundary is inclusive
}

/// Acceptance: full yield analysis of the paper's configuration E with a
/// deliberately dirty process. Redundancy + ECC must buy back yield —
/// post-repair strictly above raw functional — and a rerun with the same
/// seed must reproduce every number bit-exactly.
TEST(Yield, FullAnalysisConfigEPostRepairBeatsFunctional) {
  Ctx ctx;
  SramConfig cfg{128, 10, 4, 16};
  cfg.spare_rows = 2;
  cfg.ecc = true;
  FullYieldOptions opt;
  opt.chips = 200;
  opt.seed = 123;
  opt.defect_density_per_m2 = 2e8;  // ~a few defects per chip at this area
  const FullYieldResult res = analyze_yield_full(cfg, ctx.process, opt);
  EXPECT_EQ(res.chips, 200);
  EXPECT_GT(res.mean_defects, 0.0);
  EXPECT_LT(res.functional_yield(), 1.0);  // the process really is dirty
  EXPECT_GT(res.post_repair_yield(), res.functional_yield());  // repair works
  EXPECT_GT(res.post_repair_yield(), 0.5);
  // The same chips with neither spares nor SECDED yield less: redundancy
  // is what buys the repair.
  const FullYieldResult bare =
      analyze_yield_full(SramConfig{128, 10, 4, 16}, ctx.process, opt);
  EXPECT_LT(bare.post_repair_yield(), res.post_repair_yield());
  // The combined curve can never beat the parametric curve, and both are
  // monotone non-increasing in frequency.
  ASSERT_FALSE(res.bins.empty());
  for (std::size_t i = 0; i < res.bins.size(); ++i) {
    EXPECT_LE(res.bins[i].combined, res.bins[i].parametric);
    if (i > 0) {
      EXPECT_LE(res.bins[i].parametric, res.bins[i - 1].parametric);
      EXPECT_LE(res.bins[i].combined, res.bins[i - 1].combined);
    }
  }
  // Bit-exact reproducibility from the seed.
  const FullYieldResult again = analyze_yield_full(cfg, ctx.process, opt);
  EXPECT_EQ(again.functional_good, res.functional_good);
  EXPECT_EQ(again.repaired_good, res.repaired_good);
  EXPECT_EQ(again.parametric.fmax_samples, res.parametric.fmax_samples);
  EXPECT_DOUBLE_EQ(again.mean_defects, res.mean_defects);
  EXPECT_DOUBLE_EQ(again.mean_spares_used, res.mean_spares_used);
}

/// Replays one chip's post-repair overlay through the scalar settle engine
/// for the trace analyze_yield_full verifies with; true when every read
/// matches the fault-free golden.
bool scalar_replay_matches_golden(
    const SramDesign& d, const tech::StdCellLib& cells,
    const std::vector<SramCycle>& trace,
    const std::shared_ptr<const fault::FaultMap>& faults) {
  const int rows = d.config.rows_per_bank();
  const int code_bits = d.config.code_bits();
  netlist::Simulator golden(d.nl, cells);
  netlist::Simulator chip(d.nl, cells);
  for (std::size_t b = 0; b < d.banks.size(); ++b) {
    golden.attach(d.banks[b], std::make_shared<SramBankModel>(rows, code_bits));
    auto m = std::make_shared<SramBankModel>(rows, code_bits);
    m->set_faults(faults, static_cast<int>(b));
    chip.attach(d.banks[b], std::move(m));
  }
  bool match = true;
  for (const SramCycle& t : trace) {
    for (netlist::Simulator* sim : {&golden, &chip}) {
      sim->set_bus(d.raddr, t.raddr);
      sim->set_bus(d.waddr, t.waddr);
      sim->set_bus(d.wdata, t.wdata);
      sim->set_input(d.wen, t.wen);
      sim->settle();
      sim->clock_edge();
    }
    match = match && chip.bus_value(d.rdata) == golden.bus_value(d.rdata);
  }
  return match;
}

/// Functional replay verification: every chip the allocator calls
/// repairable must actually read back golden data through the gate-level
/// simulation with its post-repair fault overlay installed — and the
/// 63-chips-per-pass bit-plane verdicts must be the ones a one-chip-at-a-
/// time scalar replay of the same chips (redrawn here from the seed)
/// gives.
TEST(Yield, VerifyReplayBatchMatchesScalar) {
  Ctx ctx;
  SramConfig cfg{32, 8, 2, 16};
  cfg.spare_rows = 1;
  cfg.ecc = true;
  FullYieldOptions opt;
  opt.chips = 150;
  opt.seed = 9;
  opt.defect_density_per_m2 = 1e9;
  opt.verify_cycles = 40;

  const FullYieldResult batched = analyze_yield_full(cfg, ctx.process, opt);
  EXPECT_EQ(batched.verified, batched.repaired_good);
  ASSERT_GT(batched.verified, 63);  // needs >1 bit-plane group to matter
  EXPECT_LT(batched.verified, opt.chips);  // some chips unrepairable
  // Repair + ECC genuinely deliver: every repairable chip replays clean.
  EXPECT_EQ(batched.verified_good, batched.verified);
  ASSERT_EQ(batched.chip_verified.size(),
            static_cast<std::size_t>(opt.chips));

  // Redraw every chip as analyze_yield_full does (process sample, then
  // defects, from one stream) and replay the repairable ones one by one.
  SramDesign design = build_sram(cfg, ctx.process, ctx.cells);
  synth::synthesize(design.nl, design.lib, ctx.cells);
  const std::vector<SramCycle> trace =
      random_cycles(design, opt.verify_cycles, kYieldVerifySeed);
  const fault::ArrayGeometry geom = array_geometry(cfg, ctx.process);
  Rng rng(opt.seed);
  std::vector<std::uint8_t> scalar(static_cast<std::size_t>(opt.chips), 0);
  int repairable = 0;
  for (int i = 0; i < opt.chips; ++i) {
    (void)ctx.process.monte_carlo_chip(rng);
    auto map = std::make_shared<fault::FaultMap>(
        geom,
        fault::sample_defects(geom, opt.defect_density_per_m2,
                              ctx.process.defect_cluster_alpha, rng));
    const fault::RepairResult rr = fault::allocate_repairs(*map, cfg.ecc);
    if (!rr.repairable) continue;
    ++repairable;
    map->apply_repair(rr);
    scalar[static_cast<std::size_t>(i)] =
        scalar_replay_matches_golden(design, ctx.cells, trace, map) ? 1 : 0;
  }
  EXPECT_EQ(repairable, batched.verified);
  EXPECT_EQ(scalar, batched.chip_verified);

  // verify_cycles = 0 keeps the analytic-only behavior.
  opt.verify_cycles = 0;
  const FullYieldResult off = analyze_yield_full(cfg, ctx.process, opt);
  EXPECT_EQ(off.verified, 0);
  EXPECT_TRUE(off.chip_verified.empty());
}

// ------------------------------------------------ brick-selection opt

TEST(BrickOpt, PicksLowEnergyWhenUnconstrained) {
  Ctx ctx;
  BrickOptTarget target;
  target.objective = OptObjective::kEnergy;
  target.validate_top = 1;
  const BrickOptResult res =
      optimize_brick_selection(64, 8, target, ctx.process, ctx.cells);
  EXPECT_TRUE(res.feasible);
  EXPECT_GT(res.report.fmax, 0.0);
  EXPECT_GE(res.candidates.size(), 4u);
  // The chosen candidate must be the best-scoring unpruned one.
  EXPECT_EQ(res.best.name(), res.candidates.front().config.name());
}

TEST(BrickOpt, InfeasibleTargetReportsClosest) {
  Ctx ctx;
  BrickOptTarget target;
  target.min_fmax = 50e9;  // absurd
  target.validate_top = 1;
  const BrickOptResult res =
      optimize_brick_selection(64, 8, target, ctx.process, ctx.cells);
  EXPECT_FALSE(res.feasible);
  EXPECT_GT(res.report.fmax, 0.0);  // still returns the closest design
  for (const auto& c : res.candidates) EXPECT_TRUE(c.pruned);
}

TEST(BrickOpt, AreaObjectivePrefersFewerBanks) {
  Ctx ctx;
  BrickOptTarget by_area;
  by_area.objective = OptObjective::kArea;
  by_area.validate_top = 1;
  const auto res =
      optimize_brick_selection(128, 8, by_area, ctx.process, ctx.cells);
  EXPECT_TRUE(res.feasible);
  EXPECT_EQ(res.best.banks, 1);  // banking always costs area in the model
}

// --------------------------------------------------- parallel-access mem

TEST(Pam, LocateMapsPixelsUniquely) {
  ParallelAccessConfig cfg;
  std::vector<std::vector<bool>> seen(
      4, std::vector<bool>(static_cast<std::size_t>(cfg.bank_rows()), false));
  for (int r = 0; r < cfg.image_rows; ++r) {
    for (int c = 0; c < cfg.image_cols; ++c) {
      const PamLocation loc = pam_locate(cfg, r, c);
      ASSERT_GE(loc.bank, 0);
      ASSERT_LT(loc.bank, cfg.banks());
      ASSERT_GE(loc.row, 0);
      ASSERT_LT(loc.row, cfg.bank_rows());
      EXPECT_FALSE(seen[static_cast<std::size_t>(loc.bank)][static_cast<std::size_t>(loc.row)]);
      seen[static_cast<std::size_t>(loc.bank)][static_cast<std::size_t>(loc.row)] = true;
    }
  }
}

void exercise_pam(bool smart) {
  Ctx ctx;
  ParallelAccessConfig cfg;
  cfg.image_rows = 16;
  cfg.image_cols = 16;
  cfg.win_m = 2;
  cfg.win_n = 2;
  cfg.brick_words = 16;
  cfg.smart = smart;
  ParallelAccessDesign d =
      build_parallel_access_memory(cfg, ctx.process, ctx.cells);
  netlist::Simulator sim(d.nl, ctx.cells);
  auto models = attach_pam_models(d, sim);

  Rng rng(17);
  std::vector<std::vector<std::uint64_t>> image(
      static_cast<std::size_t>(cfg.image_rows),
      std::vector<std::uint64_t>(static_cast<std::size_t>(cfg.image_cols)));
  for (auto& row : image)
    for (auto& px : row) px = rng.below(256);
  pam_load_image(cfg, models, image);

  sim.set_input(d.wen, false);
  sim.settle();
  for (int trial = 0; trial < 12; ++trial) {
    const int x = static_cast<int>(rng.below(static_cast<std::uint64_t>(cfg.image_rows - cfg.win_m)));
    const int y = static_cast<int>(rng.below(static_cast<std::uint64_t>(cfg.image_cols - cfg.win_n)));
    sim.set_bus(d.x, static_cast<std::uint64_t>(x));
    sim.set_bus(d.y, static_cast<std::uint64_t>(y));
    sim.settle();
    sim.clock_edge();
    // The window holds the m x n pixels at (x..x+m, y..y+n), delivered by
    // residue: window[a][b] = pixel with row%m==a, col%n==b.
    for (int a = 0; a < cfg.win_m; ++a) {
      for (int b = 0; b < cfg.win_n; ++b) {
        const int r = x + ((a - x % cfg.win_m) + cfg.win_m) % cfg.win_m;
        const int c = y + ((b - y % cfg.win_n) + cfg.win_n) % cfg.win_n;
        EXPECT_EQ(sim.bus_value(d.window[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)]),
                  image[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)])
            << "win(" << x << "," << y << ") bank(" << a << "," << b << ")";
      }
    }
  }
}

TEST(Pam, SmartVariantReadsWindows) { exercise_pam(true); }
TEST(Pam, AsicVariantReadsWindows) { exercise_pam(false); }

TEST(Pam, SmartUsesFewerGates) {
  Ctx ctx;
  ParallelAccessConfig cfg;
  cfg.image_rows = cfg.image_cols = 32;
  cfg.smart = true;
  const auto smart = build_parallel_access_memory(cfg, ctx.process, ctx.cells);
  cfg.smart = false;
  const auto asic = build_parallel_access_memory(cfg, ctx.process, ctx.cells);
  EXPECT_LT(smart.nl.live_instance_count(), asic.nl.live_instance_count());
}

// -------------------------------------------------- interpolation memory

TEST(Interp, HardwareMatchesReference) {
  Ctx ctx;
  InterpConfig cfg;
  cfg.dense_entries = 256;
  cfg.seed_entries = 32;
  cfg.value_bits = 10;
  InterpDesign d = build_interpolation_memory(cfg, ctx.process, ctx.cells);
  netlist::Simulator sim(d.nl, ctx.cells);
  InterpModels models = attach_interp_models(d, sim);

  // A smooth function sampled coarsely (quadratic ramp).
  std::vector<std::uint64_t> samples;
  for (int i = 0; i < cfg.seed_entries; ++i)
    samples.push_back(static_cast<std::uint64_t>(i * i / 2 + 3 * i));
  interp_load_table(cfg, models, samples);

  sim.settle();
  Rng rng(23);
  for (int trial = 0; trial < 30; ++trial) {
    const int idx = static_cast<int>(rng.below(
        static_cast<std::uint64_t>(cfg.dense_entries)));
    sim.set_bus(d.index, static_cast<std::uint64_t>(idx));
    sim.settle();
    sim.clock_edge();
    sim.clock_edge();
    EXPECT_EQ(sim.bus_value(d.out), interp_reference(cfg, samples, idx))
        << "index " << idx;
  }
}

TEST(Interp, ReferenceInterpolatesLinearly) {
  InterpConfig cfg;
  cfg.dense_entries = 64;
  cfg.seed_entries = 8;
  cfg.value_bits = 12;
  std::vector<std::uint64_t> samples = {0, 80, 160, 240, 320, 400, 480, 560};
  // Exactly linear table: interpolation reproduces the line.
  for (int i = 0; i < 56; ++i) {  // stay off the wrap segment
    EXPECT_EQ(interp_reference(cfg, samples, i),
              static_cast<std::uint64_t>(10 * i));
  }
}

TEST(Interp, SeedTableBeatsDenseTableOnArea) {
  // The LiM argument from [13]: seed table + interpolation logic is far
  // smaller than the dense table it emulates.
  Ctx ctx;
  const brick::BrickEstimate dense = brick::estimate_brick(
      brick::compile_brick({tech::BitcellKind::kSram8T, 64, 12, 16},
                           ctx.process));  // 1024-entry dense table
  const brick::BrickEstimate seed = brick::estimate_brick(
      brick::compile_brick({tech::BitcellKind::kSram8T, 32, 12, 1},
                           ctx.process));  // 2x 32-entry seed banks
  EXPECT_LT(2.0 * seed.bank_area + 3000e-12 /* interp logic */,
            0.5 * dense.bank_area);
}

// ------------------------------------ macro-model state surface (SEU)

TEST(MacroState, SramPeekPokeRoundTripsAndMasks) {
  SramBankModel bank(8, 10);
  EXPECT_EQ(bank.state_rows(), 8);
  EXPECT_EQ(bank.state_bits(), 10);
  bank.poke(3, 0x2AB);
  EXPECT_EQ(bank.peek(3), 0x2ABu);
  // Values are masked to the stored word width, never stored wider.
  bank.poke(3, 0xFFFFF);
  EXPECT_EQ(bank.peek(3), 0x3FFu);
  EXPECT_EQ(bank.peek(0), 0u);
}

TEST(MacroState, FlipStateBitsXorsTheStoredWord) {
  SramBankModel bank(8, 10);
  bank.poke(5, 0x155);
  bank.flip_state_bits(5, 0b11);  // adjacent double-bit burst
  EXPECT_EQ(bank.peek(5), 0x156u);
  bank.flip_state_bits(5, 0b11);  // flipping back restores
  EXPECT_EQ(bank.peek(5), 0x155u);
}

TEST(MacroState, OutOfRangeAccessThrowsInvalidConfig) {
  SramBankModel bank(8, 10);
  for (int row : {-1, 8, 100}) {
    EXPECT_THROW(bank.peek(row), Error) << row;
    EXPECT_THROW(bank.poke(row, 0), Error) << row;
  }
  try {
    bank.peek(8);
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidConfig);
  }
}

TEST(MacroState, CamPokeCorruptsTheWordButNotValidity) {
  CamBankModel cam(8, 6);
  cam.set_word(2, 0x15, /*valid=*/true);
  // An SEU in the index array flips stored bits; the validity flag is
  // side-band state a storage upset cannot reach.
  cam.flip_state_bits(2, 0x1);
  EXPECT_EQ(cam.peek(2), 0x14u);
  EXPECT_TRUE(cam.is_valid(2));
  cam.poke(4, 0x3F);
  EXPECT_FALSE(cam.is_valid(4));  // poke does not validate an entry
}

TEST(MacroState, DefaultMacroModelExposesNoState) {
  struct Stateless : netlist::MacroModel {
    void on_clock(netlist::Simulator&, netlist::InstId) override {}
  } model;
  EXPECT_EQ(model.state_rows(), 0);
  EXPECT_EQ(model.state_bits(), 0);
  EXPECT_THROW(model.peek(0), Error);
  EXPECT_THROW(model.poke(0, 1), Error);
}

TEST(BrickCache, CharacterizeReturnsPositiveMetrics) {
  Ctx ctx;
  brick::BrickSpec spec;
  spec.words = 64;
  spec.bits = 16;
  const auto compiled = brick::BrickCache::global().get(spec, ctx.process);
  const brick::BrickEstimate& e = compiled->estimate;
  EXPECT_GT(e.read_delay, 0.0);
  EXPECT_GT(e.write_energy, 0.0);
  EXPECT_GT(e.min_cycle, 0.0);
  EXPECT_GT(e.leakage, 0.0);
  EXPECT_GT(e.bank_area, 0.0);
  EXPECT_GT(compiled->brick.layout.area, 0.0);
}

TEST(Flow, ReportIsDeterministicAndSurvivesG17Text) {
  // Two independent build + flow runs give the same report bit for bit,
  // and its numbers survive the journals' %.17g text exactly.
  Ctx ctx;
  auto analyze = [&] {
    SramConfig cfg;
    cfg.words = 32;
    cfg.bits = 8;
    cfg.brick_words = 16;
    SramDesign d = build_sram(cfg, ctx.process, ctx.cells);
    FlowOptions fopt;
    fopt.activity_cycles = 20;
    fopt.stimulus_seed = 3;
    return run_sram_flow(d, ctx.cells, ctx.process, fopt);
  };
  const FlowReport a = analyze();
  const FlowReport b = analyze();
  EXPECT_EQ(a.fmax, b.fmax);
  EXPECT_EQ(a.area, b.area);
  EXPECT_EQ(a.power.total(), b.power.total());
  EXPECT_EQ(a.timing.critical_endpoint, b.timing.critical_endpoint);
  EXPECT_GT(a.power.total(), 0.0);
  const std::string line = "{\"fmax_hz\":" + jsonl::format_g17(a.fmax) +
                           ",\"area_m2\":" + jsonl::format_g17(a.area) +
                           ",\"power_w\":" +
                           jsonl::format_g17(a.power.total()) + "}";
  double v = 0.0;
  ASSERT_TRUE(jsonl::read_double(line, jsonl::find_field(line, "fmax_hz"), &v));
  EXPECT_EQ(v, a.fmax);
  ASSERT_TRUE(jsonl::read_double(line, jsonl::find_field(line, "area_m2"), &v));
  EXPECT_EQ(v, a.area);
  ASSERT_TRUE(jsonl::read_double(line, jsonl::find_field(line, "power_w"), &v));
  EXPECT_EQ(v, a.power.total());
}

TEST(Watchdog, PreemptsCooperativeWaitWithResourceExhausted) {
  // A cooperative wait polling its watchdog, as the executors poll between
  // points: an 80 ms budget preempts a 30 s wait with resource_exhausted.
  const auto t0 = std::chrono::steady_clock::now();
  const Watchdog wd("sleep", 0.080);
  ErrorCode code = ErrorCode::kInternal;
  try {
    while (std::chrono::steady_clock::now() - t0 < std::chrono::seconds(30)) {
      wd.check();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  } catch (const Error& e) {
    code = e.code();
  }
  EXPECT_EQ(code, ErrorCode::kResourceExhausted);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));
}

}  // namespace
}  // namespace limsynth::lim
