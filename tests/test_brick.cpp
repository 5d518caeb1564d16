#include <gtest/gtest.h>

#include <string>

#include "brick/brick.hpp"
#include "brick/cache.hpp"
#include "brick/estimator.hpp"
#include "brick/golden.hpp"
#include "brick/library_gen.hpp"
#include "circuit/circuit.hpp"
#include "circuit/transient.hpp"
#include "tech/process.hpp"
#include "util/units.hpp"

namespace limsynth::brick {
namespace {

using limsynth::units::fF;
using limsynth::units::pJ;
using limsynth::units::ps;
using tech::BitcellKind;

tech::Process proc() { return tech::default_process(); }

TEST(BrickSpec, NameEncodesGeometry) {
  EXPECT_EQ((BrickSpec{BitcellKind::kSram8T, 16, 10, 1}.name()),
            "brick_sram8t_16x10");
  EXPECT_EQ((BrickSpec{BitcellKind::kCamNor10T, 16, 10, 4}.name()),
            "brick_cam10t_16x10_s4");
}

TEST(Compiler, RejectsBadSpecs) {
  EXPECT_THROW(compile_brick({BitcellKind::kSram8T, 1, 10, 1}, proc()), Error);
  EXPECT_THROW(compile_brick({BitcellKind::kSram8T, 16, 0, 1}, proc()), Error);
  EXPECT_THROW(compile_brick({BitcellKind::kSram8T, 16, 10, 0}, proc()), Error);
}

TEST(Compiler, UnconventionalSizesArePermitted) {
  // Paper: "Any unconventional bit, row, and stacking numbers (non-multiple
  // of 8) are also permitted".
  for (const auto& [w, bits] : {std::pair{17, 11}, {23, 7}, {100, 13}}) {
    const Brick b = compile_brick({BitcellKind::kSram8T, w, bits, 3}, proc());
    EXPECT_GT(estimate_brick(b).read_delay, 0.0);
  }
}

TEST(Compiler, WordlineDriverScalesWithBits) {
  const Brick narrow = compile_brick({BitcellKind::kSram8T, 16, 4, 1}, proc());
  const Brick wide = compile_brick({BitcellKind::kSram8T, 16, 64, 1}, proc());
  EXPECT_GT(wide.wl_inv_drive, narrow.wl_inv_drive);
  EXPECT_GT(wide.wl_cap, narrow.wl_cap);
}

TEST(Compiler, AllBitcellKindsCompile) {
  for (auto kind : {BitcellKind::kSram6T, BitcellKind::kSram8T,
                    BitcellKind::kCamNor10T, BitcellKind::kEdram1T1C}) {
    const Brick b = compile_brick({kind, 16, 10, 2}, proc());
    EXPECT_GT(b.layout.area, 0.0);
    const BrickEstimate e = estimate_brick(b);
    EXPECT_GT(e.read_delay, 0.0);
    EXPECT_GT(e.read_energy, 0.0);
  }
}

// ------------------------------------------------------------- estimator

struct StackCase {
  int words, bits, stack;
};

class EstimatorStacking : public ::testing::TestWithParam<StackCase> {};

TEST_P(EstimatorStacking, DelayAndEnergyGrowWithStack) {
  const auto c = GetParam();
  BrickSpec spec{BitcellKind::kSram8T, c.words, c.bits, c.stack};
  BrickSpec taller = spec;
  taller.stack = c.stack * 2;
  const BrickEstimate lo = estimate_brick(compile_brick(spec, proc()));
  const BrickEstimate hi = estimate_brick(compile_brick(taller, proc()));
  EXPECT_GT(hi.read_delay, lo.read_delay);
  EXPECT_GT(hi.read_energy, lo.read_energy);
  EXPECT_GT(hi.bank_area, lo.bank_area);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EstimatorStacking,
    ::testing::Values(StackCase{16, 10, 1}, StackCase{16, 10, 4},
                      StackCase{32, 12, 1}, StackCase{32, 12, 2},
                      StackCase{64, 8, 1}, StackCase{16, 32, 2}));

TEST(Estimator, BreakdownSumsToTotal) {
  const Brick b = compile_brick({BitcellKind::kSram8T, 16, 10, 4}, proc());
  const BrickEstimate e = estimate_brick(b);
  EXPECT_NEAR(e.read_delay,
              e.t_control + e.t_wordline + e.t_bitline + e.t_sense + e.t_output,
              1e-15);
}

TEST(Estimator, TableOneMagnitudes) {
  // Land within ~25% of the paper's published tool numbers for the two
  // silicon-calibrated bricks (absolute calibration, DESIGN.md §6).
  const BrickEstimate a =
      estimate_brick(compile_brick({BitcellKind::kSram8T, 16, 10, 1}, proc()));
  EXPECT_NEAR(a.read_delay, 247 * ps, 0.25 * 247 * ps);
  EXPECT_NEAR(a.read_energy, 0.54 * pJ, 0.25 * 0.54 * pJ);
  const BrickEstimate d =
      estimate_brick(compile_brick({BitcellKind::kSram8T, 32, 12, 8}, proc()));
  EXPECT_NEAR(d.read_delay, 353 * ps, 0.25 * 353 * ps);
  EXPECT_NEAR(d.read_energy, 1.19 * pJ, 0.30 * 1.19 * pJ);
}

TEST(Estimator, MoreWordsSlowerBitline) {
  const BrickEstimate w16 =
      estimate_brick(compile_brick({BitcellKind::kSram8T, 16, 10, 1}, proc()));
  const BrickEstimate w64 =
      estimate_brick(compile_brick({BitcellKind::kSram8T, 64, 10, 1}, proc()));
  EXPECT_GT(w64.t_bitline, 2.0 * w16.t_bitline);
}

TEST(Estimator, LargerLoadSlowerOutput) {
  const Brick b = compile_brick({BitcellKind::kSram8T, 16, 10, 1}, proc());
  EXPECT_GT(estimate_brick(b, 40 * fF).read_delay,
            estimate_brick(b, 2 * fF).read_delay);
}

TEST(Estimator, CornersOrderDelay) {
  const BrickSpec spec{BitcellKind::kSram8T, 16, 10, 1};
  const auto tt = estimate_brick(compile_brick(spec, proc()));
  const auto ff = estimate_brick(
      compile_brick(spec, proc().at_corner(tech::Corner::kFast)));
  const auto ss = estimate_brick(
      compile_brick(spec, proc().at_corner(tech::Corner::kSlow)));
  EXPECT_LT(ff.read_delay, tt.read_delay);
  EXPECT_GT(ss.read_delay, tt.read_delay);
}

// -------------------------------------------------------------- CAM brick

TEST(Cam, MatchCharacterized) {
  const Brick cam = compile_brick({BitcellKind::kCamNor10T, 16, 10, 1}, proc());
  const BrickEstimate e = estimate_brick(cam);
  EXPECT_GT(e.match_delay, 0.0);
  EXPECT_GT(e.match_energy, e.read_energy);  // matching costs more than read
}

TEST(Cam, SramHasNoMatchPath) {
  const Brick sram = compile_brick({BitcellKind::kSram8T, 16, 10, 1}, proc());
  const BrickEstimate e = estimate_brick(sram);
  EXPECT_EQ(e.match_delay, 0.0);
  EXPECT_EQ(e.match_energy, 0.0);
}

TEST(Cam, Section5AreaAndSpeedRatios) {
  // Paper §5: same 16x10 array -> CAM brick ~83% bigger, ~26% slower read.
  const Brick sram = compile_brick({BitcellKind::kSram8T, 16, 10, 1}, proc());
  const Brick cam = compile_brick({BitcellKind::kCamNor10T, 16, 10, 1}, proc());
  const double area_ratio = cam.layout.area / sram.layout.area;
  EXPECT_GT(area_ratio, 1.55);
  EXPECT_LT(area_ratio, 2.1);
  const double delay_ratio = estimate_brick(cam).read_delay /
                             estimate_brick(sram).read_delay;
  EXPECT_GT(delay_ratio, 1.0);
  EXPECT_LT(delay_ratio, 1.6);
}

// ----------------------------------------------------- golden vs estimator

class GoldenVsTool : public ::testing::TestWithParam<StackCase> {};

TEST_P(GoldenVsTool, WithinTableOneErrorBand) {
  const auto c = GetParam();
  const Brick b = compile_brick(
      {BitcellKind::kSram8T, c.words, c.bits, c.stack}, proc());
  const BrickEstimate est = estimate_brick(b);
  const GoldenMeasurement rd = golden_read(b);
  // Paper Table 1 bands: delay within 2-7%, read energy within 0-4%. Allow
  // slightly wider here (the golden simulator is not their SPICE deck).
  EXPECT_NEAR(est.read_delay / rd.delay, 1.0, 0.12)
      << "delay " << est.read_delay << " vs " << rd.delay;
  EXPECT_NEAR(est.read_energy / rd.energy, 1.0, 0.12)
      << "energy " << est.read_energy << " vs " << rd.energy;
}

INSTANTIATE_TEST_SUITE_P(Table1, GoldenVsTool,
                         ::testing::Values(StackCase{16, 10, 1},
                                           StackCase{16, 10, 8},
                                           StackCase{32, 12, 4}));

// Family-coverage property sweep (paper: "the dynamically generated brick
// library covers all memory brick sizes, types, and aspect ratios"): the
// estimator must track the golden simulation within a loose band across
// bitcell kinds and odd shapes, not just the Table 1 pair.
struct FamilyCase {
  tech::BitcellKind kind;
  int words, bits, stack;
};

class FamilyCoverage : public ::testing::TestWithParam<FamilyCase> {};

TEST_P(FamilyCoverage, EstimatorTracksGolden) {
  const auto c = GetParam();
  const Brick b = compile_brick({c.kind, c.words, c.bits, c.stack}, proc());
  const BrickEstimate est = estimate_brick(b);
  const GoldenMeasurement rd = golden_read(b);
  EXPECT_NEAR(est.read_delay / rd.delay, 1.0, 0.20)
      << b.spec.name() << " delay " << est.read_delay << " vs " << rd.delay;
  EXPECT_NEAR(est.read_energy / rd.energy, 1.0, 0.20)
      << b.spec.name() << " energy " << est.read_energy << " vs " << rd.energy;
}

// A static array, so the three padding bytes after `kind` are zero: gtest
// names each case after the raw bytes of its FamilyCase, and stack
// temporaries would put whatever the stack held into the test names.
const FamilyCase kFamilyCases[] = {
    {BitcellKind::kSram6T, 16, 10, 1},
    {BitcellKind::kSram6T, 32, 8, 4},
    {BitcellKind::kSram8T, 24, 7, 3},   // non-multiple-of-8
    {BitcellKind::kSram8T, 64, 32, 2},  // wide
    {BitcellKind::kSram8T, 128, 4, 1},  // tall and narrow
    {BitcellKind::kCamNor10T, 16, 10, 1},
    {BitcellKind::kCamNor10T, 32, 12, 2},
    {BitcellKind::kEdram1T1C, 32, 16, 2},
};

INSTANTIATE_TEST_SUITE_P(Family, FamilyCoverage,
                         ::testing::ValuesIn(kFamilyCases));

TEST(Golden, StackingSlowsAndCostsEnergy) {
  const Brick s1 = compile_brick({BitcellKind::kSram8T, 16, 10, 1}, proc());
  const Brick s8 = compile_brick({BitcellKind::kSram8T, 16, 10, 8}, proc());
  const GoldenMeasurement m1 = golden_read(s1);
  const GoldenMeasurement m8 = golden_read(s8);
  EXPECT_GT(m8.delay, m1.delay);
  EXPECT_GT(m8.energy, m1.energy);
}

TEST(Golden, WriteFlipsCell) {
  const Brick b = compile_brick({BitcellKind::kSram8T, 32, 12, 1}, proc());
  const GoldenMeasurement wr = golden_write(b);
  EXPECT_GT(wr.delay, 0.0);
  EXPECT_GT(wr.energy, 0.0);
}

TEST(Golden, CamMatchFires) {
  const Brick cam = compile_brick({BitcellKind::kCamNor10T, 16, 10, 1}, proc());
  const GoldenMeasurement m = golden_match(cam);
  EXPECT_GT(m.delay, 0.0);
  const BrickEstimate est = estimate_brick(cam);
  EXPECT_NEAR(est.match_energy / m.energy, 1.0, 0.30);
  EXPECT_THROW(
      golden_match(compile_brick({BitcellKind::kSram8T, 16, 10, 1}, proc())),
      Error);
}

// Exact golden outputs, pinned as hexfloats so any change to the transient
// solver's arithmetic (stamp order, elimination order, zero skipping) shows
// up bit for bit: the Table 1 bricks, the Section 5 CAM brick, and the two
// gate-level circuits of test_circuit's InverterChainPropagates and
// WireSlowsFarEnd.
TEST(Golden, MeasurementsPinnedBitForBit) {
  struct Pinned {
    int words, bits, stack;
    double read_delay, read_energy, write_delay, write_energy;
  };
  const Pinned table1[] = {
      {16, 10, 1, 0x1.14506a455926p-32, 0x1.6d69118ca3118p-41,
       0x1.5ebcc56fcb8d3p-33, 0x1.eaf2e6f9a0318p-42},
      {16, 10, 4, 0x1.2de4c18e55418p-32, 0x1.db2cde9cd3d7bp-41,
       0x1.6d36385b260cbp-33, 0x1.30f1d31899c2cp-41},
      {16, 10, 8, 0x1.4b740a93dcebep-32, 0x1.365a4cb1aee38p-40,
       0x1.8285123076c4bp-33, 0x1.7ae1dbb41d902p-41},
      {32, 12, 1, 0x1.41c7825391fb6p-32, 0x1.cfc45ce7ba657p-41,
       0x1.6ecead362fa45p-33, 0x1.301c2da0fc502p-41},
      {32, 12, 4, 0x1.696dd790f503ap-32, 0x1.342fa1017096cp-40,
       0x1.83789776aa857p-33, 0x1.71365e83b41a3p-41},
      {32, 12, 8, 0x1.96270c317241cp-32, 0x1.9a70470cff8a6p-40,
       0x1.a43918eb67c8dp-33, 0x1.c2d36891b4fc5p-41},
  };
  for (const Pinned& p : table1) {
    SCOPED_TRACE(std::to_string(p.words) + "x" + std::to_string(p.bits) +
                 " stack " + std::to_string(p.stack));
    const Brick b = compile_brick(
        {BitcellKind::kSram8T, p.words, p.bits, p.stack}, proc());
    const GoldenMeasurement rd = golden_read(b);
    const GoldenMeasurement wr = golden_write(b);
    EXPECT_EQ(rd.delay, p.read_delay);
    EXPECT_EQ(rd.energy, p.read_energy);
    EXPECT_EQ(wr.delay, p.write_delay);
    EXPECT_EQ(wr.energy, p.write_energy);
  }

  const GoldenMeasurement match = golden_match(
      compile_brick({BitcellKind::kCamNor10T, 16, 10, 1}, proc()));
  EXPECT_EQ(match.delay, 0x1.d988faed95319p-33);
  EXPECT_EQ(match.energy, 0x1.049eea6558a54p-39);

  using circuit::Circuit;
  using circuit::NodeId;
  {
    Circuit ckt(proc());
    const NodeId in = ckt.add_node("in");
    const NodeId a = ckt.add_node("a");
    const NodeId b = ckt.add_node("b");
    const NodeId c = ckt.add_node("c");
    ckt.add_inverter(in, a, 1.0);
    ckt.add_inverter(a, b, 2.0);
    ckt.add_inverter(b, c, 4.0);
    ckt.add_cap(c, 10 * fF);
    ckt.add_ramp_input(in, 30 * ps, 15 * ps, true);
    circuit::TransientConfig cfg;
    cfg.t_stop = 1e-9;
    cfg.waveform_stride = 1;
    const auto res = circuit::simulate(ckt, cfg);
    EXPECT_EQ(res.energy(), 0x1.acbf5318261bp-47);
    EXPECT_EQ(res.final_voltage(a), 0x1.21e0190b6bc39p-82);
    EXPECT_EQ(res.final_voltage(b), 0x1.333333283f6c5p+0);
    EXPECT_EQ(res.final_voltage(c), 0x1.f63b6d8ea9b46p-92);
  }
  {
    Circuit ckt(proc());
    const NodeId in = ckt.add_node("in");
    const NodeId drv = ckt.add_node("drv");
    ckt.add_inverter(in, drv, 4.0);
    const NodeId far = ckt.add_wire(drv, 500e-6, 8, 0.0, "bus");
    ckt.add_ramp_input(in, 30 * ps, 15 * ps, false);
    circuit::TransientConfig cfg;
    cfg.t_stop = 2e-9;
    cfg.waveform_stride = 1;
    const auto res = circuit::simulate(ckt, cfg);
    EXPECT_EQ(res.energy(), 0x1.50d0c64bd5745p-43);
    EXPECT_EQ(res.final_voltage(drv), 0x1.3333290fbbe25p+0);
    EXPECT_EQ(res.final_voltage(far), 0x1.333325299adcp+0);
  }
}

// ----------------------------------------------------------------- eDRAM

TEST(Edram, RetentionAndRefreshCharacterized) {
  const Brick ed = compile_brick({BitcellKind::kEdram1T1C, 32, 16, 2}, proc());
  const BrickEstimate e = estimate_brick(ed);
  // Gain-cell retention: microseconds to milliseconds at 65nm.
  EXPECT_GT(e.retention_time, 1e-6);
  EXPECT_LT(e.retention_time, 1e-2);
  EXPECT_GT(e.refresh_power, 0.0);
  // Refreshing 64 rows costs less than continuously reading at 100 MHz.
  EXPECT_LT(e.refresh_power, e.read_energy * 100e6);
  // Static cells have no retention limit.
  const BrickEstimate s = estimate_brick(
      compile_brick({BitcellKind::kSram8T, 32, 16, 2}, proc()));
  EXPECT_EQ(s.retention_time, 0.0);
  EXPECT_EQ(s.refresh_power, 0.0);
}

TEST(Edram, DenserButSlowerThanSram) {
  const BrickEstimate ed = estimate_brick(
      compile_brick({BitcellKind::kEdram1T1C, 32, 16, 1}, proc()));
  const BrickEstimate sr = estimate_brick(
      compile_brick({BitcellKind::kSram8T, 32, 16, 1}, proc()));
  EXPECT_LT(ed.bank_area, sr.bank_area);
  EXPECT_GT(ed.read_delay, sr.read_delay);  // weak gain-cell read stack
}

// ------------------------------------------------------------ library gen

TEST(LibraryGen, MacroCellShape) {
  const Brick b = compile_brick({BitcellKind::kSram8T, 16, 10, 2}, proc());
  const liberty::LibCell cell = make_brick_libcell(b);
  EXPECT_TRUE(cell.is_macro);
  EXPECT_TRUE(cell.sequential);
  EXPECT_EQ(cell.clock_pin, "CK");
  EXPECT_NE(cell.find_input("RWL"), nullptr);
  EXPECT_NE(cell.find_input("WWL"), nullptr);
  EXPECT_NE(cell.find_output("DO"), nullptr);
  ASSERT_NE(cell.find_arc("CK", "DO"), nullptr);
  EXPECT_GT(cell.clock_energy, 0.0);
  EXPECT_GT(cell.area, 0.0);
  const auto* con = cell.find_constraint("RWL");
  ASSERT_NE(con, nullptr);
  EXPECT_GT(con->setup, 0.0);
}

TEST(LibraryGen, DelayLutTracksEstimatorAcrossLoads) {
  const Brick b = compile_brick({BitcellKind::kSram8T, 16, 10, 1}, proc());
  const liberty::LibCell cell = make_brick_libcell(b);
  const auto* arc = cell.find_arc("CK", "DO");
  ASSERT_NE(arc, nullptr);
  for (double load : {2 * fF, 15 * fF, 60 * fF}) {
    const double lut = arc->delay.lookup(20 * ps, load);
    const double est = estimate_brick(b, load).read_delay + 0.2 * 20 * ps;
    EXPECT_NEAR(lut / est, 1.0, 0.05) << "load " << load;
  }
}

TEST(LibraryGen, CamGetsMatchArc) {
  const Brick cam = compile_brick({BitcellKind::kCamNor10T, 16, 10, 1}, proc());
  const liberty::LibCell cell = make_brick_libcell(cam);
  EXPECT_NE(cell.find_arc("CK", "MATCH"), nullptr);
  EXPECT_NE(cell.find_input("SDATA"), nullptr);
}

TEST(BrickCache, MemoizesByShapeAndProcess) {
  BrickCache cache;
  const BrickSpec spec{BitcellKind::kSram8T, 16, 8, 2};
  const auto a = cache.get(spec, proc());
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
  const auto b = cache.get(spec, proc());
  EXPECT_EQ(a.get(), b.get());  // one shared immutable entry
  EXPECT_EQ(cache.hits(), 1u);

  // Cached results are the uncached results.
  const Brick direct = compile_brick(spec, proc());
  const BrickEstimate est = estimate_brick(direct);
  EXPECT_DOUBLE_EQ(a->estimate.read_delay, est.read_delay);
  EXPECT_DOUBLE_EQ(a->estimate.read_energy, est.read_energy);
  EXPECT_DOUBLE_EQ(a->estimate.bank_area, est.bank_area);
  EXPECT_EQ(a->libcell.name, make_brick_libcell(direct).name);

  // A different corner fingerprint is a different entry.
  const auto c = cache.get(spec, proc().at_corner(tech::Corner::kFast));
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_NE(a.get(), c.get());
  EXPECT_LT(c->estimate.read_delay, a->estimate.read_delay);

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
}

TEST(BrickCache, UnbuildableSpecThrowsAndIsNotCached) {
  BrickCache cache;
  const BrickSpec bad{BitcellKind::kSram8T, 0, 8, 1};
  EXPECT_THROW(cache.get(bad, proc()), Error);
  EXPECT_EQ(cache.size(), 0u);
}

}  // namespace
}  // namespace limsynth::brick
