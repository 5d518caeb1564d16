#include <gtest/gtest.h>

#include "tech/bitcell.hpp"
#include "tech/pattern.hpp"
#include "tech/process.hpp"
#include "tech/stdcell.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace limsynth::tech {
namespace {

using limsynth::units::ps;

TEST(Process, Fo4IsPlausibleFor65nm) {
  const Process p = default_process();
  // 65nm FO4 is commonly quoted around 20-30 ps.
  EXPECT_GT(p.fo4(), 15.0 * ps);
  EXPECT_LT(p.fo4(), 35.0 * ps);
}

TEST(Process, CornersOrderDelay) {
  const Process tt = default_process();
  const Process ff = tt.at_corner(Corner::kFast);
  const Process ss = tt.at_corner(Corner::kSlow);
  EXPECT_LT(ff.tau(), tt.tau());
  EXPECT_GT(ss.tau(), tt.tau());
  EXPECT_GT(ff.vdd, tt.vdd);
  EXPECT_LT(ss.vdd, tt.vdd);
}

TEST(Process, MonteCarloSpreadIsModest) {
  const Process tt = default_process();
  Rng rng(11);
  OnlineStats taus;
  for (int i = 0; i < 500; ++i) taus.add(tt.monte_carlo_chip(rng).tau());
  EXPECT_NEAR(taus.mean(), tt.tau(), 0.02 * tt.tau());
  EXPECT_LT(taus.stddev() / taus.mean(), 0.12);
  EXPECT_GT(taus.stddev() / taus.mean(), 0.01);
}

TEST(StdCellLib, HasAllFunctionsAndDrives) {
  const StdCellLib lib(default_process());
  for (CellFunc f : {CellFunc::kInv, CellFunc::kNand2, CellFunc::kNor2,
                     CellFunc::kXor2, CellFunc::kDff, CellFunc::kMux2}) {
    const StdCell& x1 = lib.pick(f, 0.0);
    EXPECT_EQ(x1.drive, 1.0);
    const StdCell& x8 = lib.pick(f, 8.0);
    EXPECT_GE(x8.drive, 8.0);
  }
}

TEST(StdCellLib, PickClampsToLargest) {
  const StdCellLib lib(default_process());
  const StdCell& c = lib.pick(CellFunc::kInv, 1000.0);
  EXPECT_EQ(c.drive, 16.0);
}

TEST(StdCellLib, ByNameRoundTrip) {
  const StdCellLib lib(default_process());
  ASSERT_NE(lib.find("NAND2_X4"), nullptr);
  EXPECT_EQ(lib.find("NAND2_X4")->drive, 4.0);
  EXPECT_EQ(lib.find("NAND9_X1"), nullptr);
}

TEST(StdCellLib, DriveScalesElectricals) {
  const StdCellLib lib(default_process());
  const StdCell& x1 = *lib.find("INV_X1");
  const StdCell& x4 = *lib.find("INV_X4");
  EXPECT_NEAR(x4.input_cap / x1.input_cap, 4.0, 1e-9);
  EXPECT_NEAR(x1.drive_res / x4.drive_res, 4.0, 1e-9);
  EXPECT_GT(x4.area(), x1.area());
}

TEST(StdCellLib, InverterDelayMatchesLogicalEffort) {
  const Process p = default_process();
  const StdCellLib lib(p);
  const StdCell& inv = *lib.find("INV_X1");
  // FO4: load = 4x own input cap. Delay should be ~5 tau (g*h + p with
  // diffusion-scaled parasitic ~0.65).
  const double d = inv.delay(4.0 * inv.input_cap);
  EXPECT_GT(d, 2.5 * p.tau());
  EXPECT_LT(d, 6.0 * p.tau());
}

TEST(StdCellLib, SequentialCellsHaveClockTiming) {
  const StdCellLib lib(default_process());
  const StdCell& dff = lib.pick(CellFunc::kDff, 0.0);
  EXPECT_TRUE(dff.is_sequential());
  EXPECT_GT(dff.setup, 0.0);
  EXPECT_GT(dff.clk_to_q, 0.0);
  EXPECT_GT(dff.clock_cap, 0.0);
  EXPECT_FALSE(lib.pick(CellFunc::kNand2, 0.0).is_sequential());
}

TEST(Bitcell, AllKindsShareRowPitch) {
  const Process p = default_process();
  const Bitcell b6 = make_bitcell(BitcellKind::kSram6T, p);
  const Bitcell b8 = make_bitcell(BitcellKind::kSram8T, p);
  const Bitcell cam = make_bitcell(BitcellKind::kCamNor10T, p);
  const Bitcell ed = make_bitcell(BitcellKind::kEdram1T1C, p);
  EXPECT_DOUBLE_EQ(b6.height, b8.height);
  EXPECT_DOUBLE_EQ(cam.height, b8.height);
  EXPECT_DOUBLE_EQ(ed.height, b8.height);
}

TEST(Bitcell, CamIsRoughly83PercentBiggerThan8T) {
  // Paper §5: "the CAM brick area is 83% bigger than SRAM brick area".
  const Process p = default_process();
  const Bitcell b8 = make_bitcell(BitcellKind::kSram8T, p);
  const Bitcell cam = make_bitcell(BitcellKind::kCamNor10T, p);
  const double ratio = cam.area() / b8.area();
  EXPECT_GT(ratio, 1.7);
  EXPECT_LT(ratio, 2.0);
}

TEST(Bitcell, DensityOrdering) {
  const Process p = default_process();
  const double a6 = make_bitcell(BitcellKind::kSram6T, p).area();
  const double a8 = make_bitcell(BitcellKind::kSram8T, p).area();
  const double ae = make_bitcell(BitcellKind::kEdram1T1C, p).area();
  EXPECT_LT(ae, a6);
  EXPECT_LT(a6, a8);
}

TEST(Bitcell, ReadPortFlagMatchesTopology) {
  const Process p = default_process();
  EXPECT_FALSE(make_bitcell(BitcellKind::kSram6T, p).has_read_port);
  EXPECT_TRUE(make_bitcell(BitcellKind::kSram8T, p).has_read_port);
  EXPECT_TRUE(make_bitcell(BitcellKind::kCamNor10T, p).has_read_port);
}

TEST(Pattern, LegacyLogicNextToBitcellIsHotspot) {
  // Fig. 1b of the paper: conventional standard cells hurt printability
  // next to bitcell arrays; pattern-compliant cells do not (Fig. 1c).
  EXPECT_FALSE(
      patterns_compatible(PatternClass::kLogicLegacy, PatternClass::kBitcell));
  EXPECT_FALSE(
      patterns_compatible(PatternClass::kBitcell, PatternClass::kLogicLegacy));
  EXPECT_TRUE(
      patterns_compatible(PatternClass::kLogicRegular, PatternClass::kBitcell));
  EXPECT_TRUE(
      patterns_compatible(PatternClass::kPeriphery, PatternClass::kBitcell));
  EXPECT_TRUE(
      patterns_compatible(PatternClass::kFill, PatternClass::kLogicLegacy));
}

TEST(Pattern, CompatibilityIsSymmetric) {
  const PatternClass all[] = {PatternClass::kBitcell, PatternClass::kLogicRegular,
                              PatternClass::kLogicLegacy, PatternClass::kPeriphery,
                              PatternClass::kFill};
  for (auto a : all)
    for (auto b : all)
      EXPECT_EQ(patterns_compatible(a, b), patterns_compatible(b, a));
}

}  // namespace
}  // namespace limsynth::tech
