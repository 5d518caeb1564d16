// Tests for the fault subsystem: defect sampling (determinism, scaling,
// clustering), SECDED encode/decode, the fault-map read overlay, and
// spare-row repair allocation.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "fault/defects.hpp"
#include "fault/inject.hpp"
#include "fault/repair.hpp"
#include "fault/soft.hpp"
#include "util/rng.hpp"

namespace limsynth::fault {
namespace {

ArrayGeometry test_geometry(int banks = 4, int rows = 32, int spares = 0,
                            int cols = 10) {
  ArrayGeometry g;
  g.banks = banks;
  g.rows = rows;
  g.spare_rows = spares;
  g.cols = cols;
  g.brick_words = 16;
  g.bank_area = 4000e-12;  // ~4000 um^2, a config-E-sized bank
  return g;
}

// --------------------------------------------------------- defect model

TEST(Defects, DeterministicGivenSeed) {
  const ArrayGeometry g = test_geometry();
  const double d0 = 5e8;  // high density so samples are non-trivial
  Rng a(42), b(42), c(43);
  const auto da = sample_defects(g, d0, 2.0, a);
  const auto db = sample_defects(g, d0, 2.0, b);
  EXPECT_EQ(da, db);
  // A different seed produces a different population (overwhelmingly).
  bool any_diff = false;
  for (int i = 0; i < 8 && !any_diff; ++i)
    any_diff = sample_defects(g, d0, 2.0, c) != da;
  EXPECT_TRUE(any_diff);
}

TEST(Defects, CountScalesWithDensityAndArea) {
  const ArrayGeometry small = test_geometry(1);
  const ArrayGeometry big = test_geometry(8);
  Rng rng(7);
  double n_low = 0, n_high = 0, n_big = 0;
  for (int i = 0; i < 300; ++i) {
    n_low += static_cast<double>(sample_defects(small, 1e8, 2.0, rng).size());
    n_high += static_cast<double>(sample_defects(small, 1e9, 2.0, rng).size());
    n_big += static_cast<double>(sample_defects(big, 1e8, 2.0, rng).size());
  }
  EXPECT_LT(n_low, n_high);
  EXPECT_LT(n_low, n_big);
  // Means track lambda = D0 * A (x10 density, x8 area) loosely.
  EXPECT_NEAR(n_high / n_low, 10.0, 4.0);
  EXPECT_NEAR(n_big / n_low, 8.0, 3.5);
}

TEST(Defects, ZeroDensityIsClean) {
  Rng rng(1);
  EXPECT_TRUE(sample_defects(test_geometry(), 0.0, 2.0, rng).empty());
}

TEST(Defects, CoordinatesInRange) {
  const ArrayGeometry g = test_geometry(2, 32, 4, 12);
  Rng rng(11);
  const auto defects = sample_defects(g, 2e9, 1.0, rng);
  ASSERT_FALSE(defects.empty());
  std::set<DefectKind> kinds;
  for (const Defect& d : defects) {
    kinds.insert(d.kind);
    EXPECT_GE(d.bank, 0);
    EXPECT_LT(d.bank, g.banks);
    EXPECT_GE(d.row, 0);
    EXPECT_LT(d.row, g.rows);
    EXPECT_GE(d.col, 0);
    EXPECT_LT(d.col, g.cols);
    EXPECT_GE(d.brick, 0);
    EXPECT_LT(d.brick, g.bricks_per_bank());
    // Non-CAM geometry never yields match-line faults.
    EXPECT_NE(d.kind, DefectKind::kMatchlineStuck0);
    EXPECT_NE(d.kind, DefectKind::kMatchlineStuck1);
  }
  EXPECT_GE(kinds.size(), 3u);  // a dense sample hits several classes
}

TEST(Defects, CamGeometryYieldsMatchlineFaults) {
  ArrayGeometry g = test_geometry(1, 32, 0, 10);
  g.cam = true;
  Rng rng(3);
  bool saw_matchline = false;
  for (int i = 0; i < 50 && !saw_matchline; ++i)
    for (const Defect& d : sample_defects(g, 1e9, 2.0, rng))
      saw_matchline |= d.kind == DefectKind::kMatchlineStuck0 ||
                       d.kind == DefectKind::kMatchlineStuck1;
  EXPECT_TRUE(saw_matchline);
}

TEST(Defects, PoissonAndGammaMoments) {
  Rng rng(5);
  double sum = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) sum += poisson_sample(3.0, rng);
  EXPECT_NEAR(sum / n, 3.0, 0.15);
  double gsum = 0;
  for (int i = 0; i < n; ++i) gsum += gamma_sample(2.0, rng);
  EXPECT_NEAR(gsum / n, 2.0, 0.15);  // mean = shape at scale 1
}

// -------------------------------------------------------------- SECDED

TEST(Secded, WidthsMatchHammingBound) {
  EXPECT_EQ(secded_parity_bits(4), 3);
  EXPECT_EQ(secded_parity_bits(10), 4);
  EXPECT_EQ(secded_parity_bits(11), 4);
  EXPECT_EQ(secded_parity_bits(26), 5);
  EXPECT_EQ(secded_total_bits(10), 15);  // 10 data + 4 checks + parity
  EXPECT_EQ(secded_total_bits(32), 39);
}

TEST(Secded, RoundTripClean) {
  Rng rng(9);
  for (int bits : {4, 10, 16, 32}) {
    for (int t = 0; t < 50; ++t) {
      const std::uint64_t data = rng.next_u64() & ((1ull << bits) - 1);
      const SecdedDecode d = secded_decode(secded_encode(data, bits), bits);
      EXPECT_EQ(d.data, data);
      EXPECT_FALSE(d.corrected);
      EXPECT_FALSE(d.uncorrectable);
    }
  }
}

TEST(Secded, CorrectsEverySingleBitError) {
  Rng rng(10);
  for (int bits : {10, 16}) {
    const int total = secded_total_bits(bits);
    const std::uint64_t data = rng.next_u64() & ((1ull << bits) - 1);
    const std::uint64_t code = secded_encode(data, bits);
    for (int e = 0; e < total; ++e) {
      const SecdedDecode d =
          secded_decode(code ^ (std::uint64_t{1} << e), bits);
      EXPECT_EQ(d.data, data) << "flip bit " << e;
      EXPECT_TRUE(d.corrected) << "flip bit " << e;
      EXPECT_FALSE(d.uncorrectable) << "flip bit " << e;
    }
  }
}

TEST(Secded, DetectsDoubleBitErrors) {
  const int bits = 10;
  const int total = secded_total_bits(bits);
  const std::uint64_t code = secded_encode(0x2AB, bits);
  int detected = 0, pairs = 0;
  for (int i = 0; i < total; ++i) {
    for (int j = i + 1; j < total; ++j) {
      const SecdedDecode d = secded_decode(
          code ^ (std::uint64_t{1} << i) ^ (std::uint64_t{1} << j), bits);
      ++pairs;
      if (d.uncorrectable) ++detected;
    }
  }
  EXPECT_EQ(detected, pairs);  // SECDED flags every double error
}

// ----------------------------------------------------------- fault map

TEST(FaultMap, ReadCorruption) {
  const ArrayGeometry g = test_geometry(2, 32, 0, 8);
  std::vector<Defect> defects = {
      {DefectKind::kCellStuck1, 0, 3, 5, 0},
      {DefectKind::kCellStuck0, 0, 3, 1, 0},
      {DefectKind::kWordlineDead, 1, 7, 0, 0},
      {DefectKind::kBitlineDead, 1, 0, 2, 0},
      {DefectKind::kBrickDead, 0, 0, 0, 1},  // rows 16..31 of bank 0
  };
  const FaultMap map(g, defects);
  // Stuck cells force their bits; untouched bits pass through.
  EXPECT_EQ(map.corrupt_read(0, 3, 0x00), 0x20u);
  EXPECT_EQ(map.corrupt_read(0, 3, 0xFF), 0xFDu);
  EXPECT_EQ(map.corrupt_read(0, 4, 0xAB), 0xABu);
  // Dead wordline row reads as zero regardless of contents.
  EXPECT_EQ(map.corrupt_read(1, 7, 0xFF), 0x00u);
  // Dead bitline clears its column in every row of the bank.
  EXPECT_EQ(map.corrupt_read(1, 9, 0xFF), 0xFBu);
  // Dead brick kills its whole row range.
  EXPECT_TRUE(map.row_dead(0, 16));
  EXPECT_TRUE(map.row_dead(0, 31));
  EXPECT_FALSE(map.row_dead(0, 15));
  EXPECT_EQ(map.corrupt_read(0, 20, 0x5A), 0x00u);
  EXPECT_FALSE(map.logical_array_clean());
  EXPECT_TRUE(FaultMap(g, {}).logical_array_clean());
}

TEST(FaultMap, SpareRegionDefectsDontBreakTheLogicalArray) {
  const ArrayGeometry g = test_geometry(1, 32, 8, 8);  // logical 24, spares 8
  const FaultMap map(g, {{DefectKind::kCellStuck1, 0, 30, 2, 0}});
  EXPECT_TRUE(map.logical_array_clean());
  const FaultMap map2(g, {{DefectKind::kCellStuck1, 0, 10, 2, 0}});
  EXPECT_FALSE(map2.logical_array_clean());
}

// --------------------------------------------------------------- repair

TEST(Repair, DeadRowTakesOneSpare) {
  const ArrayGeometry g = test_geometry(1, 36, 4, 8);  // 32 logical + 4 spare
  FaultMap map(g, {{DefectKind::kWordlineDead, 0, 5, 0, 0}});
  const RepairResult rr = allocate_repairs(map, /*ecc=*/false);
  EXPECT_TRUE(rr.repairable);
  EXPECT_EQ(rr.spares_used, 1);
  EXPECT_EQ(rr.uncorrectable, 0);
  ASSERT_EQ(rr.repairs.size(), 1u);
  EXPECT_EQ(rr.repairs[0].row, 5);
  EXPECT_GE(rr.repairs[0].spare, 32);
  // After applying the remap, the read path is clean again.
  map.apply_repair(rr);
  EXPECT_EQ(map.corrupt_read(0, 5, 0x7F), 0x7Fu);
}

TEST(Repair, RunsOutOfSpares) {
  const ArrayGeometry g = test_geometry(1, 34, 2, 8);
  const FaultMap map(g, {{DefectKind::kWordlineDead, 0, 1, 0, 0},
                         {DefectKind::kWordlineDead, 0, 2, 0, 0},
                         {DefectKind::kWordlineDead, 0, 3, 0, 0}});
  const RepairResult rr = allocate_repairs(map, false);
  EXPECT_FALSE(rr.repairable);
  EXPECT_EQ(rr.spares_used, 2);
  EXPECT_EQ(rr.uncorrectable, 1);
}

TEST(Repair, DefectiveSpareIsSkipped) {
  const ArrayGeometry g = test_geometry(1, 34, 2, 8);  // spares: rows 32, 33
  const FaultMap map(g, {{DefectKind::kWordlineDead, 0, 1, 0, 0},
                         {DefectKind::kCellStuck0, 0, 32, 3, 0}});
  const RepairResult rr = allocate_repairs(map, false);
  EXPECT_TRUE(rr.repairable);
  ASSERT_EQ(rr.repairs.size(), 1u);
  EXPECT_EQ(rr.repairs[0].spare, 33);  // the clean one
}

TEST(Repair, EccAbsorbsSingleCellsButNotMultiBitRows) {
  const ArrayGeometry g = test_geometry(1, 34, 2, 15);
  const FaultMap map(g, {{DefectKind::kCellStuck1, 0, 4, 2, 0},   // 1 bit
                         {DefectKind::kCellStuck1, 0, 9, 0, 0},   // 2 bits
                         {DefectKind::kCellStuck0, 0, 9, 7, 0}});
  const RepairResult with_ecc = allocate_repairs(map, true);
  EXPECT_TRUE(with_ecc.repairable);
  EXPECT_EQ(with_ecc.spares_used, 1);  // only the 2-bit row needs a spare
  const RepairResult without = allocate_repairs(map, false);
  EXPECT_TRUE(without.repairable);
  EXPECT_EQ(without.spares_used, 2);  // every defective row needs one
}

TEST(Repair, DeadColumnNeedsEcc) {
  const ArrayGeometry g = test_geometry(1, 36, 4, 15);
  const FaultMap map(g, {{DefectKind::kBitlineDead, 0, 0, 6, 0}});
  // One bad bit per word everywhere: ECC shrugs it off with zero spares.
  const RepairResult with_ecc = allocate_repairs(map, true);
  EXPECT_TRUE(with_ecc.repairable);
  EXPECT_EQ(with_ecc.spares_used, 0);
  // Without ECC every row is defective — spares can't cover the bank.
  const RepairResult without = allocate_repairs(map, false);
  EXPECT_FALSE(without.repairable);
}

TEST(Repair, MatchlineFaultsNeedSpares) {
  ArrayGeometry g = test_geometry(1, 34, 2, 10);
  g.cam = true;
  FaultMap map(g, {{DefectKind::kMatchlineStuck1, 0, 3, 0, 0}});
  EXPECT_EQ(map.match_override(0, 3), 1);
  EXPECT_EQ(map.match_override(0, 4), -1);
  const RepairResult rr = allocate_repairs(map, false);
  EXPECT_TRUE(rr.repairable);
  EXPECT_EQ(rr.spares_used, 1);
  map.apply_repair(rr);
  EXPECT_EQ(map.match_override_logical(0, 3), -1);  // steered to clean spare
}

TEST(Repair, ZeroSparesMakesAnyDeadRowFatal) {
  const ArrayGeometry g = test_geometry(1, 32, 0, 8);
  const FaultMap map(g, {{DefectKind::kWordlineDead, 0, 7, 0, 0}});
  const RepairResult rr = allocate_repairs(map, /*ecc=*/false);
  EXPECT_FALSE(rr.repairable);
  EXPECT_EQ(rr.spares_used, 0);
  EXPECT_EQ(rr.uncorrectable, 1);
  EXPECT_TRUE(rr.repairs.empty());
  // A clean zero-spare bank is still trivially repairable.
  const FaultMap clean(g, {});
  EXPECT_TRUE(allocate_repairs(clean, false).repairable);
}

TEST(Repair, AllRowsDefectiveOverwhelmsTheSpares) {
  const ArrayGeometry g = test_geometry(1, 36, 4, 8);  // 32 logical + 4
  std::vector<Defect> defects;
  for (int r = 0; r < 32; ++r)
    defects.push_back({DefectKind::kWordlineDead, 0, r, 0, 0});
  const FaultMap map(g, defects);
  const RepairResult rr = allocate_repairs(map, false);
  EXPECT_FALSE(rr.repairable);
  EXPECT_EQ(rr.spares_used, 4);  // every spare committed before giving up
  EXPECT_EQ(rr.uncorrectable, 28);
}

TEST(Repair, EccAbsorbsFirstThenSparesTakeTheResidual) {
  // Mixed damage: a single-bit row (ECC territory), a two-bit row and a
  // dead wordline (spare territory). With ECC the spares cover exactly
  // the residual; without it the third row has no spare left.
  const ArrayGeometry g = test_geometry(1, 34, 2, 15);
  const FaultMap map(g, {{DefectKind::kCellStuck1, 0, 4, 2, 0},
                         {DefectKind::kCellStuck1, 0, 9, 0, 0},
                         {DefectKind::kCellStuck0, 0, 9, 7, 0},
                         {DefectKind::kWordlineDead, 0, 12, 0, 0}});
  const RepairResult with_ecc = allocate_repairs(map, true);
  EXPECT_TRUE(with_ecc.repairable);
  EXPECT_EQ(with_ecc.spares_used, 2);
  const RepairResult without = allocate_repairs(map, false);
  EXPECT_FALSE(without.repairable);
  EXPECT_EQ(without.spares_used, 2);
  EXPECT_EQ(without.uncorrectable, 1);
}

// ------------------------------------------------------ soft-error FIT

TEST(SoftError, BudgetScalesLinearlyWithSiteCounts) {
  const tech::Process p = tech::default_process();
  const SoftErrorBudget one = soft_error_budget(p, 1e6, 100.0, 1000.0);
  const SoftErrorBudget two = soft_error_budget(p, 2e6, 200.0, 2000.0);
  EXPECT_GT(one.fit_mem, 0.0);
  EXPECT_GT(one.fit_flop, 0.0);
  EXPECT_GT(one.fit_set, 0.0);
  EXPECT_NEAR(two.fit_mem, 2.0 * one.fit_mem, 1e-12);
  EXPECT_NEAR(two.fit_flop, 2.0 * one.fit_flop, 1e-12);
  EXPECT_NEAR(two.fit_set, 2.0 * one.fit_set, 1e-12);
}

TEST(SoftError, DeratingAndMtbfArithmetic) {
  // 1 FIT = one failure per 1e9 device-hours.
  EXPECT_NEAR(fit_to_mtbf_hours(1.0), 1e9, 1e-3);
  EXPECT_TRUE(std::isinf(fit_to_mtbf_hours(0.0)));
}

}  // namespace
}  // namespace limsynth::fault
