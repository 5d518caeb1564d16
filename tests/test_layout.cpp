#include <gtest/gtest.h>

#include "layout/brick_layout.hpp"
#include "layout/checker.hpp"
#include "layout/geometry.hpp"
#include "layout/leafcell.hpp"
#include "layout/svg.hpp"
#include "tech/process.hpp"

namespace limsynth::layout {
namespace {

using tech::BitcellKind;
using tech::PatternClass;

TEST(Rect, BasicsAndOverlap) {
  Rect a{0, 0, 2, 1};
  EXPECT_DOUBLE_EQ(a.width(), 2.0);
  EXPECT_DOUBLE_EQ(a.area(), 2.0);
  EXPECT_TRUE(a.valid());
  Rect b{1, 0, 3, 1};
  EXPECT_TRUE(a.overlaps(b));
  Rect c{2, 0, 3, 1};
  EXPECT_FALSE(a.overlaps(c));
  EXPECT_TRUE(a.abuts(c));
  Rect d{5, 5, 6, 6};
  EXPECT_FALSE(a.abuts(d));
}

TEST(Rect, AbutRequiresSharedSpan) {
  Rect a{0, 0, 1, 1};
  Rect corner{1, 1, 2, 2};  // touch only at a corner point
  EXPECT_FALSE(a.abuts(corner));
  Rect edge{1, 0.5, 2, 1.5};
  EXPECT_TRUE(a.abuts(edge));
}

TEST(Rect, UnitedCoversBoth) {
  Rect a{0, 0, 1, 1}, b{2, 2, 3, 4};
  Rect u = a.united(b);
  EXPECT_DOUBLE_EQ(u.x0, 0);
  EXPECT_DOUBLE_EQ(u.y1, 4);
}

TEST(LeafCell, PitchMatchesBitcell) {
  const auto p = tech::default_process();
  const auto cell = tech::make_bitcell(BitcellKind::kSram8T, p);
  const LeafCell wl = make_leaf(LeafKind::kWordlineDriver, cell, 4.0);
  EXPECT_DOUBLE_EQ(wl.height, cell.height);  // one per row
  const LeafCell sense = make_leaf(LeafKind::kLocalSense, cell, 2.0);
  EXPECT_DOUBLE_EQ(sense.width, cell.width);  // one per column
  const LeafCell ctrl = make_leaf(LeafKind::kControl, cell, 4.0);
  EXPECT_DOUBLE_EQ(ctrl.height, 2.0 * cell.height);
}

TEST(LeafCell, WidthGrowsWithDrive) {
  const auto p = tech::default_process();
  const auto cell = tech::make_bitcell(BitcellKind::kSram8T, p);
  const LeafCell small = make_leaf(LeafKind::kWordlineDriver, cell, 1.0);
  const LeafCell big = make_leaf(LeafKind::kWordlineDriver, cell, 16.0);
  EXPECT_GT(big.width, small.width);
  EXPECT_DOUBLE_EQ(big.height, small.height);
}

class BrickLayoutTest : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(BrickLayoutTest, TilesCleanly) {
  const auto [words, bits] = GetParam();
  BrickLayoutSpec spec;
  spec.bitcell = tech::make_bitcell(BitcellKind::kSram8T, tech::default_process());
  spec.words = words;
  spec.bits = bits;
  const BrickLayout l = build_brick_layout(spec);

  EXPECT_TRUE(l.outline.valid());
  EXPECT_GT(l.area, l.array_area);
  EXPECT_GT(l.efficiency(), 0.05);
  EXPECT_LT(l.efficiency(), 1.0);
  EXPECT_NEAR(l.array_area,
              static_cast<double>(words) * bits * spec.bitcell.area(), 1e-18);

  // Everything inside the outline.
  for (const auto& r : l.regions) {
    EXPECT_GE(r.rect.x0, l.outline.x0 - 1e-12) << r.name;
    EXPECT_LE(r.rect.x1, l.outline.x1 + 1e-12) << r.name;
    EXPECT_GE(r.rect.y0, l.outline.y0 - 1e-12) << r.name;
    EXPECT_LE(r.rect.y1, l.outline.y1 + 1e-12) << r.name;
  }
  // No pattern violations in a generated brick.
  const CheckResult chk = check_patterns(l.regions);
  EXPECT_TRUE(chk.clean()) << chk.violations.front().where;
  EXPECT_GT(chk.abutments_checked, 0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BrickLayoutTest,
                         ::testing::Values(std::pair{16, 10}, std::pair{32, 12},
                                           std::pair{64, 8}, std::pair{16, 32},
                                           std::pair{128, 16}, std::pair{2, 1}));

TEST(BrickLayout, EfficiencyImprovesWithArraySize) {
  // Bigger arrays amortize the fixed periphery — the Fig. 4c area trend.
  BrickLayoutSpec small, big;
  small.bitcell = big.bitcell =
      tech::make_bitcell(BitcellKind::kSram8T, tech::default_process());
  small.words = 16;
  small.bits = 8;
  big.words = 64;
  big.bits = 32;
  EXPECT_GT(build_brick_layout(big).efficiency(),
            build_brick_layout(small).efficiency());
}

TEST(Svg, RendersBrickLayout) {
  BrickLayoutSpec spec;
  spec.bitcell = tech::make_bitcell(BitcellKind::kSram8T, tech::default_process());
  spec.words = 16;
  spec.bits = 10;
  const BrickLayout l = build_brick_layout(spec);
  const std::string svg = to_svg_string(l.regions);
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  // One rect per region (plus background).
  std::size_t rects = 0, pos = 0;
  while ((pos = svg.find("<rect", pos)) != std::string::npos) {
    ++rects;
    ++pos;
  }
  EXPECT_EQ(rects, l.regions.size() + 1);
  // The bitcell array is drawn in the bitcell color.
  EXPECT_NE(svg.find(pattern_color(PatternClass::kBitcell)),
            std::string::npos);
}

TEST(Svg, DistinctColorsPerPatternClass) {
  const PatternClass all[] = {PatternClass::kBitcell, PatternClass::kLogicRegular,
                              PatternClass::kLogicLegacy, PatternClass::kPeriphery,
                              PatternClass::kFill};
  for (auto a : all)
    for (auto b : all)
      if (a != b) {
        EXPECT_STRNE(pattern_color(a), pattern_color(b));
      }
}

TEST(Checker, FlagsLegacyLogicTouchingArray) {
  std::vector<Region> regions{
      {"array", Rect{0, 0, 10, 10}, PatternClass::kBitcell},
      {"legacy", Rect{10, 0, 12, 10}, PatternClass::kLogicLegacy},
  };
  const CheckResult res = check_patterns(regions);
  ASSERT_EQ(res.violations.size(), 1u);
  EXPECT_NE(res.violations[0].where.find("legacy"), std::string::npos);
}

TEST(Checker, AcceptsRegularLogicTouchingArray) {
  std::vector<Region> regions{
      {"array", Rect{0, 0, 10, 10}, PatternClass::kBitcell},
      {"logic", Rect{10, 0, 12, 10}, PatternClass::kLogicRegular},
  };
  EXPECT_TRUE(check_patterns(regions).clean());
}

TEST(Checker, FlagsOverlapOfRealPatterns) {
  std::vector<Region> regions{
      {"a", Rect{0, 0, 10, 10}, PatternClass::kLogicRegular},
      {"b", Rect{5, 5, 15, 15}, PatternClass::kLogicRegular},
  };
  EXPECT_FALSE(check_patterns(regions).clean());
}

TEST(Checker, IgnoresDisjointIncompatibles) {
  std::vector<Region> regions{
      {"array", Rect{0, 0, 10, 10}, PatternClass::kBitcell},
      {"legacy", Rect{20, 0, 30, 10}, PatternClass::kLogicLegacy},
  };
  EXPECT_TRUE(check_patterns(regions).clean());
}

}  // namespace
}  // namespace limsynth::layout
