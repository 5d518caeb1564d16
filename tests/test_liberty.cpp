#include <gtest/gtest.h>

#include "liberty/characterize.hpp"
#include "liberty/library.hpp"
#include "liberty/lut.hpp"
#include "liberty/writer.hpp"
#include "tech/process.hpp"
#include "tech/stdcell.hpp"
#include "util/units.hpp"

namespace limsynth::liberty {
namespace {

using limsynth::units::fF;
using limsynth::units::ps;

Lut2D ramp_lut() {
  // value = 10*slew + load (arbitrary linear function for testing).
  return Lut2D::from_function({1.0, 2.0, 4.0}, {10.0, 20.0, 40.0},
                              [](double s, double l) { return 10 * s + l; });
}

TEST(Lut2D, ExactOnGridPoints) {
  const Lut2D lut = ramp_lut();
  EXPECT_DOUBLE_EQ(lut.lookup(1.0, 10.0), 20.0);
  EXPECT_DOUBLE_EQ(lut.lookup(4.0, 40.0), 80.0);
}

TEST(Lut2D, BilinearInterpolationIsExactForLinearFunctions) {
  const Lut2D lut = ramp_lut();
  EXPECT_NEAR(lut.lookup(1.5, 15.0), 30.0, 1e-12);
  EXPECT_NEAR(lut.lookup(3.0, 25.0), 55.0, 1e-12);
}

TEST(Lut2D, ExtrapolatesLinearlyBeyondGrid) {
  const Lut2D lut = ramp_lut();
  EXPECT_NEAR(lut.lookup(8.0, 80.0), 160.0, 1e-12);
  EXPECT_NEAR(lut.lookup(0.5, 5.0), 10.0, 1e-12);
}

TEST(Lut2D, RejectsMalformedAxes) {
  EXPECT_THROW(Lut2D({2.0, 1.0}, {1.0, 2.0}, {1, 2, 3, 4}), Error);
  EXPECT_THROW(Lut2D({1.0, 2.0}, {1.0, 2.0}, {1, 2, 3}), Error);
}

TEST(Library, AddAndLookup) {
  Library lib("test");
  LibCell c;
  c.name = "X";
  lib.add(c);
  EXPECT_EQ(lib.cell("X").name, "X");
  EXPECT_EQ(lib.find("Y"), nullptr);
  LibCell dup;
  dup.name = "X";
  EXPECT_THROW(lib.add(dup), Error);
  EXPECT_THROW(lib.cell("Y"), Error);
}

TEST(Characterize, AnalyticShapesAreSane) {
  const auto process = tech::default_process();
  const tech::StdCellLib cells(process);
  const LibCell inv = characterize_analytic(cells.by_name("INV_X2"), process);
  ASSERT_EQ(inv.inputs.size(), 1u);
  ASSERT_EQ(inv.outputs.size(), 1u);
  ASSERT_EQ(inv.arcs.size(), 1u);
  const TimingArc& arc = inv.arcs[0];
  // Delay grows with load and with input slew.
  EXPECT_LT(arc.delay.lookup(10 * ps, 2 * fF), arc.delay.lookup(10 * ps, 40 * fF));
  EXPECT_LT(arc.delay.lookup(10 * ps, 10 * fF),
            arc.delay.lookup(200 * ps, 10 * fF));
  // Energy grows with load.
  EXPECT_LT(arc.energy.lookup(10 * ps, 2 * fF), arc.energy.lookup(10 * ps, 40 * fF));
}

TEST(Characterize, SequentialCellsGetConstraintsAndClockArc) {
  const auto process = tech::default_process();
  const tech::StdCellLib cells(process);
  const LibCell dff = characterize_analytic(cells.by_name("DFF_X1"), process);
  EXPECT_TRUE(dff.sequential);
  EXPECT_EQ(dff.clock_pin, "CK");
  ASSERT_FALSE(dff.arcs.empty());
  EXPECT_EQ(dff.arcs[0].from, "CK");
  EXPECT_EQ(dff.arcs[0].to, "Q");
  const Constraint* con = dff.find_constraint("D");
  ASSERT_NE(con, nullptr);
  EXPECT_GT(con->setup, 0.0);
}

TEST(Characterize, GoldenTracksAnalyticWithinTolerance) {
  // The paper validates its analytic models against SPICE; here the
  // golden-simulated NLDM tables must track the analytic ones within ~35%
  // on the interior of the grid (the analytic model is first-order).
  const auto process = tech::default_process();
  const tech::StdCellLib cells(process);
  for (const char* name : {"INV_X2", "NAND2_X2", "NOR2_X2"}) {
    const LibCell a = characterize_analytic(cells.by_name(name), process);
    const LibCell g = characterize_golden(cells.by_name(name), process);
    const double da = a.arcs[0].delay.lookup(20 * ps, 15 * fF);
    const double dg = g.arcs[0].delay.lookup(20 * ps, 15 * fF);
    EXPECT_NEAR(da / dg, 1.0, 0.35) << name;
  }
}

TEST(Characterize, GoldenRejectsUnsupportedFunctions) {
  const auto process = tech::default_process();
  const tech::StdCellLib cells(process);
  try {
    characterize_golden(cells.by_name("XOR2_X1"), process);
    FAIL() << "expected rejection";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidConfig);
  }
}

TEST(Characterize, GoldenReportsCleanStatsOnHealthyCells) {
  const auto process = tech::default_process();
  const tech::StdCellLib cells(process);
  CharacterizeStats stats;
  characterize_golden(cells.by_name("INV_X1"), process, &stats);
  EXPECT_GT(stats.grid_points, 0);
  EXPECT_EQ(stats.fallback_points, 0);
  EXPECT_TRUE(stats.clean());
}

TEST(Characterize, SickPointsDegradeToAnalyticInsteadOfAborting) {
  // A pathologically weak drive never switches the output inside the
  // simulated window; every grid point must fall back to the analytic
  // model (and be flagged), not abort library generation.
  const auto process = tech::default_process();
  const tech::StdCellLib cells(process);
  tech::StdCell weak = cells.by_name("INV_X1");
  weak.drive = 1e-12;  // every point trips the step budget or never switches
  CharacterizeStats stats;
  LibCell lib_cell;
  ASSERT_NO_THROW(lib_cell = characterize_golden(weak, process, &stats));
  EXPECT_EQ(stats.fallback_points, stats.grid_points);
  EXPECT_EQ(stats.notes.size(),
            static_cast<std::size_t>(stats.fallback_points));
  // The fallback values are the analytic ones, so the tables stay usable.
  const LibCell analytic = characterize_analytic(weak, process);
  EXPECT_DOUBLE_EQ(lib_cell.arcs[0].delay.lookup(20 * ps, 15 * fF),
                   analytic.arcs[0].delay.lookup(20 * ps, 15 * fF));
}

TEST(Characterize, WholeLibraryBuilds) {
  const auto process = tech::default_process();
  const tech::StdCellLib cells(process);
  const Library lib = characterize_stdcell_library(cells);
  EXPECT_EQ(lib.cells().size(), cells.cells().size());
  EXPECT_NE(lib.find("NAND2_X4"), nullptr);
}

TEST(Writer, RoundTripPreservesLibrary) {
  const auto process = tech::default_process();
  const tech::StdCellLib cells(process);
  Library lib("rt");
  lib.add(characterize_analytic(cells.by_name("NAND2_X2"), process));
  lib.add(characterize_analytic(cells.by_name("DFF_X2"), process));

  const std::string text = to_liberty_string(lib);
  const Library back = parse_liberty(text);

  EXPECT_EQ(back.name(), "rt");
  ASSERT_EQ(back.cells().size(), 2u);
  const LibCell& orig = lib.cell("NAND2_X2");
  const LibCell& copy = back.cell("NAND2_X2");
  EXPECT_NEAR(copy.area, orig.area, 1e-3 * orig.area);
  ASSERT_EQ(copy.arcs.size(), orig.arcs.size());
  const double want = orig.arcs[0].delay.lookup(30 * ps, 10 * fF);
  const double got = copy.arcs[0].delay.lookup(30 * ps, 10 * fF);
  EXPECT_NEAR(got, want, 1e-3 * want);

  const LibCell& dff = back.cell("DFF_X2");
  EXPECT_TRUE(dff.sequential);
  ASSERT_NE(dff.find_constraint("D"), nullptr);
  EXPECT_NEAR(dff.find_constraint("D")->setup,
              lib.cell("DFF_X2").find_constraint("D")->setup, 1e-15);
}

TEST(Writer, ParserRejectsGarbage) {
  EXPECT_THROW(parse_liberty("librar (x) {}"), Error);
  EXPECT_THROW(parse_liberty("library (x) { cell (a) { bogus_attr : 1; } }"),
               Error);
}

}  // namespace
}  // namespace limsynth::liberty
