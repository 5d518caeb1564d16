#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <regex>
#include <string>
#include <vector>

#include "brick/library_gen.hpp"
#include "liberty/characterize.hpp"
#include "liberty/library.hpp"
#include "liberty/lut.hpp"
#include "liberty/writer.hpp"
#include "tech/process.hpp"
#include "tech/stdcell.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
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

TEST(Lut2D, RejectsRepeatedAxisPoint) {
  // A repeated point makes a zero-width cell that lookup() would divide by.
  EXPECT_THROW(Lut2D({1, 1}, {1, 2}, {1, 2, 3, 4}), Error);
  EXPECT_THROW(Lut2D({1, 2}, {3, 3}, {1, 2, 3, 4}), Error);
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
  const LibCell inv = characterize_analytic(*cells.find("INV_X2"), process);
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
  const LibCell dff = characterize_analytic(*cells.find("DFF_X1"), process);
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
    const LibCell a = characterize_analytic(*cells.find(name), process);
    const LibCell g = characterize_golden(*cells.find(name), process);
    const double da = a.arcs[0].delay.lookup(20 * ps, 15 * fF);
    const double dg = g.arcs[0].delay.lookup(20 * ps, 15 * fF);
    EXPECT_NEAR(da / dg, 1.0, 0.35) << name;
  }
}

TEST(Characterize, GoldenRejectsUnsupportedFunctions) {
  const auto process = tech::default_process();
  const tech::StdCellLib cells(process);
  try {
    characterize_golden(*cells.find("XOR2_X1"), process);
    FAIL() << "expected rejection";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidConfig);
  }
}

TEST(Characterize, GoldenReportsCleanStatsOnHealthyCells) {
  const auto process = tech::default_process();
  const tech::StdCellLib cells(process);
  CharacterizeStats stats;
  characterize_golden(*cells.find("INV_X1"), process, &stats);
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
  tech::StdCell weak = *cells.find("INV_X1");
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

/// Every standard cell plus one brick of each bitcell kind.
Library generated_library() {
  const auto process = tech::default_process();
  Library lib = characterize_stdcell_library(tech::StdCellLib(process));
  for (const tech::BitcellKind kind :
       {tech::BitcellKind::kSram6T, tech::BitcellKind::kSram8T,
        tech::BitcellKind::kCamNor10T, tech::BitcellKind::kEdram1T1C})
    lib.add(brick::make_brick_libcell(
        brick::compile_brick({kind, 32, 16, 2}, process)));
  return lib;
}

void expect_same_bits(const std::vector<double>& a,
                      const std::vector<double>& b, const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(std::memcmp(&a[i], &b[i], sizeof(double)), 0)
        << what << "[" << i << "]: " << std::hexfloat << a[i] << " vs "
        << b[i];
}

void expect_same_pins(const std::vector<PinModel>& a,
                      const std::vector<PinModel>& b, const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name) << what;
    expect_same_bits({a[i].cap}, {b[i].cap}, what + " " + a[i].name + " cap");
    EXPECT_EQ(a[i].is_clock, b[i].is_clock) << what << " " << a[i].name;
  }
}

void expect_same_lut(const Lut2D& a, const Lut2D& b, const std::string& what) {
  expect_same_bits(a.slew_axis(), b.slew_axis(), what + " index_1");
  expect_same_bits(a.load_axis(), b.load_axis(), what + " index_2");
  expect_same_bits(a.values(), b.values(), what + " values");
}

void expect_same_cell(const LibCell& a, const LibCell& b) {
  const std::string& n = a.name;
  EXPECT_EQ(a.name, b.name);
  expect_same_bits({a.area, a.width, a.height, a.leakage, a.clock_energy},
                   {b.area, b.width, b.height, b.leakage, b.clock_energy},
                   n + " area/width/height/leakage/clock_energy");
  EXPECT_EQ(a.is_macro, b.is_macro) << n;
  EXPECT_EQ(a.sequential, b.sequential) << n;
  EXPECT_EQ(a.clock_pin, b.clock_pin) << n;
  expect_same_pins(a.inputs, b.inputs, n + " inputs");
  expect_same_pins(a.outputs, b.outputs, n + " outputs");
  ASSERT_EQ(a.arcs.size(), b.arcs.size()) << n;
  for (std::size_t i = 0; i < a.arcs.size(); ++i) {
    const std::string arc = n + " " + a.arcs[i].from + "->" + a.arcs[i].to;
    EXPECT_EQ(a.arcs[i].from, b.arcs[i].from) << n;
    EXPECT_EQ(a.arcs[i].to, b.arcs[i].to) << n;
    expect_same_lut(a.arcs[i].delay, b.arcs[i].delay, arc + " delay");
    expect_same_lut(a.arcs[i].out_slew, b.arcs[i].out_slew, arc + " slew");
    expect_same_lut(a.arcs[i].energy, b.arcs[i].energy, arc + " energy");
  }
  ASSERT_EQ(a.constraints.size(), b.constraints.size()) << n;
  for (std::size_t i = 0; i < a.constraints.size(); ++i) {
    EXPECT_EQ(a.constraints[i].pin, b.constraints[i].pin) << n;
    expect_same_bits({a.constraints[i].setup, a.constraints[i].hold},
                     {b.constraints[i].setup, b.constraints[i].hold},
                     n + " " + a.constraints[i].pin + " setup/hold");
  }
}

TEST(Writer, RoundTripPreservesLibrary) {
  const Library lib = generated_library();
  const std::string text = to_liberty_string(lib);
  const Library back = parse_liberty(text);

  EXPECT_EQ(back.name(), lib.name());
  ASSERT_EQ(back.cells().size(), lib.cells().size());
  int macros = 0;
  for (std::size_t i = 0; i < lib.cells().size(); ++i) {
    expect_same_cell(lib.cells()[i], back.cells()[i]);
    if (back.cells()[i].is_macro) {
      ++macros;
      EXPECT_GT(back.cells()[i].width, 0.0) << back.cells()[i].name;
      EXPECT_GT(back.cells()[i].height, 0.0) << back.cells()[i].name;
    }
  }
  EXPECT_EQ(macros, 4);
  // Reading and writing again is the identity on the text too.
  EXPECT_EQ(to_liberty_string(back), text);

  // A cell the nested text could not reproduce is refused, not altered.
  const LibCell dff = lib.cell("DFF_X1");
  const auto refused = [](LibCell cell) {
    Library one("one");
    one.add(std::move(cell));
    try {
      to_liberty_string(one);
    } catch (const Error& e) {
      return e.code() == ErrorCode::kInvalidConfig;
    }
    return false;
  };
  LibCell bad = dff;
  bad.clock_pin.clear();
  EXPECT_TRUE(refused(bad)) << "sequential cell without a clock pin";
  bad = dff;
  bad.constraints.push_back(bad.constraints.front());
  EXPECT_TRUE(refused(bad)) << "two constraints on one pin";
  bad = dff;
  bad.arcs.front().to = "CK";
  EXPECT_TRUE(refused(bad)) << "arc to an input pin";
  bad = dff;
  bad.area = std::nan("");
  EXPECT_TRUE(refused(bad)) << "non-finite area";
}

/// Malformed Liberty text and the line the reader should name for it.
struct Mutant {
  std::string text;
  long line;
};

/// `text` with the first match of `pattern` replaced by `with`; the error
/// is expected on the match's line plus `line_offset`.
Mutant mutate(const std::string& text, const std::string& pattern,
              const std::string& with, int line_offset = 0) {
  std::smatch m;
  EXPECT_TRUE(std::regex_search(text, m, std::regex(pattern))) << pattern;
  const auto at = m.position(0);
  Mutant out{text, 1 + std::count(text.begin(), text.begin() + at, '\n') +
                       line_offset};
  out.text.replace(static_cast<std::size_t>(at),
                   static_cast<std::size_t>(m.length(0)), with);
  return out;
}

void expect_rejected(const Mutant& m, const std::string& why) {
  try {
    parse_liberty(m.text);
    ADD_FAILURE() << "accepted text that should fail with '" << why << "'";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_EQ(e.code(), ErrorCode::kInvalidConfig) << what;
    EXPECT_NE(what.find("(line " + std::to_string(m.line) + ")"),
              std::string::npos)
        << what << " (want line " << m.line << ")";
    EXPECT_NE(what.find(why), std::string::npos) << what;
  }
}

TEST(Writer, ParserRejectsGarbage) {
  const auto process = tech::default_process();
  const tech::StdCellLib cells(process);
  Library lib("rt");
  lib.add(characterize_analytic(*cells.find("INV_X1"), process));
  lib.add(characterize_analytic(*cells.find("DFF_X1"), process));
  const std::string text = to_liberty_string(lib);
  ASSERT_NO_THROW(parse_liberty(text));

  expect_rejected({"librar (x) {}", 1}, "expected 'library'");
  expect_rejected(mutate(text, "area : [^;]*;", "area : 1.5abc;"),
                  "bad number '1.5abc'");
  expect_rejected(mutate(text, "height : [^;]*;", "height : nan;"),
                  "bad number 'nan'");
  expect_rejected(mutate(text, "capacitance : [^;]*;", "capacitance : inf;"),
                  "bad number 'inf'");
  expect_rejected(mutate(text, "capacitance : [^;]*;", "capacitance : 1e999;"),
                  "bad number '1e999'");
  expect_rejected(mutate(text, "area : [^;]*;", "area : 1 2;"),
                  "expected ';'");
  expect_rejected(mutate(text, "is_macro : false;", "is_macro : banana;"),
                  "flag must be true or false");
  expect_rejected(
      mutate(text, "direction : input;", "direction : sideways;"),
      "direction must be input or output");
  expect_rejected(mutate(text, "is_macro", "is_macr0"),
                  "unknown cell attribute 'is_macr0'");
  // A timing group without its energy table is found at the group's end.
  expect_rejected(mutate(text, "        energy \\(lut_5x6\\) \\{[^}]*\\}\n", ""),
                  "needs cell_delay, output_slew and energy tables");
  // Table shapes are checked at the table's closing brace, before the
  // Lut2D is built.
  expect_rejected(mutate(text, "index_1 \\(\"", "index_1 (\"1e-13, ", 3),
                  "30 values for a 6x6 grid");
  expect_rejected(mutate(text, "index_2 \\(\"", "index_2 (\"1, ", 2),
                  "table axis is not increasing");
  expect_rejected(mutate(text, "index_1 \\(\"[^\"]*\"", "index_1 (\"1e-12\"",
                         3),
                  "at least two points");
  // The second output_slew group follows the renamed cell_delay group.
  expect_rejected(
      mutate(text, "        cell_delay \\(", "        output_slew (", 5),
      "duplicate output_slew table");
  expect_rejected(mutate(text, "cell \\(DFF_X1\\)", "cell (INV_X1)"),
                  "duplicate cell 'INV_X1'");
  expect_rejected(mutate(text, "pin \\(Y\\)", "pin (A)"),
                  "duplicate pin 'A' in cell INV_X1");
  expect_rejected(mutate(text, "      hold : [^;]*;\n", ""),
                  "needs both setup and hold");
  // Pin references are resolved at the cell's closing brace.
  Mutant unknown_pin =
      mutate(text, "related_pin : \"A\"", "related_pin : \"Z\"");
  unknown_pin.line = mutate(unknown_pin.text, "\n  \\}\n", "", 1).line;
  expect_rejected(unknown_pin,
                  "timing arc from 'Z' is not an input of cell INV_X1");
  expect_rejected(mutate(text, "\\}\n$", "}\n}\n", 1),
                  "trailing text after the library group");
  expect_rejected(mutate(text, "/\\*", "/ *"), "expected a name or number");
  const std::string half = text.substr(0, text.size() / 2);
  expect_rejected({half, 1 + std::count(half.begin(), half.end(), '\n')},
                  "unexpected end of input");
}

TEST(Writer, StrictReaderParsesOrRejectsEveryPrefixAndMutation) {
  const auto process = tech::default_process();
  const tech::StdCellLib cells(process);
  Library lib("fuzz");
  for (const char* name : {"INV_X1", "NAND2_X2", "DFF_X1"})
    lib.add(characterize_analytic(*cells.find(name), process));
  lib.add(brick::make_brick_libcell(brick::compile_brick(
      {tech::BitcellKind::kCamNor10T, 16, 10, 1}, process)));
  const std::string text = to_liberty_string(lib);

  // Parsing either succeeds or throws the typed input error; any other
  // code, exception or crash is a reader bug.
  int rejected = 0, prefixes = 0;
  const auto check = [&](const std::string& input, const std::string& what) {
    try {
      parse_liberty(input);
    } catch (const Error& e) {
      ++rejected;
      EXPECT_EQ(e.code(), ErrorCode::kInvalidConfig) << what << ": "
                                                     << e.what();
    }
  };
  for (std::size_t cut = 0; cut < text.size();
       cut += 1 + text.size() / 97, ++prefixes)
    check(text.substr(0, cut), "prefix of " + std::to_string(cut) + " bytes");
  EXPECT_EQ(rejected, prefixes);  // no strict prefix is a whole library

  // Half the replacement bytes come from the grammar's own alphabet, so
  // mutations reach past the lexer; the rest are arbitrary bytes.
  const std::string alphabet = "(){}:;,\"/*. \n0123456789eE+-_abcxyz";
  Rng rng(2024);
  for (int i = 0; i < 1000; ++i) {
    std::string mutant = text;
    const std::size_t at = rng.below(mutant.size());
    mutant[at] = rng.chance(0.5)
                     ? alphabet[rng.below(alphabet.size())]
                     : static_cast<char>(rng.below(256));
    check(mutant, "byte " + std::to_string(at) + " of mutation " +
                      std::to_string(i));
  }
  EXPECT_GT(rejected, prefixes + 500);
}

}  // namespace
}  // namespace limsynth::liberty
