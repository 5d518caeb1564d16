// Standard-cell library model.
//
// Cells carry logical-effort parameters (g, p) plus geometry, so both the
// fast estimator (brick compiler, synthesis gate sizer) and the golden
// switch-level simulator can be driven from the same data. Drive variants
// (X1..X16) are generated programmatically from one template per function,
// exactly like a real library's footprint-compatible drive families.
//
// All cells are lithography-pattern compatible with the memory bricks
// (see tech/pattern.hpp) — the enabling observation of the paper (§2.1).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "tech/pattern.hpp"
#include "tech/process.hpp"

namespace limsynth::tech {

enum class CellFunc : std::uint8_t {
  kInv,
  kBuf,
  kNand2,
  kNand3,
  kNand4,
  kNor2,
  kNor3,
  kAnd2,
  kOr2,
  kXor2,
  kXnor2,
  kMux2,     // inputs: A, B, S
  kAoi21,    // !(A*B + C)
  kOai21,    // !((A+B) * C)
  kDff,      // D flip-flop, rising edge
  kDffEn,    // D flip-flop with enable
  kLatch,    // level-sensitive, transparent high
  kClkGate,  // integrated clock gate (latch + and)
  kTie0,
  kTie1,
};

const char* cell_func_name(CellFunc func);
int cell_func_inputs(CellFunc func);
bool cell_func_sequential(CellFunc func);

/// One concrete standard cell (function template at one drive strength).
struct StdCell {
  std::string name;       // e.g. "NAND2_X2"
  CellFunc func = CellFunc::kInv;
  double drive = 1.0;     // drive-strength multiplier relative to unit cell

  // Logical-effort model (per input, in tau units).
  double logical_effort = 1.0;   // g
  double parasitic_delay = 1.0;  // p

  // Electrical (absolute, at this drive).
  double input_cap = 0.0;   // F per input pin
  double clock_cap = 0.0;   // F on clk pin (sequential only)
  double drive_res = 0.0;   // Ohm, effective output switching resistance
  double parasitic_cap = 0.0;  // F of self-load on the output
  double leakage = 0.0;     // W

  // Sequential timing (zero for combinational cells).
  double setup = 0.0;       // s
  double hold = 0.0;        // s
  double clk_to_q = 0.0;    // s (unloaded; load-dependent part via drive_res)

  // Geometry.
  double width = 0.0;       // m
  double height = 0.0;      // m (common row height)
  PatternClass pattern = PatternClass::kLogicRegular;

  int num_inputs() const { return cell_func_inputs(func); }
  bool is_sequential() const { return cell_func_sequential(func); }
  double area() const { return width * height; }

  /// First-order delay driving load C_L: R*(C_par + C_L), plus a fraction of
  /// the input slew. Used by the estimator; the liberty characterizer builds
  /// NLDM LUTs on top of the golden simulator instead.
  double delay(double load_cap, double input_slew = 0.0) const {
    return 0.69 * drive_res * (parasitic_cap + load_cap) + 0.25 * input_slew;
  }

  /// Output slew (20-80%-ish) driving load C_L.
  double output_slew(double load_cap) const {
    return 1.4 * drive_res * (parasitic_cap + load_cap);
  }

  /// Energy of one output transition pair (rise+fall) into load C_L,
  /// including internal (parasitic) energy.
  double switch_energy(double load_cap, double vdd) const {
    return (parasitic_cap + load_cap) * vdd * vdd;
  }
};

/// A generated library: all functions at drives {1, 2, 4, 8, 16}.
class StdCellLib {
 public:
  /// Builds the library for a process. Row height is 9 tracks of the
  /// process metal pitch; widths follow transistor counts.
  explicit StdCellLib(const Process& process);

  const Process& process() const { return process_; }
  const std::vector<StdCell>& cells() const { return cells_; }

  /// Cell of the given function whose drive is closest to (and >= when
  /// possible) the requested drive.
  const StdCell& pick(CellFunc func, double min_drive) const;

  /// Exact-name lookup ("NAND2_X4"); nullptr for any other name, such as
  /// a memory macro's.
  const StdCell* find(std::string_view name) const;

  /// Row height shared by all cells (m).
  double row_height() const { return row_height_; }

 private:
  Process process_;
  std::vector<StdCell> cells_;
  /// Each function's drive family: its [begin, end) range in cells_.
  std::array<std::pair<std::size_t, std::size_t>,
             static_cast<std::size_t>(CellFunc::kTie1) + 1>
      family_{};
  double row_height_ = 0.0;
};

}  // namespace limsynth::tech
