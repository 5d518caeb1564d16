// Timing-library objects consumed by STA and power analysis — the role
// .lib files play in the paper's flow. Both standard cells and dynamically
// generated memory bricks are represented as LibCells ("bricks are
// integrated ... by library files at the gate netlist").
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "liberty/lut.hpp"

namespace limsynth::liberty {

struct PinModel {
  std::string name;
  double cap = 0.0;       // F
  bool is_clock = false;
};

/// One input->output timing arc with NLDM LUTs over (input slew, load).
struct TimingArc {
  std::string from;  // input pin name (or clock pin for sequential arcs)
  std::string to;    // output pin name
  Lut2D delay;       // s
  Lut2D out_slew;    // s
  /// Energy per output transition (J) as a function of (slew, load).
  Lut2D energy;
};

/// Setup/hold constraint on an input pin relative to the clock pin.
struct Constraint {
  std::string pin;
  double setup = 0.0;  // s
  double hold = 0.0;   // s
};

struct LibCell {
  std::string name;
  double area = 0.0;     // m^2
  double width = 0.0;    // m (0 = derive from area at placement)
  double height = 0.0;   // m
  double leakage = 0.0;  // W
  bool is_macro = false; // memory brick or other black-box macro
  bool sequential = false;
  std::string clock_pin;  // empty for combinational

  std::vector<PinModel> inputs;
  std::vector<PinModel> outputs;
  std::vector<TimingArc> arcs;
  std::vector<Constraint> constraints;

  /// Static energy per clock cycle even when idle (clock tree inside a
  /// macro, precharge). Zero for standard cells.
  double clock_energy = 0.0;

  const PinModel* find_input(const std::string& pin) const;
  const PinModel* find_output(const std::string& pin) const;
  const TimingArc* find_arc(const std::string& from, const std::string& to) const;
  const Constraint* find_constraint(const std::string& pin) const;
};

class Library {
 public:
  explicit Library(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Adds a cell; rejects duplicate names.
  void add(LibCell cell);

  const LibCell& cell(const std::string& name) const;
  const LibCell* find(const std::string& name) const;
  const std::vector<LibCell>& cells() const { return cells_; }

  /// Dense position of `name` in cells(), or npos when absent. BoundDesign
  /// uses these positions as LibCellIds.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t index_of(const std::string& name) const;

 private:
  std::string name_;
  std::vector<LibCell> cells_;
  std::unordered_map<std::string, std::size_t> index_;
};

/// Default characterization grid axes.
std::vector<double> default_slew_axis();
std::vector<double> default_load_axis();

}  // namespace limsynth::liberty
