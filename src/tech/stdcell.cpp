#include "tech/stdcell.hpp"

#include <array>
#include <cmath>

#include "util/error.hpp"

namespace limsynth::tech {

const char* cell_func_name(CellFunc func) {
  switch (func) {
    case CellFunc::kInv: return "INV";
    case CellFunc::kBuf: return "BUF";
    case CellFunc::kNand2: return "NAND2";
    case CellFunc::kNand3: return "NAND3";
    case CellFunc::kNand4: return "NAND4";
    case CellFunc::kNor2: return "NOR2";
    case CellFunc::kNor3: return "NOR3";
    case CellFunc::kAnd2: return "AND2";
    case CellFunc::kOr2: return "OR2";
    case CellFunc::kXor2: return "XOR2";
    case CellFunc::kXnor2: return "XNOR2";
    case CellFunc::kMux2: return "MUX2";
    case CellFunc::kAoi21: return "AOI21";
    case CellFunc::kOai21: return "OAI21";
    case CellFunc::kDff: return "DFF";
    case CellFunc::kDffEn: return "DFFE";
    case CellFunc::kLatch: return "LATCH";
    case CellFunc::kClkGate: return "CKGATE";
    case CellFunc::kTie0: return "TIE0";
    case CellFunc::kTie1: return "TIE1";
  }
  return "?";
}

int cell_func_inputs(CellFunc func) {
  switch (func) {
    case CellFunc::kInv:
    case CellFunc::kBuf:
    case CellFunc::kLatch:
    case CellFunc::kDff: return 1;  // data pin; clock counted separately
    case CellFunc::kDffEn: return 2;  // D, EN
    case CellFunc::kClkGate: return 1;  // EN; clock counted separately
    case CellFunc::kNand2:
    case CellFunc::kNor2:
    case CellFunc::kAnd2:
    case CellFunc::kOr2:
    case CellFunc::kXor2:
    case CellFunc::kXnor2: return 2;
    case CellFunc::kNand3:
    case CellFunc::kNor3:
    case CellFunc::kMux2:
    case CellFunc::kAoi21:
    case CellFunc::kOai21: return 3;
    case CellFunc::kNand4: return 4;
    case CellFunc::kTie0:
    case CellFunc::kTie1: return 0;
  }
  return 0;
}

bool cell_func_sequential(CellFunc func) {
  switch (func) {
    case CellFunc::kDff:
    case CellFunc::kDffEn:
    case CellFunc::kLatch:
    case CellFunc::kClkGate:
      return true;
    default:
      return false;
  }
}

namespace {

struct FuncTemplate {
  CellFunc func;
  double g;        // logical effort per input
  double p;        // parasitic delay (tau units)
  int tracks;      // layout width in placement tracks at X1
  double leak_rel; // leakage relative to INV_X1
};

// Logical-effort values follow Sutherland/Sproull/Harris; compound and
// sequential cells use conventional library approximations.
constexpr std::array<FuncTemplate, 20> kTemplates = {{
    {CellFunc::kInv, 1.00, 1.0, 2, 1.0},
    {CellFunc::kBuf, 1.00, 2.2, 3, 1.6},
    {CellFunc::kNand2, 4.0 / 3.0, 2.0, 3, 1.5},
    {CellFunc::kNand3, 5.0 / 3.0, 3.0, 4, 2.1},
    {CellFunc::kNand4, 6.0 / 3.0, 4.0, 5, 2.7},
    {CellFunc::kNor2, 5.0 / 3.0, 2.0, 3, 1.5},
    {CellFunc::kNor3, 7.0 / 3.0, 3.0, 4, 2.1},
    {CellFunc::kAnd2, 4.0 / 3.0, 3.1, 4, 2.0},
    {CellFunc::kOr2, 5.0 / 3.0, 3.1, 4, 2.0},
    {CellFunc::kXor2, 4.0, 4.0, 6, 3.0},
    {CellFunc::kXnor2, 4.0, 4.0, 6, 3.0},
    {CellFunc::kMux2, 2.0, 3.5, 6, 3.0},
    {CellFunc::kAoi21, 5.0 / 3.0, 2.6, 4, 2.2},
    {CellFunc::kOai21, 5.0 / 3.0, 2.6, 4, 2.2},
    {CellFunc::kDff, 1.5, 4.5, 9, 4.5},
    {CellFunc::kDffEn, 1.5, 5.0, 11, 5.5},
    {CellFunc::kLatch, 1.4, 3.0, 6, 3.0},
    {CellFunc::kClkGate, 1.4, 3.5, 7, 3.5},
    {CellFunc::kTie0, 0.0, 0.0, 2, 0.3},
    {CellFunc::kTie1, 0.0, 0.0, 2, 0.3},
}};

constexpr std::array<double, 5> kDrives = {1.0, 2.0, 4.0, 8.0, 16.0};

}  // namespace

StdCellLib::StdCellLib(const Process& process) : process_(process) {
  // 9-track row height on a 0.2um placement grid -> 1.8um, typical 65nm.
  const double track = 0.2e-6;
  row_height_ = 9.0 * track;
  const double c0 = process.c_unit();
  const double r0 = process.r_unit();
  const double inv_leak = process.i_leak * process.wn_unit * (1.0 + process.beta) *
                          process.vdd / (1.0 + process.beta);

  cells_.reserve(kTemplates.size() * kDrives.size());
  for (const auto& t : kTemplates) {
    family_[static_cast<std::size_t>(t.func)].first = cells_.size();
    for (double d : kDrives) {
      if ((t.func == CellFunc::kTie0 || t.func == CellFunc::kTie1) && d > 1.0)
        continue;
      StdCell c;
      c.func = t.func;
      c.drive = d;
      c.name = std::string(cell_func_name(t.func)) + "_X" +
               std::to_string(static_cast<int>(d));
      c.logical_effort = t.g;
      c.parasitic_delay = t.p;
      c.input_cap = t.g * d * c0;
      c.drive_res = (d > 0) ? r0 / d : 0.0;
      c.parasitic_cap = t.p * d * c0 * (process.c_diff / process.c_gate);
      c.leakage = t.leak_rel * d * inv_leak;
      c.width = static_cast<double>(t.tracks) * track * (0.5 + 0.5 * d);
      c.height = row_height_;
      c.pattern = PatternClass::kLogicRegular;
      if (c.is_sequential()) {
        c.clock_cap = 2.0 * c0 * std::sqrt(d);
        c.setup = 2.5 * process.tau();
        c.hold = 0.5 * process.tau();
        c.clk_to_q = t.p * process.tau();
      }
      cells_.push_back(c);
    }
    family_[static_cast<std::size_t>(t.func)].second = cells_.size();
  }
}

const StdCell& StdCellLib::pick(CellFunc func, double min_drive) const {
  const StdCell* best = nullptr;       // smallest drive >= min_drive
  const StdCell* largest = nullptr;    // fallback: largest available
  for (const auto& c : cells_) {
    if (c.func != func) continue;
    if (!largest || c.drive > largest->drive) largest = &c;
    if (c.drive >= min_drive && (!best || c.drive < best->drive)) best = &c;
  }
  LIMS_CHECK_MSG(largest != nullptr,
                 "no cell with function " << cell_func_name(func));
  return best ? *best : *largest;
}

const StdCell* StdCellLib::find(std::string_view name) const {
  // Names are "<function>_X<drive>": match the function, then scan its
  // drive family. No per-library index to build, so constructing a
  // library costs no more than its cells.
  const std::size_t pos = name.rfind("_X");
  if (pos == std::string_view::npos) return nullptr;
  const std::string_view stem = name.substr(0, pos);
  for (std::size_t f = 0; f < family_.size(); ++f) {
    if (stem != cell_func_name(static_cast<CellFunc>(f))) continue;
    for (std::size_t i = family_[f].first; i < family_[f].second; ++i)
      if (cells_[i].name == name) return &cells_[i];
    return nullptr;
  }
  return nullptr;
}

}  // namespace limsynth::tech
