// Delay back-annotation for the event-driven engine — the internal SDF
// substitute.
//
// Every arc delay the engine will ever use is computed once, up front,
// from the same data STA reads: NLDM delay LUTs looked up at the
// STA-propagated input slew (or a default slew pre-STA) and the shared
// per-net loads from sta::compute_net_loads, plus the lumped-RC wire
// delay of the driven net. Sequential and macro cells contribute their
// clock-to-output arcs and setup windows, so the simulator can check the
// dynamic run against the static min_period claim.
#pragma once

#include <string>
#include <vector>

#include "evsim/wheel.hpp"
#include "liberty/library.hpp"
#include "netlist/bound.hpp"
#include "netlist/netlist.hpp"
#include "sta/sta.hpp"
#include "tech/stdcell.hpp"

namespace limsynth::evsim {

struct AnnotateOptions {
  /// Placement parasitics; nullptr = pre-placement fanout wire model.
  const place::Floorplan* floorplan = nullptr;
  /// STA result over the same netlist: arc lookups then use the
  /// propagated per-net slews (the delays evsim replays are exactly the
  /// ones STA summed). Without it, sta::kDefaultSlew is used everywhere.
  /// Output loads and the clock uncertainty folded into every endpoint's
  /// setup window are STA's constants (sta/loads.hpp).
  const sta::StaResult* sta = nullptr;
};

/// One combinational instance, inputs in pin order (A, B, C, D).
struct GateInfo {
  netlist::InstId inst = -1;
  tech::CellFunc func = tech::CellFunc::kInv;
  int nin = 0;
  netlist::NetId in[4] = {netlist::kNoNet, netlist::kNoNet, netlist::kNoNet,
                          netlist::kNoNet};
  netlist::NetId out = netlist::kNoNet;
  /// Input-to-output delay per input position, including the output net's
  /// wire delay. fs.
  TimeFs delay_fs[4] = {0, 0, 0, 0};
};

struct FlopInfo {
  netlist::InstId inst = -1;
  netlist::NetId d = netlist::kNoNet;
  netlist::NetId en = netlist::kNoNet;  // kNoNet for plain DFF
  netlist::NetId q = netlist::kNoNet;
  TimeFs clk_to_q_fs = 0;  // including Q-net wire delay
};

struct MacroOutInfo {
  std::string pin;  // full pin name, e.g. "DO[3]"
  netlist::NetId net = netlist::kNoNet;
  TimeFs delay_fs = 0;  // clock-to-pin arc + wire delay
};

struct MacroInfo {
  netlist::InstId inst = -1;
  std::vector<MacroOutInfo> outputs;
};

/// A setup-constrained capture point (flop D/EN, macro input, or primary
/// output). `name` matches sta::StaResult::critical_endpoint formatting.
struct EndpointInfo {
  std::string name;
  netlist::NetId net = netlist::kNoNet;
  /// Setup + clock uncertainty, fs: data must be stable this long before
  /// the capture edge.
  TimeFs window_fs = 0;
};

struct TimingAnnotation {
  std::vector<GateInfo> gates;
  std::vector<FlopInfo> flops;
  std::vector<MacroInfo> macros;
  std::vector<EndpointInfo> endpoints;
};

inline TimeFs to_fs(double seconds) {
  return seconds <= 0.0 ? 0 : static_cast<TimeFs>(seconds * 1e15 + 0.5);
}

/// Builds the annotation from a bound design (arc/pin resolution is
/// slot-indexed, no per-instance string scans). Throws Error(kStaleBinding)
/// on an out-of-date binding or when a cell lacks its expected timing arcs.
TimingAnnotation annotate_delays(const netlist::BoundDesign& bound,
                                 const tech::StdCellLib& cells,
                                 const AnnotateOptions& options = {});

}  // namespace limsynth::evsim
