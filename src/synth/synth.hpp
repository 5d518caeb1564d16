// Logic-synthesis stage (the Design Compiler substitute in the flow).
//
// Operates on elaborated gate netlists: sweeps dead logic, legalizes
// fanout with buffer trees, and sizes gates bottom-up with a logical-effort
// target. Memory bricks are macros: never touched, exactly as the paper
// notes ("synthesis tools do not have the ability to improve the design"
// inside a brick — §6).
#pragma once

#include "liberty/library.hpp"
#include "netlist/netlist.hpp"
#include "tech/stdcell.hpp"

namespace limsynth::synth {

struct SynthOptions {
  int max_fanout = 12;  // buffer nets with more sinks than this
  /// Post-placement mode: actual wire cap per net (indexed by NetId).
  /// Without it, sizing estimates sta::kPrelayoutCapPerSink per sink.
  const std::vector<double>* net_wire_caps = nullptr;
};

struct SynthStats {
  int dead_removed = 0;
  int buffers_added = 0;
  int resized = 0;
  double cell_area = 0.0;   // combinational + sequential standard cells
  double macro_area = 0.0;  // brick macros
};

/// Runs the synthesis pipeline in place. `lib` must contain every cell the
/// netlist references (standard cells + generated brick macros); `cells`
/// provides the drive families for sizing.
SynthStats synthesize(netlist::Netlist& nl, const liberty::Library& lib,
                      const tech::StdCellLib& cells,
                      const SynthOptions& options = {});

/// Re-sizes gates only (no sweep/buffering) — the post-placement timing
/// recovery pass, run with options.net_wire_caps from extraction.
int resize_gates(netlist::Netlist& nl, const liberty::Library& lib,
                 const tech::StdCellLib& cells, const SynthOptions& options);

}  // namespace limsynth::synth
