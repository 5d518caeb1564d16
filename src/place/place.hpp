// Macro-aware floorplanning and placement (the ICC/Encounter substitute).
//
// Brick banks are placed as macros along the bottom of the block; standard
// cells are placed in the logic region above by iterative barycentric
// refinement against the fixed macro pins and I/O pads. The result feeds
// STA and power with per-net wire parasitics — the .spef the paper's flow
// extracts after physical synthesis. Because brick macros carry their
// pattern class, the floorplan is also checked for pattern legality
// (logic next to bitcell arrays is allowed precisely because both are
// pattern-construct compliant).
#pragma once

#include <vector>

#include "layout/geometry.hpp"
#include "liberty/library.hpp"
#include "netlist/bound.hpp"
#include "netlist/netlist.hpp"
#include "tech/process.hpp"

namespace limsynth::place {

struct PlaceOptions {
  /// Keepout (power ring + routing channel) around each macro. Costed per
  /// macro, which is what makes fine partitioning pay in area (Fig. 4b,
  /// configuration E vs D).
  double macro_halo = 4e-6;
};

struct NetParasitics {
  double wire_cap = 0.0;  // F
  double wire_res = 0.0;  // Ohm (lumped, driver to sinks)
  double length = 0.0;    // m (HPWL)
};

struct MacroPlacement {
  netlist::InstId inst = -1;
  layout::Rect rect;
};

struct Floorplan {
  double width = 0.0;   // m
  double height = 0.0;  // m
  double area = 0.0;    // m^2 (width*height)
  double cell_area = 0.0;
  double macro_area = 0.0;
  layout::Rect logic_region;
  std::vector<MacroPlacement> macros;
  /// Position of every live instance (cell center), indexed by InstId.
  std::vector<std::pair<double, double>> positions;
  /// Per-net extracted wire parasitics, indexed by NetId.
  std::vector<NetParasitics> parasitics;
  double total_wirelength = 0.0;  // m

  const NetParasitics& net(netlist::NetId id) const {
    return parasitics.at(static_cast<std::size_t>(id));
  }
};

/// Floorplans and places the bound design; extracts wire parasitics.
/// Cell identity (macro vs logic, area, dimensions) is read through the
/// binding's dense tables. Throws Error(kStaleBinding) if the netlist
/// changed since binding.
Floorplan place_design(const netlist::BoundDesign& bound,
                       const tech::Process& process,
                       const PlaceOptions& options = {});

}  // namespace limsynth::place
