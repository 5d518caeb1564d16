// Activity-based power analysis.
//
// Mirrors the paper's flow: switching activity comes from gate-level
// simulation (the Modelsim/.saif substitute — either the settle engine's
// functional toggles or the event-driven engine's glitch-aware record),
// wire capacitance from placement (.spef substitute), and per-transition
// energies from the NLDM energy tables — then PrimeTime-style summation
// gives dynamic + leakage power at a target frequency.
#pragma once

#include "liberty/library.hpp"
#include "netlist/activity.hpp"
#include "netlist/bound.hpp"
#include "netlist/netlist.hpp"
#include "netlist/sim.hpp"
#include "place/place.hpp"
#include "sta/sta.hpp"

namespace limsynth::power {

struct PowerOptions {
  double frequency = 500e6;  // Hz
  double vdd = 1.2;          // V, for clock-pin CV^2f
  /// Placement parasitics; nullptr = pre-placement wire model.
  const place::Floorplan* floorplan = nullptr;
  /// Optional STA result over the same netlist. With it, each energy-LUT
  /// arc is looked up at the STA-propagated slew of its input net — the
  /// same slews the delay LUTs saw — so fast and slow corners of the same
  /// netlist stop sharing one energy point. Without it (and on nets STA
  /// never reached) the lookups use sta::kDefaultSlew.
  const sta::StaResult* sta = nullptr;
};

struct PowerReport {
  double combinational = 0.0;  // W, gate internal + net switching
  double sequential = 0.0;     // W, flop internal + Q nets
  double clock_tree = 0.0;     // W, clock pin loads
  double macro = 0.0;          // W, brick access + clock energy
  double glitch = 0.0;         // W, hazard transitions (event engine only)
  double leakage = 0.0;        // W
  double total() const {
    return combinational + sequential + clock_tree + macro + glitch + leakage;
  }
  /// Energy per clock cycle (J) at the analysis frequency.
  double energy_per_cycle = 0.0;
};

/// Computes power from an engine-independent activity record over a bound
/// design (arc/pin lookups are slot-indexed, no string resolution). The
/// record must cover at least one cycle over the same netlist. Hazard
/// toggles (activity.glitch_toggles, produced by the event-driven engine)
/// are priced with the same NLDM arc energies as functional toggles and
/// land in PowerReport::glitch.
PowerReport analyze_power(const netlist::BoundDesign& bound,
                          const netlist::Activity& activity,
                          const PowerOptions& options = {});

/// Convenience: snapshots activity from a settle-based simulation run
/// (glitch component is necessarily zero).
PowerReport analyze_power(const netlist::BoundDesign& bound,
                          const netlist::Simulator& sim,
                          const PowerOptions& options = {});

}  // namespace limsynth::power
