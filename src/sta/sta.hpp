// Graph-based static timing analysis — the PrimeTime substitute.
//
// Single rising-edge clock domain, NLDM LUT lookups for every arc,
// slew propagation, lumped-RC wire delay from placement parasitics.
// Sequential cells and brick macros launch paths through their CK->Q /
// CK->DO arcs and capture at their D-pin setup constraints, so the
// minimum cycle (and hence f_max, the quantity Fig. 4b and Section 5
// report) falls out of one arrival propagation.
#pragma once

#include <string>
#include <vector>

#include "liberty/library.hpp"
#include "netlist/bound.hpp"
#include "netlist/netlist.hpp"
#include "place/place.hpp"

namespace limsynth::sta {

struct StaOptions {
  /// Optional placement parasitics; nullptr = pre-placement wire model
  /// (fanout-proportional, kPrelayoutCapPerSink in sta/loads.hpp).
  const place::Floorplan* floorplan = nullptr;
};

struct PathPoint {
  std::string where;   // "inst/pin" or "PI net" description
  double arrival = 0.0;
  double slew = 0.0;
};

struct StaResult {
  /// Minimum feasible clock period (worst endpoint arrival + setup +
  /// uncertainty); f_max = 1 / min_period.
  double min_period = 0.0;
  double fmax() const { return min_period > 0 ? 1.0 / min_period : 0.0; }

  /// Worst endpoint description and its path back to the launch point.
  std::string critical_endpoint;
  std::vector<PathPoint> critical_path;

  /// Hold (min-delay) analysis: worst slack of earliest data arrival vs
  /// the endpoint's hold requirement. Positive = no race.
  double worst_hold_slack = 0.0;
  std::string hold_endpoint;

  /// Per-net worst arrival (diagnostic).
  std::vector<double> net_arrival;
  std::vector<double> net_slew;
};

/// Runs STA over a bound design: every arc/constraint lookup is a
/// slot-indexed table read, no string resolution on the propagation path.
/// Throws Error(kStaleBinding) on an out-of-date binding or when the
/// netlist contains a combinational cycle.
StaResult run_sta(const netlist::BoundDesign& bound,
                  const StaOptions& options = {});

}  // namespace limsynth::sta
