// Per-net electrical annotation shared by STA, power analysis and the
// event-driven simulator — the single place where pin caps, extracted
// wire parasitics and the lumped-RC wire delay model live, so every
// consumer of "how loaded is this net" agrees (the internal SDF
// substitute rests on the same numbers).
#pragma once

#include <vector>

#include "liberty/library.hpp"
#include "netlist/bound.hpp"
#include "netlist/netlist.hpp"
#include "place/place.hpp"

namespace limsynth::sta {

/// Slew assumed on the (ideal) clock network everywhere a clock arc or
/// clock-pin lookup needs one.
inline constexpr double kClockSlew = 30e-12;  // s

struct NetLoadOptions {
  /// Optional placement parasitics; nullptr = pre-placement wire model
  /// (fanout-proportional capacitance, zero resistance).
  const place::Floorplan* floorplan = nullptr;
  double prelayout_cap_per_sink = 1.0e-15;  // F, used when no floorplan
  /// Extra capacitance on primary-output nets (0 to ignore them).
  double output_load = 0.0;  // F
};

struct NetLoads {
  /// Total load per net: sink pin caps + wire cap (+ output load). F.
  std::vector<double> load;
  /// Lumped-RC wire delay from driver to sinks per net. s.
  std::vector<double> wire_delay;
};

/// Computes per-net loads and wire delays from a bound design: sink pin
/// capacitances come from the bind-time tables, no string resolution.
/// Throws Error(kStaleBinding) when the binding is out of date.
NetLoads compute_net_loads(const netlist::BoundDesign& bound,
                           const NetLoadOptions& options);

}  // namespace limsynth::sta
