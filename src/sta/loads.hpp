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

/// Pre-placement wire model: estimated wire capacitance per sink of a
/// net, read by STA, power, evsim annotation and synthesis sizing alike.
inline constexpr double kPrelayoutCapPerSink = 1.0e-15;  // F

/// Load on every primary-output net, as STA and evsim annotation see it.
inline constexpr double kOutputLoad = 5e-15;  // F

/// Skew + jitter margin folded into every setup (and half into every
/// hold) check, by STA and the event-driven engine's endpoint windows.
inline constexpr double kClockUncertainty = 15e-12;  // s

/// Data slew for arc lookups on nets no STA result covers (power's energy
/// LUTs and evsim's delay LUTs without an StaResult).
inline constexpr double kDefaultSlew = 30e-12;  // s

struct NetLoadOptions {
  /// Optional placement parasitics; nullptr = pre-placement wire model
  /// (kPrelayoutCapPerSink per sink, zero resistance).
  const place::Floorplan* floorplan = nullptr;
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
