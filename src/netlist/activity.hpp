// Engine-independent switching-activity record — the .saif substitute.
//
// Both simulation engines produce one. The two-phase settle simulator
// counts every value change its fixpoint passes make: mostly functional
// toggles, plus transients where a gate evaluated (in instance order)
// before its inputs settled flips and flips back within one settle. It
// does not separate the two, so glitch_toggles stays zero. The
// event-driven engine (evsim) splits every net's transitions into
// functional toggles and hazard (glitch) toggles. Power analysis
// consumes the record without caring which engine made it, which is how
// glitch energy lands in the power report as its own component.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "netlist/netlist.hpp"

namespace limsynth::netlist {

class Simulator;

struct Activity {
  std::uint64_t cycles = 0;
  /// Per-net transition counts over the whole run (both edges counted).
  std::vector<std::uint64_t> toggles;
  /// Per-net hazard transitions: toggles beyond the one functional change
  /// per cycle. Always <= toggles[net]; zero from the settle engine
  /// (whose evaluation-order transients stay inside `toggles`).
  std::vector<std::uint64_t> glitch_toggles;
  /// Cycles in which each macro instance reported an access.
  std::map<InstId, std::uint64_t> macro_accesses;

  /// Toggle rate per cycle (both edges), as Simulator::activity.
  double rate(NetId net) const {
    if (cycles == 0) return 0.0;
    return static_cast<double>(toggles[static_cast<std::size_t>(net)]) /
           static_cast<double>(cycles);
  }
  /// Hazard-transition rate per cycle.
  double glitch_rate(NetId net) const {
    if (cycles == 0) return 0.0;
    return static_cast<double>(
               glitch_toggles[static_cast<std::size_t>(net)]) /
           static_cast<double>(cycles);
  }
  std::uint64_t macro_access_count(InstId inst) const {
    const auto it = macro_accesses.find(inst);
    return it == macro_accesses.end() ? 0 : it->second;
  }

  /// Snapshot of a settle-based simulation run (glitch_toggles all zero).
  static Activity from_simulator(const Simulator& sim);
};

}  // namespace limsynth::netlist
