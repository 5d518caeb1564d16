// Structural Verilog emission.
//
// The paper's flow describes smart memories in Verilog (Fig. 3) and hands
// gate-level netlists between tools. This writer emits the elaborated /
// synthesized netlist as structural Verilog-2001 so designs built with the
// generators can be inspected, diffed, or taken to an external flow
// (`limsynth sram --verilog`).
#pragma once

#include <iosfwd>

#include "netlist/netlist.hpp"

namespace limsynth::netlist {

/// Emits `nl` as a single structural module. Net names are sanitized to
/// Verilog identifiers: bus-index brackets and other specials become '_'
/// ("raddr[3]" is written "raddr_3_").
void write_verilog(const Netlist& nl, std::ostream& os);

}  // namespace limsynth::netlist
