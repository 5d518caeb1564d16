// Liberty-style text serialization: the one serialized form of a LibCell.
//
// The paper's flow hands generated brick models to commercial tools as
// .lib files; this writer emits a compatible-in-spirit subset (library /
// cell / pin / timing groups with index_1/index_2/values tables) and the
// reader parses it back. The pair is exact: every LibCell field is
// written, in SI base units, with the shortest digits that read back to
// the same double, so parse_liberty(to_liberty_string(lib)) equals `lib`
// bit for bit. Every compiled brick reaches the flow through that round
// trip (brick/cache.cpp), and the on-disk brick store keeps the text.
#pragma once

#include <iosfwd>
#include <string>

#include "liberty/library.hpp"

namespace limsynth::liberty {

/// Emits the library in a Liberty-like syntax. Units: time s, capacitance
/// F, energy J, power W, length m, area m^2 (stated in the header comment
/// of the output). Throws Error(kInvalidConfig) for a cell the text cannot
/// reproduce exactly: a non-finite value, arcs not grouped in output-pin
/// order, constraints not in input-pin order (at most one per pin), or a
/// clock pin on a combinational cell.
void write_liberty(const Library& lib, std::ostream& os);
std::string to_liberty_string(const Library& lib);

/// Parses a library produced by write_liberty. This is not a general
/// Liberty parser: it accepts the writer's subset strictly. Numbers must
/// be whole finite tokens, flags true/false, directions input/output;
/// every timing group carries all three tables, each with increasing axes
/// of two or more points and one value per grid point; cell and pin names
/// are unique. Anything else, including an early end of input or trailing
/// text, throws Error(kInvalidConfig) naming the line.
Library parse_liberty(const std::string& text);

}  // namespace limsynth::liberty
