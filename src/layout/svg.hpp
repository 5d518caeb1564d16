// SVG rendering of abstract layouts: brick tilings and block floorplans.
// Pattern classes are color-coded so the white-box structure (bitcells,
// pitch-matched periphery, synthesized logic) is visible at a glance.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "layout/geometry.hpp"

namespace limsynth::layout {

/// Renders regions (e.g. BrickLayout::regions or floorplan rectangles)
/// as an SVG document at 4 px/um, naming every large region.
void write_svg(const std::vector<Region>& regions, std::ostream& os);
std::string to_svg_string(const std::vector<Region>& regions);

/// Fill color for a pattern class (hex, e.g. "#4477aa").
const char* pattern_color(tech::PatternClass pc);

}  // namespace limsynth::layout
