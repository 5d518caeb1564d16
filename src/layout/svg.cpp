#include "layout/svg.hpp"

#include <ostream>
#include <sstream>

#include "util/error.hpp"

namespace limsynth::layout {

namespace {

constexpr double kScale = 4e6;  // pixels per meter (4 px/um)

}  // namespace

const char* pattern_color(tech::PatternClass pc) {
  switch (pc) {
    case tech::PatternClass::kBitcell: return "#4477aa";
    case tech::PatternClass::kPeriphery: return "#66ccee";
    case tech::PatternClass::kLogicRegular: return "#228833";
    case tech::PatternClass::kLogicLegacy: return "#ee6677";
    case tech::PatternClass::kFill: return "#bbbbbb";
  }
  return "#000000";
}

void write_svg(const std::vector<Region>& regions, std::ostream& os) {
  LIMS_CHECK(!regions.empty());
  const Rect bb = bounding_box(regions);
  const double w = bb.width() * kScale;
  const double h = bb.height() * kScale;
  os << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" << w + 20
     << "\" height=\"" << h + 20 << "\" viewBox=\"-10 -10 " << w + 20 << ' '
     << h + 20 << "\">\n";
  os << "  <rect x=\"-10\" y=\"-10\" width=\"" << w + 20 << "\" height=\""
     << h + 20 << "\" fill=\"white\"/>\n";
  for (const auto& r : regions) {
    // SVG y grows downward; flip so layout (0,0) is bottom-left.
    const double x = (r.rect.x0 - bb.x0) * kScale;
    const double y = (bb.y1 - r.rect.y1) * kScale;
    const double rw = r.rect.width() * kScale;
    const double rh = r.rect.height() * kScale;
    os << "  <rect x=\"" << x << "\" y=\"" << y << "\" width=\"" << rw
       << "\" height=\"" << rh << "\" fill=\"" << pattern_color(r.pattern)
       << "\" stroke=\"#333333\" stroke-width=\"0.5\">"
       << "<title>" << r.name << " ("
       << tech::pattern_class_name(r.pattern) << ")</title></rect>\n";
    if (rw > 60 && rh > 12) {
      os << "  <text x=\"" << x + 3 << "\" y=\"" << y + 11
         << "\" font-size=\"9\" font-family=\"monospace\" fill=\"white\">"
         << r.name << "</text>\n";
    }
  }
  os << "</svg>\n";
}

std::string to_svg_string(const std::vector<Region>& regions) {
  std::ostringstream os;
  write_svg(regions, os);
  return os.str();
}

}  // namespace limsynth::layout
