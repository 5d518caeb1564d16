#include "place/place.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>

#include "util/error.hpp"

namespace limsynth::place {

namespace {

using netlist::InstId;
using netlist::Netlist;
using netlist::NetId;

constexpr double kUtilization = 0.70;  // logic-region cell density
constexpr int kRefineIterations = 24;  // barycentric refinement passes

/// Splits "RWL[17]" into base/index; index -1 for scalar pins.
std::pair<std::string, int> split_pin(const std::string& pin) {
  const auto pos = pin.find('[');
  if (pos == std::string::npos) return {pin, -1};
  return {pin.substr(0, pos), std::atoi(pin.c_str() + pos + 1)};
}

/// Physical pin positions on placed macros: wordline pins climb the left
/// edge (their row's height), data pins spread along the top/bottom edges.
/// This is what makes a tall stacked bank's wordline routing long — the
/// Fig. 4b config-D decode penalty.
class MacroPins {
 public:
  MacroPins(const Netlist& nl, const std::vector<MacroPlacement>& macros) {
    for (const auto& m : macros) {
      auto& info = info_[m.inst];
      info.rect = m.rect;
      for (const auto& c : nl.instance(m.inst).conns) {
        const auto [base, index] = split_pin(c.pin);
        if (index >= 0)
          info.max_index[base] = std::max(info.max_index[base], index);
      }
    }
  }

  bool is_macro(InstId inst) const { return info_.count(inst) > 0; }

  std::pair<double, double> pin_pos(InstId inst, const std::string& pin) const {
    const auto it = info_.find(inst);
    LIMS_CHECK(it != info_.end());
    const auto& info = it->second;
    const layout::Rect& r = info.rect;
    const auto [base, index] = split_pin(pin);
    if (index < 0) return {r.x0, r.y0};  // CK and scalar pins: corner
    const auto mi = info.max_index.find(base);
    const double frac =
        (mi == info.max_index.end() || mi->second == 0)
            ? 0.5
            : (static_cast<double>(index) + 0.5) / (mi->second + 1);
    // The brick stack runs along the macro's long axis; wordline pins
    // spread along it (their row's physical position), data pins sit at
    // the periphery end of the stack.
    const bool horizontal = r.width() >= r.height();
    if (base == "RWL" || base == "WWL") {
      return horizontal
                 ? std::pair{r.x0 + frac * r.width(), r.y0}
                 : std::pair{r.x0, r.y0 + frac * r.height()};
    }
    // DO/MATCH/WDATA/SDATA: at the stack's periphery end, spread across
    // the short dimension.
    return horizontal ? std::pair{r.x0, r.y0 + frac * r.height()}
                      : std::pair{r.x0 + frac * r.width(), r.y0};
  }

 private:
  struct Info {
    layout::Rect rect;
    std::map<std::string, int> max_index;
  };
  std::map<InstId, Info> info_;
};

}  // namespace

Floorplan place_design(const netlist::BoundDesign& bd,
                       const tech::Process& process,
                       const PlaceOptions& opt) {
  bd.check_fresh();
  const Netlist& nl = bd.netlist();
  Floorplan fp;
  const std::size_t n_inst = nl.instance_storage_size();
  fp.positions.assign(n_inst, {0.0, 0.0});

  // ---------------------------------------------------------- inventory
  // Macros may be rotated; the floorplanner lays their long side along the
  // bottom band to keep the block close to square.
  std::vector<InstId> macro_ids;
  std::vector<std::pair<double, double>> macro_wh;  // placed (w, h)
  double macro_row_width = 0.0, macro_max_height = 0.0;
  for (std::size_t i = 0; i < n_inst; ++i) {
    const auto id = static_cast<InstId>(i);
    if (!nl.is_live(id)) continue;
    const liberty::LibCell& cell = bd.cell(id);
    if (cell.is_macro) {
      macro_ids.push_back(id);
      fp.macro_area += cell.area;
      double w = cell.width > 0 ? cell.width : std::sqrt(cell.area);
      double h = cell.height > 0 ? cell.height : std::sqrt(cell.area);
      if (h > w) std::swap(w, h);  // rotate: long side horizontal
      macro_wh.emplace_back(w, h);
      macro_row_width += w + 2.0 * opt.macro_halo;
      macro_max_height = std::max(macro_max_height, h);
    } else {
      fp.cell_area += cell.area;
    }
  }

  // --------------------------------------------------------- floorplan
  const double logic_area = fp.cell_area / kUtilization;
  double width = std::max(macro_row_width, std::sqrt(std::max(logic_area, 1e-12)));
  const double logic_height = logic_area / width;
  const double macro_band =
      macro_ids.empty() ? 0.0 : macro_max_height + 2.0 * opt.macro_halo;
  fp.width = width;
  fp.height = macro_band + logic_height;
  fp.area = fp.width * fp.height;
  fp.logic_region =
      layout::Rect{0.0, macro_band, fp.width, fp.height};

  // Macros across the bottom band, spread evenly.
  double cursor = opt.macro_halo;
  const double spread =
      macro_ids.empty()
          ? 0.0
          : std::max(0.0, (fp.width - macro_row_width) /
                              static_cast<double>(macro_ids.size()));
  for (std::size_t m = 0; m < macro_ids.size(); ++m) {
    const InstId id = macro_ids[m];
    const auto [w, h] = macro_wh[m];
    fp.macros.push_back({id, layout::Rect{cursor, opt.macro_halo, cursor + w,
                                          opt.macro_halo + h}});
    fp.positions[static_cast<std::size_t>(id)] = {cursor + w / 2.0,
                                                  opt.macro_halo + h / 2.0};
    cursor += w + 2.0 * opt.macro_halo + spread;
  }

  // ------------------------------------------------ barycentric placement
  // Fixed anchors: macro pins (macro center), primary inputs on the left
  // edge, outputs on the right edge.
  const double cx = fp.width / 2.0;
  const double cy = macro_band + logic_height / 2.0;
  for (std::size_t i = 0; i < n_inst; ++i) {
    const auto id = static_cast<InstId>(i);
    if (!nl.is_live(id)) continue;
    if (!bd.cell(id).is_macro) fp.positions[i] = {cx, cy};
  }

  // Port anchor positions.
  std::vector<std::pair<double, double>> port_pos(nl.nets().size(),
                                                  {-1.0, -1.0});
  {
    int in_count = 0, out_count = 0;
    for (const auto& p : nl.ports())
      (p.dir == netlist::PortDir::kInput ? in_count : out_count)++;
    int in_i = 0, out_i = 0;
    for (const auto& p : nl.ports()) {
      if (p.dir == netlist::PortDir::kInput) {
        port_pos[static_cast<std::size_t>(p.net)] = {
            0.0, fp.height * (in_i + 1.0) / (in_count + 1.0)};
        ++in_i;
      } else {
        port_pos[static_cast<std::size_t>(p.net)] = {
            fp.width, fp.height * (out_i + 1.0) / (out_count + 1.0)};
        ++out_i;
      }
    }
  }

  const MacroPins macro_pins(nl, fp.macros);
  auto endpoint_pos = [&](InstId inst,
                          netlist::PinId pin) -> std::pair<double, double> {
    if (macro_pins.is_macro(inst))
      return macro_pins.pin_pos(inst, bd.pin_name(pin));
    return fp.positions[static_cast<std::size_t>(inst)];
  };

  for (int iter = 0; iter < kRefineIterations; ++iter) {
    for (std::size_t i = 0; i < n_inst; ++i) {
      const auto id = static_cast<InstId>(i);
      if (!nl.is_live(id)) continue;
      if (bd.cell(id).is_macro) continue;  // fixed
      double sx = 0.0, sy = 0.0;
      int n = 0;
      for (const auto& conn : bd.conns(id)) {
        if (conn.net == nl.clock()) continue;  // ideal clock: no pull
        // Pull toward the driver and all other sinks of each connected net.
        const InstId drv = bd.driver_inst(conn.net);
        if (drv >= 0 && drv != id) {
          const auto [px, py] = endpoint_pos(drv, bd.driver(conn.net)->pin);
          sx += px;
          sy += py;
          ++n;
        }
        for (const auto& sink : bd.sinks(conn.net)) {
          if (sink.inst == id) continue;
          const auto [px, py] =
              endpoint_pos(sink.inst, bd.conn_at(sink.conn).pin);
          sx += px;
          sy += py;
          ++n;
        }
        const auto& pp = port_pos[static_cast<std::size_t>(conn.net)];
        if (pp.first >= 0.0) {
          sx += pp.first;
          sy += pp.second;
          ++n;
        }
      }
      if (n == 0) continue;
      double nx = sx / n, ny = sy / n;
      // Clamp into the logic region.
      nx = std::clamp(nx, fp.logic_region.x0, fp.logic_region.x1);
      ny = std::clamp(ny, fp.logic_region.y0, fp.logic_region.y1);
      fp.positions[i] = {nx, ny};
    }
  }

  // ----------------------------------------------------------- extraction
  fp.parasitics.assign(nl.nets().size(), NetParasitics{});
  for (NetId net = 0; net < static_cast<NetId>(nl.nets().size()); ++net) {
    double x0 = 1e9, x1 = -1e9, y0 = 1e9, y1 = -1e9;
    int endpoints = 0;
    auto touch = [&](double x, double y) {
      x0 = std::min(x0, x);
      x1 = std::max(x1, x);
      y0 = std::min(y0, y);
      y1 = std::max(y1, y);
      ++endpoints;
    };
    if (const netlist::BoundConn* drv = bd.driver(net)) {
      const auto [px, py] = endpoint_pos(bd.driver_inst(net), drv->pin);
      touch(px, py);
    }
    for (const auto& sink : bd.sinks(net)) {
      const auto [px, py] =
          endpoint_pos(sink.inst, bd.conn_at(sink.conn).pin);
      touch(px, py);
    }
    const auto& pp = port_pos[static_cast<std::size_t>(net)];
    if (pp.first >= 0.0) touch(pp.first, pp.second);

    auto& para = fp.parasitics[static_cast<std::size_t>(net)];
    if (endpoints >= 2) {
      para.length = (x1 - x0) + (y1 - y0);
      // Minimum escape length even for abutting cells.
      para.length = std::max(para.length, 2e-6);
      para.wire_cap = process.c_wire * para.length;
      para.wire_res = process.r_wire * para.length;
      fp.total_wirelength += para.length;
    }
  }
  return fp;
}

}  // namespace limsynth::place
