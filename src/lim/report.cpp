#include "lim/report.hpp"

#include <ostream>

#include "layout/svg.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace limsynth::lim {

void write_timing_report(const FlowReport& rep, std::ostream& os) {
  os << "==== timing report ====\n";
  os << "min period : " << units::format_si(rep.timing.min_period, "s")
     << "  (f_max " << units::format_si(rep.fmax, "Hz") << ")\n";
  os << "endpoint   : " << rep.timing.critical_endpoint << "\n";
  os << "worst hold : " << units::format_si(rep.timing.worst_hold_slack, "s")
     << " at " << rep.timing.hold_endpoint << "\n";
  os << "critical path:\n";
  Table t({"point", "arrival", "slew"});
  for (const auto& pt : rep.timing.critical_path) {
    t.add_row({pt.where, units::format_si(pt.arrival, "s"),
               units::format_si(pt.slew, "s")});
  }
  t.print(os);
}

void write_power_report(const FlowReport& rep, std::ostream& os) {
  os << "==== power report @ "
     << units::format_si(rep.analysis_frequency, "Hz") << " ====\n";
  Table t({"category", "power", "share"});
  const double total = rep.power.total();
  auto row = [&](const char* name, double w) {
    t.add_row({name, units::format_si(w, "W"),
               strformat("%.1f%%", total > 0 ? 100.0 * w / total : 0.0)});
  };
  row("combinational", rep.power.combinational);
  row("sequential", rep.power.sequential);
  row("clock tree", rep.power.clock_tree);
  row("memory macros", rep.power.macro);
  row("glitch", rep.power.glitch);
  row("leakage", rep.power.leakage);
  t.add_separator();
  t.add_row({"total", units::format_si(total, "W"),
             strformat("%.2f pJ/cycle", rep.power.energy_per_cycle * 1e12)});
  t.print(os);
}

void write_qor_report(const netlist::Netlist& nl, const FlowReport& rep,
                      std::ostream& os) {
  os << "==== QoR: " << nl.name() << " ====\n";
  Table t({"metric", "value"});
  t.add_row({"instances", std::to_string(nl.live_instance_count())});
  t.add_row({"nets", std::to_string(nl.nets().size())});
  t.add_row({"cell area", strformat("%.0f um2", rep.synthesis.cell_area * 1e12)});
  t.add_row({"macro area", strformat("%.0f um2", rep.synthesis.macro_area * 1e12)});
  t.add_row({"floorplan", strformat("%.0f um2 (%.1f x %.1f um)",
                                    rep.area * 1e12,
                                    rep.floorplan.width * 1e6,
                                    rep.floorplan.height * 1e6)});
  t.add_row({"wirelength", units::format_si(rep.wirelength, "m")});
  t.add_row({"f_max", units::format_si(rep.fmax, "Hz")});
  t.add_row({"power", units::format_si(rep.power.total(), "W")});
  t.print(os);
}

std::string floorplan_svg(const netlist::Netlist& nl,
                          const liberty::Library& lib,
                          const place::Floorplan& fp) {
  std::vector<layout::Region> regions;
  regions.push_back({"die", layout::Rect{0, 0, fp.width, fp.height},
                     tech::PatternClass::kFill});
  regions.push_back({"logic", fp.logic_region,
                     tech::PatternClass::kLogicRegular});
  for (const auto& m : fp.macros) {
    regions.push_back({nl.instance(m.inst).name, m.rect,
                       tech::PatternClass::kBitcell});
  }
  (void)lib;
  // The die/logic/macros overlap by construction; render back-to-front.
  return layout::to_svg_string(regions);
}

}  // namespace limsynth::lim
