#include "power/power.hpp"

#include "sta/loads.hpp"
#include "util/error.hpp"

namespace limsynth::power {

namespace {

using netlist::BoundConn;
using netlist::BoundDesign;
using netlist::InstId;
using netlist::LibCellId;
using netlist::Netlist;
using netlist::NetId;

/// Slew for an arc lookup: the STA-propagated slew of the arc's input net
/// when available (the clock net carries sta::kClockSlew there), else
/// sta::kDefaultSlew.
double arc_slew(const PowerOptions& opt, NetId from_net) {
  if (opt.sta != nullptr && from_net != netlist::kNoNet) {
    const auto n = static_cast<std::size_t>(from_net);
    if (n < opt.sta->net_slew.size() && opt.sta->net_arrival[n] >= 0.0)
      return opt.sta->net_slew[n];
  }
  return sta::kDefaultSlew;
}

}  // namespace

PowerReport analyze_power(const BoundDesign& bd, const netlist::Activity& act,
                          const PowerOptions& opt) {
  bd.check_fresh();
  const Netlist& nl = bd.netlist();
  LIMS_CHECK_MSG(act.cycles > 0, "run the simulator before power analysis");
  LIMS_CHECK_MSG(act.toggles.size() == nl.nets().size() &&
                     act.glitch_toggles.size() == nl.nets().size(),
                 "activity record does not match the netlist");
  PowerReport rep;
  const double f = opt.frequency;

  // Per-net total load (wire + sink pins), as in STA.
  sta::NetLoadOptions load_opt;
  load_opt.floorplan = opt.floorplan;
  const sta::NetLoads loads = compute_net_loads(bd, load_opt);

  const double cycles = static_cast<double>(act.cycles);
  for (std::size_t i = 0; i < bd.instance_count(); ++i) {
    const auto id = static_cast<InstId>(i);
    if (!bd.is_live(id)) continue;
    const LibCellId cid = bd.cell_id(id);
    const liberty::LibCell& cell = bd.lib_cell(cid);
    const auto conns = bd.conns(id);
    rep.leakage += cell.leakage;

    if (cell.is_macro) {
      // Brick: fixed energy per accessed cycle + output-arc energy below.
      const double access_rate =
          static_cast<double>(act.macro_access_count(id)) / cycles;
      rep.macro += cell.clock_energy * access_rate * f;
    }

    // Clock pin loading (ideal clock network, vdd-rail powered):
    // one full swing pair per cycle -> C * Vdd^2 * f.
    for (const auto& pin : cell.inputs) {
      if (!pin.is_clock) continue;
      rep.clock_tree += pin.cap * opt.vdd * opt.vdd * f;
    }

    const bool launch_from_clock = cell.sequential || cell.is_macro;
    // Clock input net of this instance (for the arc-slew lookup).
    NetId clock_net = netlist::kNoNet;
    if (launch_from_clock) {
      for (const BoundConn& c : conns) {
        if (c.is_clock) {
          clock_net = c.net;
          break;
        }
      }
    }

    // Output switching: activity * per-transition arc energy.
    for (const BoundConn& c : conns) {
      if (!c.is_output) continue;
      const double total_rate = act.rate(c.net);  // toggles per cycle
      if (total_rate <= 0.0) continue;
      const liberty::TimingArc* arc = nullptr;
      NetId from_net = netlist::kNoNet;
      if (launch_from_clock) {
        arc = bd.clock_arc(cid, c.slot);
        from_net = clock_net;
      } else {
        // Representative arc: the first input (in conn order) with a
        // timing arc to this output.
        for (const BoundConn& in : conns) {
          if (in.is_output) continue;
          arc = bd.arc(cid, in.slot, c.slot);
          if (arc != nullptr) {
            from_net = in.net;
            break;
          }
        }
      }
      if (arc == nullptr) continue;
      const double e_per_toggle =
          arc->energy.lookup(arc_slew(opt, from_net),
                             loads.load[static_cast<std::size_t>(c.net)]);
      const double glitch_rate = act.glitch_rate(c.net);
      rep.glitch += glitch_rate * e_per_toggle * f;
      const double watts = (total_rate - glitch_rate) * e_per_toggle * f;
      if (cell.is_macro) rep.macro += watts;
      else if (cell.sequential) rep.sequential += watts;
      else rep.combinational += watts;
    }
  }

  rep.energy_per_cycle = rep.total() / f;
  return rep;
}

PowerReport analyze_power(const BoundDesign& bd, const netlist::Simulator& sim,
                          const PowerOptions& opt) {
  return analyze_power(bd, netlist::Activity::from_simulator(sim), opt);
}

}  // namespace limsynth::power
