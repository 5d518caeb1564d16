#include "evsim/annotate.hpp"

#include <algorithm>

#include "netlist/sim.hpp"
#include "sta/loads.hpp"
#include "util/error.hpp"

namespace limsynth::evsim {

namespace {

using netlist::BoundConn;
using netlist::BoundDesign;
using netlist::InstId;
using netlist::LibCellId;
using netlist::Netlist;
using netlist::NetId;
using netlist::PinId;

// Input pin order shared with eval_func / netlist::Simulator.
constexpr const char* kInputPins[4] = {"A", "B", "C", "D"};

}  // namespace

TimingAnnotation annotate_delays(const BoundDesign& bd,
                                 const tech::StdCellLib& cells,
                                 const AnnotateOptions& opt) {
  bd.check_fresh();
  const Netlist& nl = bd.netlist();

  sta::NetLoadOptions load_opt;
  load_opt.floorplan = opt.floorplan;
  load_opt.output_load = sta::kOutputLoad;
  const sta::NetLoads loads = sta::compute_net_loads(bd, load_opt);

  // Cell function per LibCellId, resolved once against the StdCellLib
  // (the library holds every drive variant, so this is a per-cell, not
  // per-instance, resolution).
  std::vector<int> func_of(bd.cell_count(), -1);  // -1 = no CellFunc (macro)
  for (std::size_t ci = 0; ci < bd.cell_count(); ++ci) {
    const tech::StdCell* cell =
        cells.find(bd.lib_cell(static_cast<LibCellId>(ci)).name);
    if (cell != nullptr) func_of[ci] = static_cast<int>(cell->func);
  }

  // Interned pin ids for the conventional pin names (kNoPin when the
  // design never uses one).
  PinId in_pid[4];
  for (int k = 0; k < 4; ++k) in_pid[k] = bd.pin_id(kInputPins[k]);
  const PinId d_pid = bd.pin_id("D");
  const PinId q_pid = bd.pin_id("Q");
  const PinId en_pid = bd.pin_id("EN");
  const PinId y_pid = bd.pin_id("Y");

  // STA records the worst slew on each net; reuse it for arc lookups so
  // the delays this engine replays are the ones STA summed. Nets STA
  // never reached (constants) fall back to the default.
  auto slew_of = [&](NetId net) {
    const auto n = static_cast<std::size_t>(net);
    if (opt.sta != nullptr && n < opt.sta->net_slew.size() &&
        n < opt.sta->net_arrival.size() && opt.sta->net_arrival[n] >= 0.0)
      return opt.sta->net_slew[n];
    return sta::kDefaultSlew;
  };
  auto wire_of = [&](NetId net) {
    return loads.wire_delay[static_cast<std::size_t>(net)];
  };
  auto load_of = [&](NetId net) {
    return loads.load[static_cast<std::size_t>(net)];
  };

  TimingAnnotation ann;
  const std::size_t n_inst = bd.instance_count();
  for (std::size_t i = 0; i < n_inst; ++i) {
    const auto id = static_cast<InstId>(i);
    if (!bd.is_live(id)) continue;
    const LibCellId cid = bd.cell_id(id);
    const liberty::LibCell& cell = bd.lib_cell(cid);
    const auto conns = bd.conns(id);

    if (cell.is_macro || cell.sequential) {
      // Launch side: CK -> output arcs. STA adds a net's wire delay on
      // the consumption side, so launch delays carry the arc only.
      if (cell.is_macro) {
        MacroInfo mi;
        mi.inst = id;
        for (const BoundConn& c : conns) {
          if (!c.is_output) continue;
          const liberty::TimingArc* arc = bd.clock_arc(cid, c.slot);
          LIMS_CHECK_MSG(arc != nullptr, "no clock arc to "
                                             << bd.pin_name(c.pin) << " on "
                                             << cell.name);
          mi.outputs.push_back(
              {bd.pin_name(c.pin), c.net,
               to_fs(arc->delay.lookup(sta::kClockSlew, load_of(c.net)))});
        }
        ann.macros.push_back(std::move(mi));
      } else {
        const int func = func_of[static_cast<std::size_t>(cid)];
        LIMS_CHECK_MSG(func >= 0,
                       "unknown cell " << nl.instance(id).cell);
        if (static_cast<tech::CellFunc>(func) != tech::CellFunc::kDff &&
            static_cast<tech::CellFunc>(func) != tech::CellFunc::kDffEn) {
          throw Error(ErrorCode::kInvalidConfig,
                      "event simulation supports DFF/DFFE sequentials only, "
                      "got " + nl.instance(id).cell + " on " +
                          nl.instance(id).name);
        }
        FlopInfo fi;
        fi.inst = id;
        fi.d = bd.pin_net(id, d_pid);
        fi.q = bd.pin_net(id, q_pid);
        LIMS_CHECK_MSG(fi.d != netlist::kNoNet && fi.q != netlist::kNoNet,
                       "flop " << nl.instance(id).name
                               << " missing D/Q pins");
        if (static_cast<tech::CellFunc>(func) == tech::CellFunc::kDffEn) {
          fi.en = bd.pin_net(id, en_pid);
          LIMS_CHECK_MSG(fi.en != netlist::kNoNet,
                         "DFFE " << nl.instance(id).name << " missing EN pin");
        }
        const liberty::TimingArc* arc = nullptr;
        for (const BoundConn& c : conns) {
          if (c.is_output && c.pin == q_pid) {
            arc = bd.clock_arc(cid, c.slot);
            break;
          }
        }
        LIMS_CHECK_MSG(arc != nullptr,
                       "no CK->Q arc on " << cell.name);
        fi.clk_to_q_fs =
            to_fs(arc->delay.lookup(sta::kClockSlew, load_of(fi.q)));
        ann.flops.push_back(fi);
      }
      // Capture side: every constrained input pin is an endpoint. The
      // window folds in the data net's wire delay (STA adds it at the
      // endpoint) and the clock uncertainty.
      for (const BoundConn& c : conns) {
        if (c.is_output) continue;
        if (c.net == nl.clock()) continue;
        const liberty::Constraint* con = bd.constraint(cid, c.slot);
        if (con == nullptr) continue;
        ann.endpoints.push_back(
            {nl.instance(id).name + "/" + bd.pin_name(c.pin), c.net,
             to_fs(wire_of(c.net) + con->setup + sta::kClockUncertainty)});
      }
      continue;
    }

    // Combinational gate (or tie constant).
    const int func = func_of[static_cast<std::size_t>(cid)];
    LIMS_CHECK_MSG(func >= 0, "unknown cell " << nl.instance(id).cell);
    GateInfo gi;
    gi.inst = id;
    gi.func = static_cast<tech::CellFunc>(func);
    gi.nin = tech::cell_func_inputs(gi.func);
    LIMS_CHECK_MSG(gi.nin <= 4, "too many inputs on " << nl.instance(id).cell);
    // One pass over the bound conns resolves the output and each input's
    // position (PinId compares, no string scans).
    int in_slot[4] = {-1, -1, -1, -1};
    int out_slot = -1;
    for (const BoundConn& c : conns) {
      if (c.is_output) {
        if (c.pin == y_pid) {
          gi.out = c.net;
          out_slot = c.slot;
        }
        continue;
      }
      for (int k = 0; k < gi.nin; ++k) {
        if (c.pin == in_pid[k]) {
          gi.in[k] = c.net;
          in_slot[k] = c.slot;
          break;
        }
      }
    }
    LIMS_CHECK_MSG(gi.out != netlist::kNoNet,
                   "gate " << nl.instance(id).name << " missing Y pin");
    const double out_load = load_of(gi.out);
    TimeFs worst = 0;
    std::vector<int> missing;
    for (int k = 0; k < gi.nin; ++k) {
      LIMS_CHECK_MSG(gi.in[k] != netlist::kNoNet,
                     "gate " << nl.instance(id).name << " missing pin "
                             << kInputPins[k]);
      const liberty::TimingArc* arc = bd.arc(cid, in_slot[k], out_slot);
      if (arc == nullptr) {
        missing.push_back(k);  // non-timing pin: pessimize below
        continue;
      }
      gi.delay_fs[k] = to_fs(wire_of(gi.in[k]) +
                             arc->delay.lookup(slew_of(gi.in[k]), out_load));
      worst = std::max(worst, gi.delay_fs[k]);
    }
    for (int k : missing)
      gi.delay_fs[k] = std::max<TimeFs>(worst, to_fs(wire_of(gi.in[k]))) + 1;
    ann.gates.push_back(gi);
  }

  for (const auto& port : nl.ports()) {
    if (port.dir != netlist::PortDir::kOutput) continue;
    ann.endpoints.push_back(
        {"PO " + port.name, port.net, to_fs(sta::kClockUncertainty)});
  }
  return ann;
}

}  // namespace limsynth::evsim
