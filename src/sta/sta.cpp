#include "sta/sta.hpp"

#include <algorithm>
#include <deque>

#include "sta/loads.hpp"
#include "util/error.hpp"

namespace limsynth::sta {

namespace {

using netlist::BoundConn;
using netlist::BoundDesign;
using netlist::InstId;
using netlist::LibCellId;
using netlist::Netlist;
using netlist::NetId;

/// Primary-input timing: latest arrival, earliest arrival (min input
/// delay, for hold) and slew. Tie-cell outputs also start at kInputSlew.
constexpr double kInputArrival = 0.0;        // s
constexpr double kInputMinArrival = 30e-12;  // s
constexpr double kInputSlew = 20e-12;        // s

}  // namespace

StaResult run_sta(const BoundDesign& bd, const StaOptions& opt) {
  bd.check_fresh();
  const Netlist& nl = bd.netlist();
  const std::size_t n_nets = nl.nets().size();
  const std::size_t n_inst = bd.instance_count();

  StaResult res;
  res.net_arrival.assign(n_nets, -1.0);  // -1 = not yet computed
  res.net_slew.assign(n_nets, kInputSlew);
  // Earliest arrivals for hold analysis, computed alongside the latest.
  std::vector<double> min_arrival(n_nets, -1.0);

  // ------------------------------------------------------------- loads
  NetLoadOptions load_opt;
  load_opt.floorplan = opt.floorplan;
  load_opt.output_load = kOutputLoad;
  const NetLoads loads = compute_net_loads(bd, load_opt);
  const std::vector<double>& net_load = loads.load;
  const std::vector<double>& net_wire_delay = loads.wire_delay;

  // --------------------------------------------------------- classify
  // A net is "ready" once its arrival is final. Start points: primary
  // inputs, constant (tie) outputs, sequential/macro outputs.
  std::vector<std::pair<InstId, NetId>> net_pred(
      n_nets, {-1, netlist::kNoNet});  // for path tracing

  auto set_arrival = [&](NetId net, double arr, double slew,
                         double min_arr = -1.0) {
    res.net_arrival[static_cast<std::size_t>(net)] = arr;
    res.net_slew[static_cast<std::size_t>(net)] = slew;
    min_arrival[static_cast<std::size_t>(net)] = min_arr < 0.0 ? arr : min_arr;
  };

  for (const auto& port : nl.ports()) {
    if (port.dir == netlist::PortDir::kInput)
      set_arrival(port.net, kInputArrival, kInputSlew, kInputMinArrival);
  }
  if (nl.clock() != netlist::kNoNet)
    set_arrival(nl.clock(), 0.0, kClockSlew);

  std::vector<bool> is_seq(n_inst, false);
  for (std::size_t i = 0; i < n_inst; ++i) {
    const auto id = static_cast<InstId>(i);
    if (!bd.is_live(id)) continue;
    const LibCellId cid = bd.cell_id(id);
    const liberty::LibCell& cell = bd.lib_cell(cid);
    const auto conns = bd.conns(id);
    if (cell.sequential || cell.is_macro) {
      is_seq[i] = true;
      // Launch: CK -> each output via its arc at the output net's load.
      for (const BoundConn& c : conns) {
        if (!c.is_output) continue;
        const liberty::TimingArc* arc = bd.clock_arc(cid, c.slot);
        LIMS_CHECK_MSG(arc != nullptr, "no clock arc to " << bd.pin_name(c.pin)
                                                          << " on "
                                                          << cell.name);
        const double load = net_load[static_cast<std::size_t>(c.net)];
        set_arrival(c.net, arc->delay.lookup(kClockSlew, load),
                    arc->out_slew.lookup(kClockSlew, load));
        net_pred[static_cast<std::size_t>(c.net)] = {id, netlist::kNoNet};
      }
    } else if (conns.size() == 1 && conns[0].is_output) {
      // Tie cell: constant.
      set_arrival(conns[0].net, 0.0, kInputSlew);
      net_pred[static_cast<std::size_t>(conns[0].net)] = {id, netlist::kNoNet};
    }
  }

  // ----------------------------------------------- forward propagation
  // Kahn-style: repeatedly evaluate combinational gates whose inputs are
  // all ready. A worklist over instances keyed by remaining input count.
  std::vector<int> unready_inputs(n_inst, 0);
  std::vector<std::vector<InstId>> waiters(n_nets);
  std::deque<InstId> ready;
  for (std::size_t i = 0; i < n_inst; ++i) {
    const auto id = static_cast<InstId>(i);
    if (!bd.is_live(id) || is_seq[i]) continue;
    int pending = 0;
    for (const BoundConn& c : bd.conns(id)) {
      if (c.is_output) continue;
      if (res.net_arrival[static_cast<std::size_t>(c.net)] < 0.0) {
        ++pending;
        waiters[static_cast<std::size_t>(c.net)].push_back(id);
      }
    }
    unready_inputs[i] = pending;
    if (pending == 0) ready.push_back(id);
  }

  std::size_t processed = 0;
  std::vector<bool> done(n_inst, false);
  while (!ready.empty()) {
    const InstId id = ready.front();
    ready.pop_front();
    if (done[static_cast<std::size_t>(id)]) continue;
    done[static_cast<std::size_t>(id)] = true;
    ++processed;
    const LibCellId cid = bd.cell_id(id);
    const auto conns = bd.conns(id);

    for (const BoundConn& out : conns) {
      if (!out.is_output) continue;
      const double load = net_load[static_cast<std::size_t>(out.net)];
      double worst_arr = 0.0, worst_slew = kInputSlew;
      double best_arr = 1e30;
      NetId worst_in = netlist::kNoNet;
      bool any_input = false;
      for (const BoundConn& in : conns) {
        if (in.is_output) continue;
        any_input = true;
        const liberty::TimingArc* arc = bd.arc(cid, in.slot, out.slot);
        if (arc == nullptr) continue;  // non-timing pin
        const auto in_net = static_cast<std::size_t>(in.net);
        const double arr_in =
            std::max(0.0, res.net_arrival[in_net]) + net_wire_delay[in_net];
        const double slew_in = res.net_slew[in_net];
        const double delay = arc->delay.lookup(slew_in, load);
        const double arr = arr_in + delay;
        if (arr >= worst_arr) {
          worst_arr = arr;
          worst_slew = arc->out_slew.lookup(slew_in, load);
          worst_in = in.net;
        }
        best_arr = std::min(
            best_arr, std::max(0.0, min_arrival[in_net]) + delay);
      }
      if (!any_input) {
        worst_arr = 0.0;  // constant generator
        best_arr = 0.0;
      }
      if (best_arr > 1e29) best_arr = worst_arr;
      set_arrival(out.net, worst_arr, worst_slew, best_arr);
      net_pred[static_cast<std::size_t>(out.net)] = {id, worst_in};
      // Wake waiters.
      for (InstId w : waiters[static_cast<std::size_t>(out.net)]) {
        if (--unready_inputs[static_cast<std::size_t>(w)] == 0)
          ready.push_back(w);
      }
    }
  }

  std::size_t comb_total = 0;
  for (std::size_t i = 0; i < n_inst; ++i)
    if (bd.is_live(static_cast<InstId>(i)) && !is_seq[i]) ++comb_total;
  LIMS_CHECK_MSG(processed == comb_total,
                 "STA: combinational cycle ("
                     << processed << " of " << comb_total
                     << " gates reached)");

  // ----------------------------------------------------------- endpoints
  double worst = 0.0;
  std::string worst_name = "(none)";
  NetId worst_net = netlist::kNoNet;

  auto consider = [&](double t, const std::string& name, NetId net) {
    if (t > worst) {
      worst = t;
      worst_name = name;
      worst_net = net;
    }
  };

  double worst_hold = 1e30;
  for (std::size_t i = 0; i < n_inst; ++i) {
    const auto id = static_cast<InstId>(i);
    if (!bd.is_live(id) || !is_seq[i]) continue;
    const LibCellId cid = bd.cell_id(id);
    for (const BoundConn& c : bd.conns(id)) {
      if (c.is_output) continue;
      const liberty::Constraint* con = bd.constraint(cid, c.slot);
      if (con == nullptr) continue;
      const auto net = static_cast<std::size_t>(c.net);
      if (res.net_arrival[net] < 0.0) continue;  // unreached (constant)
      const double t = res.net_arrival[net] + net_wire_delay[net] +
                       con->setup + kClockUncertainty;
      consider(t, nl.instance(id).name + "/" + bd.pin_name(c.pin), c.net);
      // Hold: earliest same-edge arrival must exceed the hold window.
      const double hold_slack =
          min_arrival[net] - (con->hold + 0.5 * kClockUncertainty);
      if (hold_slack < worst_hold) {
        worst_hold = hold_slack;
        res.hold_endpoint = nl.instance(id).name + "/" + bd.pin_name(c.pin);
      }
    }
  }
  res.worst_hold_slack = worst_hold > 1e29 ? 0.0 : worst_hold;
  for (const auto& port : nl.ports()) {
    if (port.dir != netlist::PortDir::kOutput) continue;
    const auto net = static_cast<std::size_t>(port.net);
    if (res.net_arrival[net] < 0.0) continue;
    consider(res.net_arrival[net] + kClockUncertainty, "PO " + port.name,
             port.net);
  }

  res.min_period = worst;
  res.critical_endpoint = worst_name;

  // ------------------------------------------------------------ traceback
  NetId cur = worst_net;
  int guard = 0;
  while (cur != netlist::kNoNet && guard++ < 10000) {
    const auto n = static_cast<std::size_t>(cur);
    const auto& [inst, prev_net] = net_pred[n];
    PathPoint pt;
    pt.where = nl.net_name(cur);
    if (inst >= 0)
      pt.where += " (" + nl.instance(inst).cell + ")";
    pt.arrival = res.net_arrival[n];
    pt.slew = res.net_slew[n];
    res.critical_path.push_back(pt);
    if (inst < 0) break;
    cur = prev_net;
  }
  std::reverse(res.critical_path.begin(), res.critical_path.end());
  return res;
}

}  // namespace limsynth::sta
