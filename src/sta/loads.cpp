#include "sta/loads.hpp"

#include "util/error.hpp"

namespace limsynth::sta {

NetLoads compute_net_loads(const netlist::BoundDesign& bd,
                           const NetLoadOptions& opt) {
  bd.check_fresh();
  const netlist::Netlist& nl = bd.netlist();
  const std::size_t n_nets = nl.nets().size();
  NetLoads out;
  out.load.assign(n_nets, 0.0);
  out.wire_delay.assign(n_nets, 0.0);
  for (netlist::NetId net = 0; net < static_cast<netlist::NetId>(n_nets);
       ++net) {
    // Sink pin capacitances were resolved and summed at bind time.
    const double pins = bd.sink_cap(net);
    double wire_cap = 0.0, wire_res = 0.0;
    if (opt.floorplan != nullptr) {
      wire_cap = opt.floorplan->net(net).wire_cap;
      wire_res = opt.floorplan->net(net).wire_res;
    } else {
      wire_cap = kPrelayoutCapPerSink *
                 static_cast<double>(bd.sinks(net).size());
    }
    const auto n = static_cast<std::size_t>(net);
    out.load[n] = pins + wire_cap + (bd.is_po(net) ? opt.output_load : 0.0);
    out.wire_delay[n] = 0.69 * wire_res * (wire_cap / 2.0 + pins);
  }
  return out;
}

}  // namespace limsynth::sta
