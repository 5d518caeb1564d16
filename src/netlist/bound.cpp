#include "netlist/bound.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace limsynth::netlist {

namespace {

// Base pin name: strips the bus index, "DI[3]" -> "DI".
std::string base_of(const std::string& pin) {
  const auto pos = pin.find('[');
  return pos == std::string::npos ? pin : pin.substr(0, pos);
}

}  // namespace

BoundDesign::BoundDesign(const Netlist& nl, const liberty::Library& lib)
    : nl_(&nl), lib_(&lib), bound_revision_(nl.revision()) {
  const std::size_t n_inst = nl.instance_storage_size();
  const std::size_t n_nets = nl.nets().size();
  const std::size_t n_cells = lib.cells().size();

  // ---------------------------------------------------- per-cell tables
  // Built for every library cell up front: the tables are tiny (slot-count
  // squared pointers) and binding typically touches most of the library.
  tables_.resize(n_cells);
  // Base pin name -> (slot, is_output) per cell, used only during bind.
  std::vector<std::unordered_map<std::string, std::pair<int, bool>>> slot_of(
      n_cells);
  for (std::size_t ci = 0; ci < n_cells; ++ci) {
    const liberty::LibCell& cell = lib.cells()[ci];
    CellTables& t = tables_[ci];
    t.n_in = cell.inputs.size();
    t.n_out = cell.outputs.size();
    t.arcs.assign(t.n_in * t.n_out, nullptr);
    t.clock_arcs.assign(t.n_out, nullptr);
    t.constraints.assign(t.n_in, nullptr);
    auto& slots = slot_of[ci];
    slots.reserve(t.n_in + t.n_out);
    for (std::size_t s = 0; s < t.n_in; ++s)
      slots.emplace(cell.inputs[s].name, std::make_pair(static_cast<int>(s),
                                                        false));
    for (std::size_t s = 0; s < t.n_out; ++s)
      slots.emplace(cell.outputs[s].name, std::make_pair(static_cast<int>(s),
                                                         true));
    const std::string& ck = cell.clock_pin.empty() ? "CK" : cell.clock_pin;
    {
      const auto it = slots.find(ck);
      if (it != slots.end() && !it->second.second)
        t.clock_slot = it->second.first;
    }
    for (const auto& arc : cell.arcs) {
      const auto to = slots.find(arc.to);
      if (to == slots.end() || !to->second.second) continue;
      const auto out_slot = static_cast<std::size_t>(to->second.first);
      if (arc.from == ck) t.clock_arcs[out_slot] = &arc;
      const auto from = slots.find(arc.from);
      if (from == slots.end() || from->second.second) continue;
      t.arcs[static_cast<std::size_t>(from->second.first) * t.n_out +
             out_slot] = &arc;
    }
    for (const auto& con : cell.constraints) {
      const auto it = slots.find(con.pin);
      if (it != slots.end() && !it->second.second)
        t.constraints[static_cast<std::size_t>(it->second.first)] = &con;
    }
  }

  // ------------------------------------------------ instances and conns
  inst_cell_.assign(n_inst, kNoCell);
  inst_conn_range_.assign(n_inst, {0, 0});
  std::size_t total_conns = 0;
  for (std::size_t i = 0; i < n_inst; ++i)
    if (nl.is_live(static_cast<InstId>(i)))
      total_conns += nl.instance(static_cast<InstId>(i)).conns.size();
  conns_.reserve(total_conns);
  inst_pin_sorted_.reserve(total_conns);
  pin_ids_.reserve(64);

  std::string base;  // reused scratch
  for (std::size_t i = 0; i < n_inst; ++i) {
    const auto id = static_cast<InstId>(i);
    if (!nl.is_live(id)) continue;
    ++live_instances_;
    const Instance& inst = nl.instance(id);
    const std::size_t ci = lib.index_of(inst.cell);
    LIMS_CHECK_MSG(ci != liberty::Library::npos,
                   "no cell " << inst.cell << " in library " << lib.name());
    inst_cell_[i] = static_cast<LibCellId>(ci);
    const liberty::LibCell& cell = lib.cells()[ci];
    const auto& slots = slot_of[ci];

    const auto first = static_cast<std::uint32_t>(conns_.size());
    for (const auto& c : inst.conns) {
      BoundConn bc;
      bc.net = c.net;
      // Intern the full pin name.
      const auto [it, inserted] =
          pin_ids_.emplace(c.pin, static_cast<PinId>(pin_names_.size()));
      if (inserted) pin_names_.push_back(c.pin);
      bc.pin = it->second;
      // The cell's pin model is the only source of direction: a pin the
      // library does not model can be neither loaded nor timed.
      base = base_of(c.pin);
      const auto sit = slots.find(base);
      LIMS_CHECK_MSG(sit != slots.end(),
                     "no pin " << c.pin << " on " << cell.name);
      bc.slot = static_cast<std::int16_t>(sit->second.first);
      bc.is_output = sit->second.second;
      if (!bc.is_output) {
        const liberty::PinModel& pm =
            cell.inputs[static_cast<std::size_t>(bc.slot)];
        bc.is_clock = pm.is_clock;
        bc.cap = pm.cap;
      }
      conns_.push_back(bc);
      inst_pin_sorted_.emplace_back(bc.pin, bc.net);
    }
    const auto last = static_cast<std::uint32_t>(conns_.size());
    inst_conn_range_[i] = {first, last};
    std::sort(inst_pin_sorted_.begin() + first,
              inst_pin_sorted_.begin() + last);
  }

  // ------------------------------------------------------- connectivity
  net_driver_.assign(n_nets, SinkRef{-1, 0});
  net_sink_cap_.assign(n_nets, 0.0);
  net_is_po_.assign(n_nets, 0);
  for (const auto& p : nl.ports())
    if (p.dir == PortDir::kOutput)
      net_is_po_[static_cast<std::size_t>(p.net)] = 1;
  {
    std::vector<std::uint32_t> counts(n_nets, 0);
    for (const auto& bc : conns_)
      if (!bc.is_output) ++counts[static_cast<std::size_t>(bc.net)];
    net_sink_range_.resize(n_nets);
    std::uint32_t at = 0;
    for (std::size_t n = 0; n < n_nets; ++n) {
      net_sink_range_[n] = {at, at + counts[n]};
      at += counts[n];
    }
    sink_refs_.resize(at);
    std::vector<std::uint32_t> fill(n_nets, 0);
    for (std::size_t i = 0; i < n_inst; ++i) {
      const auto& r = inst_conn_range_[i];
      for (std::uint32_t g = r.first; g < r.second; ++g) {
        const BoundConn& bc = conns_[g];
        const auto n = static_cast<std::size_t>(bc.net);
        if (bc.is_output) {
          net_driver_[n] = SinkRef{static_cast<InstId>(i), g};
        } else {
          sink_refs_[net_sink_range_[n].first + fill[n]++] =
              SinkRef{static_cast<InstId>(i), g};
          net_sink_cap_[n] += bc.cap;
        }
      }
    }
  }
}

void BoundDesign::check_fresh() const {
  if (nl_->revision() != bound_revision_) {
    LIMS_FAIL(ErrorCode::kStaleBinding,
              "bound design for netlist '"
                  << nl_->name() << "' is stale (bound at revision "
                  << bound_revision_ << ", netlist now at revision "
                  << nl_->revision() << "); rebind before querying");
  }
}

PinId BoundDesign::pin_id(const std::string& name) const {
  const auto it = pin_ids_.find(name);
  return it == pin_ids_.end() ? kNoPin : it->second;
}

NetId BoundDesign::pin_net(InstId inst, PinId pin) const {
  if (pin == kNoPin) return kNoNet;
  const auto& r = inst_conn_range_[static_cast<std::size_t>(inst)];
  const auto first = inst_pin_sorted_.begin() + r.first;
  const auto last = inst_pin_sorted_.begin() + r.second;
  const auto it = std::lower_bound(
      first, last, std::make_pair(pin, kNoNet),
      [](const std::pair<PinId, NetId>& a, const std::pair<PinId, NetId>& b) {
        return a.first < b.first;
      });
  return (it != last && it->first == pin) ? it->second : kNoNet;
}

NetId MacroBindings::pin_net(const Netlist& nl, InstId inst,
                             const std::string& pin) const {
  auto& cache = pin_cache_[inst];
  if (cache.empty()) {
    const Instance& in = nl.instance(inst);
    cache.reserve(in.conns.size());
    for (const auto& c : in.conns) cache.emplace(c.pin, c.net);
  }
  const auto it = cache.find(pin);
  return it == cache.end() ? kNoNet : it->second;
}

}  // namespace limsynth::netlist
