#include "netlist/netlist.hpp"

#include <cstdio>

namespace limsynth::netlist {

NetId Netlist::add_net(const std::string& name) {
  LIMS_CHECK_MSG(net_index_.find(name) == net_index_.end(),
                 "duplicate net " << name);
  const NetId id = static_cast<NetId>(nets_.size());
  nets_.push_back(Net{name});
  net_index_.emplace(nets_.back().name, id);
  ++revision_;
  return id;
}

NetId Netlist::make_net() {
  // Build "n<k>" once into a preallocated buffer instead of concatenating
  // temporaries per call.
  char buf[24];
  const int len = std::snprintf(buf, sizeof buf, "n%d", auto_net_counter_++);
  return add_net(std::string(buf, static_cast<std::size_t>(len)));
}

std::vector<NetId> Netlist::make_bus(const std::string& base, int width) {
  LIMS_CHECK(width >= 1);
  std::vector<NetId> bus;
  bus.reserve(static_cast<std::size_t>(width));
  net_index_.reserve(net_index_.size() + static_cast<std::size_t>(width));
  // Reuse one name buffer: keep "base[" and rewrite only the index suffix.
  std::string name = base;
  name += '[';
  const std::size_t stem = name.size();
  for (int i = 0; i < width; ++i) {
    name.resize(stem);
    name += std::to_string(i);
    name += ']';
    bus.push_back(add_net(name));
  }
  return bus;
}

InstId Netlist::add_instance(const std::string& name, const std::string& cell,
                             std::vector<Connection> conns) {
  for (const auto& c : conns)
    LIMS_CHECK_MSG(c.net >= 0 && c.net < static_cast<NetId>(nets_.size()),
                   "instance " << name << " pin " << c.pin << " unconnected");
  const InstId id = static_cast<InstId>(instances_.size());
  instances_.push_back(Instance{name, cell, std::move(conns)});
  dead_.push_back(false);
  ++revision_;
  return id;
}

void Netlist::remove_instance(InstId inst) {
  LIMS_CHECK(inst >= 0 && inst < static_cast<InstId>(instances_.size()));
  dead_[static_cast<std::size_t>(inst)] = true;
  ++revision_;
}

void Netlist::add_port(const std::string& name, PortDir dir, NetId net) {
  ports_.push_back(Port{name, dir, net});
  ++revision_;
}

std::size_t Netlist::live_instance_count() const {
  std::size_t n = 0;
  for (bool d : dead_)
    if (!d) ++n;
  return n;
}

const Instance& Netlist::instance(InstId id) const {
  LIMS_CHECK(id >= 0 && id < static_cast<InstId>(instances_.size()));
  return instances_[static_cast<std::size_t>(id)];
}

Instance& Netlist::instance(InstId id) {
  LIMS_CHECK(id >= 0 && id < static_cast<InstId>(instances_.size()));
  // Handing out a mutable reference may change connectivity, so any
  // outstanding BoundDesign becomes suspect.
  ++revision_;
  return instances_[static_cast<std::size_t>(id)];
}

const std::string& Netlist::net_name(NetId net) const {
  LIMS_CHECK(net >= 0 && net < static_cast<NetId>(nets_.size()));
  return nets_[static_cast<std::size_t>(net)].name;
}

NetId Netlist::find_net(const std::string& name) const {
  const auto it = net_index_.find(name);
  return it == net_index_.end() ? kNoNet : it->second;
}

}  // namespace limsynth::netlist
