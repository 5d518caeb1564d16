// Gate-level netlist IR — the "gate-level netlist" stage of the paper's
// flow, where memory bricks appear as macro instances next to standard
// cells and all of it is handed to physical synthesis together.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/error.hpp"

namespace limsynth::netlist {

using NetId = int;
using InstId = int;

inline constexpr NetId kNoNet = -1;

struct Connection {
  std::string pin;  // pin name on the cell (e.g. "A", "CK", "DWL[3]")
  NetId net = kNoNet;
};

struct Instance {
  std::string name;
  std::string cell;  // LibCell name in the design's library
  std::vector<Connection> conns;

  const NetId* find_pin(const std::string& pin) const {
    for (const auto& c : conns)
      if (c.pin == pin) return &c.net;
    return nullptr;
  }
};

struct Net {
  std::string name;
};

enum class PortDir { kInput, kOutput };

struct Port {
  std::string name;
  PortDir dir = PortDir::kInput;
  NetId net = kNoNet;
};

/// Flat single-clock-domain netlist. Instances reference library cells by
/// name; bus pins use "NAME[i]" pin names against the library's bus pin
/// model (see liberty::LibCell).
class Netlist {
 public:
  explicit Netlist(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  NetId add_net(const std::string& name);
  /// Auto-named internal net (n<k>).
  NetId make_net();
  /// Bus of nets named base[0..width).
  std::vector<NetId> make_bus(const std::string& base, int width);

  InstId add_instance(const std::string& name, const std::string& cell,
                      std::vector<Connection> conns);
  /// Removes an instance (marks dead; iteration skips it).
  void remove_instance(InstId inst);

  void add_port(const std::string& name, PortDir dir, NetId net);
  /// Designates the clock net (connected to all CK pins).
  void set_clock(NetId net) { clock_ = net; }
  NetId clock() const { return clock_; }

  const std::vector<Net>& nets() const { return nets_; }
  const std::vector<Port>& ports() const { return ports_; }
  std::size_t live_instance_count() const;

  const Instance& instance(InstId id) const;
  Instance& instance(InstId id);
  bool is_live(InstId id) const { return !dead_[static_cast<std::size_t>(id)]; }
  std::size_t instance_storage_size() const { return instances_.size(); }

  const std::string& net_name(NetId net) const;
  NetId find_net(const std::string& name) const;

  /// Monotonic edit counter: bumped by every structural mutation (add/remove
  /// of nets, instances, ports, and mutable instance() access).
  /// BoundDesign captures it at bind time to detect stale bindings.
  std::uint64_t revision() const { return revision_; }

  /// Pre-sizes the net storage and name index for `nets` nets.
  void reserve_nets(std::size_t nets) {
    nets_.reserve(nets);
    net_index_.reserve(nets);
  }

 private:
  std::string name_;
  std::vector<Net> nets_;
  std::vector<Instance> instances_;
  std::vector<bool> dead_;
  std::vector<Port> ports_;
  NetId clock_ = kNoNet;
  std::unordered_map<std::string, NetId> net_index_;
  int auto_net_counter_ = 0;
  std::uint64_t revision_ = 0;
};

}  // namespace limsynth::netlist
