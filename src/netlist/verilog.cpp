#include "netlist/verilog.hpp"

#include <cctype>
#include <map>
#include <ostream>

namespace limsynth::netlist {

namespace {

/// Verilog-legal identifier for a net/instance name. Bus-style names like
/// "raddr[3]" become "raddr_3_"; other specials become '_'.
std::string sanitize(const std::string& name) {
  std::string out;
  out.reserve(name.size() + 2);
  for (char ch : name) {
    if (std::isalnum(static_cast<unsigned char>(ch)) || ch == '_') {
      out += ch;
    } else {
      out += '_';
    }
  }
  if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0])))
    out = "n_" + out;
  return out;
}

}  // namespace

void write_verilog(const Netlist& nl, std::ostream& os) {
  // Unique sanitized net names.
  std::vector<std::string> net_name(nl.nets().size());
  std::map<std::string, int> used;
  for (std::size_t i = 0; i < nl.nets().size(); ++i) {
    std::string base = sanitize(nl.nets()[i].name);
    const int count = used[base]++;
    if (count > 0) base += "_dup" + std::to_string(count);
    net_name[i] = base;
  }

  os << "// limsynth structural netlist\n";
  os << "module " << sanitize(nl.name()) << " (";
  bool first = true;
  for (const auto& p : nl.ports()) {
    if (!first) os << ", ";
    first = false;
    os << sanitize(p.name);
  }
  os << ");\n";

  for (const auto& p : nl.ports()) {
    os << "  " << (p.dir == PortDir::kInput ? "input" : "output") << ' '
       << sanitize(p.name) << ";\n";
  }
  // Port-to-net aliases and internal wires.
  std::vector<bool> is_port_net(nl.nets().size(), false);
  for (const auto& p : nl.ports())
    is_port_net[static_cast<std::size_t>(p.net)] = true;
  for (std::size_t i = 0; i < nl.nets().size(); ++i) {
    if (!is_port_net[i]) os << "  wire " << net_name[i] << ";\n";
  }
  for (const auto& p : nl.ports()) {
    const auto n = static_cast<std::size_t>(p.net);
    // A port whose net has its name is that net already: redeclaring it
    // as a wire or assigning it to itself is not legal Verilog.
    if (net_name[n] == sanitize(p.name)) continue;
    if (p.dir == PortDir::kInput) {
      os << "  wire " << net_name[n] << ";\n";
      os << "  assign " << net_name[n] << " = " << sanitize(p.name) << ";\n";
    } else {
      os << "  assign " << sanitize(p.name) << " = " << net_name[n] << ";\n";
    }
  }

  std::map<std::string, int> inst_used;
  for (std::size_t i = 0; i < nl.instance_storage_size(); ++i) {
    const auto id = static_cast<InstId>(i);
    if (!nl.is_live(id)) continue;
    const Instance& inst = nl.instance(id);
    std::string iname = sanitize(inst.name);
    const int count = inst_used[iname]++;
    if (count > 0) iname += "_dup" + std::to_string(count);
    os << "  " << sanitize(inst.cell) << ' ' << iname << " (";
    for (std::size_t c = 0; c < inst.conns.size(); ++c) {
      if (c) os << ", ";
      os << '.' << sanitize(inst.conns[c].pin) << '('
         << net_name[static_cast<std::size_t>(inst.conns[c].net)] << ')';
    }
    os << ");\n";
  }
  os << "endmodule\n";
}

}  // namespace limsynth::netlist
