#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "netlist/bound.hpp"
#include "netlist/generators.hpp"
#include "netlist/netlist.hpp"
#include "netlist/sim.hpp"
#include "netlist/verilog.hpp"
#include "tech/process.hpp"
#include "util/rng.hpp"

namespace limsynth::netlist {
namespace {

tech::StdCellLib cells() { return tech::StdCellLib(tech::default_process()); }

/// One-cell library: INV_X1 with input A and output Y.
liberty::Library inv_library() {
  liberty::LibCell inv;
  inv.name = "INV_X1";
  inv.inputs = {{"A", 1e-15}};
  inv.outputs = {{"Y"}};
  liberty::Library lib("inv");
  lib.add(std::move(inv));
  return lib;
}

TEST(Netlist, NetAndInstanceBookkeeping) {
  const liberty::Library lib = inv_library();
  Netlist nl("t");
  const NetId a = nl.add_net("a");
  const NetId y = nl.add_net("y");
  EXPECT_THROW(nl.add_net("a"), Error);
  const InstId g = nl.add_instance("g0", "INV_X1", {{"A", a}, {"Y", y}});
  EXPECT_TRUE(nl.is_live(g));
  {
    const BoundDesign bd(nl, lib);
    EXPECT_EQ(bd.driver_inst(y), g);
    ASSERT_EQ(bd.sinks(a).size(), 1u);
    EXPECT_EQ(bd.sinks(a)[0].inst, g);
    EXPECT_EQ(bd.pin_name(bd.conn_at(bd.sinks(a)[0].conn).pin), "A");
  }
  nl.remove_instance(g);
  EXPECT_FALSE(nl.is_live(g));
  const BoundDesign bd(nl, lib);
  EXPECT_EQ(bd.driver_inst(y), -1);
  EXPECT_TRUE(bd.sinks(a).empty());
}

TEST(Netlist, BusAndPorts) {
  Netlist nl("t");
  const auto bus = nl.make_bus("d", 4);
  EXPECT_EQ(bus.size(), 4u);
  EXPECT_EQ(nl.net_name(bus[2]), "d[2]");
  EXPECT_EQ(nl.find_net("d[3]"), bus[3]);
  EXPECT_EQ(nl.find_net("nope"), kNoNet);
  nl.add_port("d2", PortDir::kInput, bus[2]);
  nl.add_port("d3", PortDir::kOutput, bus[3]);
  ASSERT_EQ(nl.ports().size(), 2u);
  EXPECT_EQ(nl.ports()[0].net, bus[2]);
  EXPECT_EQ(nl.ports()[0].dir, PortDir::kInput);
  const liberty::Library lib = inv_library();
  const BoundDesign bd(nl, lib);
  EXPECT_FALSE(bd.is_po(bus[2]));
  EXPECT_TRUE(bd.is_po(bus[3]));
}

TEST(Netlist, RevisionTracksStructuralEdits) {
  const liberty::Library lib = inv_library();
  Netlist nl("t");
  const std::uint64_t r0 = nl.revision();
  const NetId a = nl.add_net("a");
  EXPECT_GT(nl.revision(), r0);
  const NetId y = nl.add_net("y");
  const InstId g = nl.add_instance("g0", "INV_X1", {{"A", a}, {"Y", y}});
  const std::uint64_t r1 = nl.revision();

  // Const reads, binding included, never advance the revision...
  const Netlist& cnl = nl;
  (void)cnl.instance(g);
  const BoundDesign bd(cnl, lib);
  (void)bd.sinks(a);
  EXPECT_EQ(nl.revision(), r1);
  // ...but a mutable instance() access is a potential structural edit.
  (void)nl.instance(g);
  EXPECT_GT(nl.revision(), r1);

  const std::uint64_t r2 = nl.revision();
  nl.remove_instance(g);
  EXPECT_GT(nl.revision(), r2);
}

TEST(Netlist, BusAndAutoNetNamingIndexed) {
  Netlist nl("t");
  nl.reserve_nets(64);
  const auto bus = nl.make_bus("data", 12);
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(nl.net_name(bus[static_cast<std::size_t>(i)]),
              "data[" + std::to_string(i) + "]");
    EXPECT_EQ(nl.find_net(nl.net_name(bus[static_cast<std::size_t>(i)])),
              bus[static_cast<std::size_t>(i)]);
  }
  // Auto-generated names stay unique and land in the name index too.
  const NetId n0 = nl.make_net();
  const NetId n1 = nl.make_net();
  EXPECT_NE(nl.net_name(n0), nl.net_name(n1));
  EXPECT_EQ(nl.find_net(nl.net_name(n0)), n0);
  EXPECT_EQ(nl.find_net(nl.net_name(n1)), n1);
}

// Exhaustive truth-table checks for the generators through the simulator.
class GenSim : public ::testing::Test {
 protected:
  GenSim() : nl_("t"), b_(nl_, "g"), lib_(cells()) {}

  void init_inputs(int n) {
    for (int i = 0; i < n; ++i) inputs_.push_back(nl_.add_net("in" + std::to_string(i)));
  }
  Simulator make_sim() { return Simulator(nl_, lib_); }

  Netlist nl_;
  Builder b_;
  tech::StdCellLib lib_;
  std::vector<NetId> inputs_;
};

TEST_F(GenSim, BasicGatesTruthTables) {
  init_inputs(2);
  const NetId y_and = b_.and2(inputs_[0], inputs_[1]);
  const NetId y_or = b_.or2(inputs_[0], inputs_[1]);
  const NetId y_xor = b_.xor2(inputs_[0], inputs_[1]);
  const NetId y_nand = b_.nand2(inputs_[0], inputs_[1]);
  Simulator sim = make_sim();
  for (int v = 0; v < 4; ++v) {
    sim.set_input(inputs_[0], v & 1);
    sim.set_input(inputs_[1], (v >> 1) & 1);
    sim.settle();
    const bool a = v & 1, b = (v >> 1) & 1;
    EXPECT_EQ(sim.value(y_and), a && b);
    EXPECT_EQ(sim.value(y_or), a || b);
    EXPECT_EQ(sim.value(y_xor), a != b);
    EXPECT_EQ(sim.value(y_nand), !(a && b));
  }
}

TEST_F(GenSim, DecoderOneHot) {
  init_inputs(4);
  const auto onehot = b_.decoder(inputs_);
  ASSERT_EQ(onehot.size(), 16u);
  Simulator sim = make_sim();
  for (int code = 0; code < 16; ++code) {
    sim.set_bus(inputs_, static_cast<std::uint64_t>(code));
    sim.settle();
    for (int i = 0; i < 16; ++i)
      EXPECT_EQ(sim.value(onehot[static_cast<std::size_t>(i)]), i == code)
          << "code " << code << " line " << i;
  }
}

TEST_F(GenSim, DecoderEnableGates) {
  init_inputs(3);
  const NetId en = nl_.add_net("en");
  const auto onehot = b_.decoder(inputs_, en);
  Simulator sim = make_sim();
  sim.set_bus(inputs_, 5);
  sim.set_input(en, false);
  sim.settle();
  for (const NetId line : onehot) EXPECT_FALSE(sim.value(line));
  sim.set_input(en, true);
  sim.settle();
  EXPECT_TRUE(sim.value(onehot[5]));
}

TEST_F(GenSim, AdderExhaustive4Bit) {
  init_inputs(8);
  const std::vector<NetId> a(inputs_.begin(), inputs_.begin() + 4);
  const std::vector<NetId> b(inputs_.begin() + 4, inputs_.end());
  NetId cout = kNoNet;
  const auto sum = b_.add(a, b, kNoNet, &cout);
  Simulator sim = make_sim();
  for (int x = 0; x < 16; ++x) {
    for (int y = 0; y < 16; ++y) {
      sim.set_bus(a, static_cast<std::uint64_t>(x));
      sim.set_bus(b, static_cast<std::uint64_t>(y));
      sim.settle();
      const auto got = sim.bus_value(sum) | (sim.value(cout) ? 16u : 0u);
      EXPECT_EQ(got, static_cast<std::uint64_t>(x + y));
    }
  }
}

TEST_F(GenSim, MultiplierRandom) {
  init_inputs(12);
  const std::vector<NetId> a(inputs_.begin(), inputs_.begin() + 6);
  const std::vector<NetId> b(inputs_.begin() + 6, inputs_.end());
  const auto prod = b_.multiply(a, b);
  ASSERT_EQ(prod.size(), 12u);
  Simulator sim = make_sim();
  Rng rng(3);
  for (int trial = 0; trial < 60; ++trial) {
    const auto x = rng.below(64), y = rng.below(64);
    sim.set_bus(a, x);
    sim.set_bus(b, y);
    sim.settle();
    EXPECT_EQ(sim.bus_value(prod), x * y) << x << "*" << y;
  }
}

TEST_F(GenSim, ComparatorsExhaustive) {
  init_inputs(8);
  const std::vector<NetId> a(inputs_.begin(), inputs_.begin() + 4);
  const std::vector<NetId> b(inputs_.begin() + 4, inputs_.end());
  const NetId lt = b_.less_than(a, b);
  Simulator sim = make_sim();
  for (int x = 0; x < 16; ++x) {
    for (int y = 0; y < 16; ++y) {
      sim.set_bus(a, static_cast<std::uint64_t>(x));
      sim.set_bus(b, static_cast<std::uint64_t>(y));
      sim.settle();
      EXPECT_EQ(sim.value(lt), x < y);
    }
  }
}

TEST_F(GenSim, PriorityEncoder) {
  init_inputs(4);
  NetId any = kNoNet;
  const auto grants = b_.priority(inputs_, &any);
  Simulator sim = make_sim();
  for (int v = 0; v < 16; ++v) {
    sim.set_bus(inputs_, static_cast<std::uint64_t>(v));
    sim.settle();
    EXPECT_EQ(sim.value(any), v != 0);
    int expected = -1;
    for (int i = 0; i < 4; ++i)
      if ((v >> i) & 1) {
        expected = i;
        break;
      }
    for (int i = 0; i < 4; ++i)
      EXPECT_EQ(sim.value(grants[static_cast<std::size_t>(i)]), i == expected);
  }
}

TEST_F(GenSim, OneHotMux) {
  init_inputs(8);
  const std::vector<NetId> sel(inputs_.begin(), inputs_.begin() + 4);
  const std::vector<NetId> data(inputs_.begin() + 4, inputs_.end());
  const NetId y = b_.onehot_mux(sel, data);
  Simulator sim = make_sim();
  Rng rng(5);
  for (int trial = 0; trial < 32; ++trial) {
    const int hot = static_cast<int>(rng.below(4));
    const auto d = rng.below(16);
    sim.set_bus(sel, std::uint64_t{1} << hot);
    sim.set_bus(data, d);
    sim.settle();
    EXPECT_EQ(sim.value(y), (d >> hot) & 1);
  }
}

TEST_F(GenSim, RegistersCaptureOnEdge) {
  init_inputs(2);
  const NetId clk = nl_.add_net("clk");
  nl_.set_clock(clk);
  const auto q = b_.registers(inputs_, clk);
  Simulator sim = make_sim();
  sim.set_bus(inputs_, 3);
  sim.settle();
  EXPECT_EQ(sim.bus_value(q), 0u);  // not yet clocked
  sim.clock_edge();
  EXPECT_EQ(sim.bus_value(q), 3u);
  sim.set_bus(inputs_, 1);
  sim.settle();
  EXPECT_EQ(sim.bus_value(q), 3u);  // holds until next edge
  sim.clock_edge();
  EXPECT_EQ(sim.bus_value(q), 1u);
}

TEST_F(GenSim, ActivityCounting) {
  init_inputs(1);
  const NetId y = b_.inv(inputs_[0]);
  Simulator sim = make_sim();
  const NetId clk = nl_.add_net("clk");
  (void)clk;
  sim.settle();
  const auto before = sim.toggles(y);
  sim.set_input(inputs_[0], true);
  sim.settle();
  sim.set_input(inputs_[0], false);
  sim.settle();
  EXPECT_EQ(sim.toggles(y), before + 2);
}

std::string verilog_text(const Netlist& nl) {
  std::ostringstream os;
  write_verilog(nl, os);
  return os.str();
}

TEST(Verilog, WritesHeaderPortsAndOneInstanceLinePerCell) {
  Netlist nl("rt");
  Builder b(nl, "g");
  const NetId a = nl.add_net("a");
  const NetId bb = nl.add_net("b");
  const NetId sel = nl.add_net("sel");
  nl.add_port("a", PortDir::kInput, a);
  nl.add_port("b", PortDir::kInput, bb);
  nl.add_port("sel", PortDir::kInput, sel);
  const NetId x = b.xor2(a, bb);
  const NetId n = b.nand2(a, bb);
  nl.add_port("y", PortDir::kOutput, b.mux2(x, n, sel));

  const std::string text = verilog_text(nl);
  EXPECT_NE(text.find("module rt (a, b, sel, y);\n"), std::string::npos);
  EXPECT_NE(text.find("  input a;\n  input b;\n  input sel;\n  output y;\n"),
            std::string::npos);
  EXPECT_NE(text.find("  assign y = n2;\n"), std::string::npos);
  EXPECT_EQ(text.substr(text.size() - 10), "endmodule\n");

  // One named-connection instance line per live cell, in instance order.
  std::istringstream lines(text);
  std::vector<std::string> instances;
  for (std::string line; std::getline(lines, line);)
    if (line.find(" (.") != std::string::npos) instances.push_back(line);
  EXPECT_EQ(instances,
            (std::vector<std::string>{
                "  XOR2_X1 g_XOR20 (.A(a), .B(b), .Y(n0));",
                "  NAND2_X1 g_NAND21 (.A(a), .B(b), .Y(n1));",
                "  MUX2_X1 g_MUX22 (.A(n0), .B(n1), .C(sel), .Y(n2));"}))
      << text;

  // A port whose net has its name is neither redeclared as a wire nor
  // assigned to itself, for inputs and for outputs alike.
  for (const std::string port : {"a", "b", "sel"}) {
    EXPECT_EQ(text.find("  wire " + port + ";\n"), std::string::npos) << text;
    EXPECT_EQ(text.find("assign " + port + " = " + port + ";"),
              std::string::npos)
        << text;
  }
  Netlist pass("pass");
  const NetId d = pass.add_net("d");
  pass.add_port("d", PortDir::kInput, d);
  const NetId q = Builder(pass, "g").inv(d);
  pass.add_port(pass.nets()[static_cast<std::size_t>(q)].name,
                PortDir::kOutput, q);
  const std::string pass_text = verilog_text(pass);
  EXPECT_EQ(pass_text.find("wire d;"), std::string::npos) << pass_text;
  EXPECT_EQ(pass_text.find("assign d = d;"), std::string::npos) << pass_text;
  EXPECT_EQ(pass_text.find("assign n0 = n0;"), std::string::npos)
      << pass_text;
  EXPECT_NE(pass_text.find("  output n0;\n"), std::string::npos) << pass_text;
}

TEST(Verilog, SanitizesBusNames) {
  Netlist nl("buses");
  const auto bus = nl.make_bus("d", 2);
  nl.add_port("d0", PortDir::kInput, bus[0]);
  nl.add_port("d1", PortDir::kInput, bus[1]);
  Builder b(nl, "g");
  nl.add_port("y", PortDir::kOutput, b.and2(bus[0], bus[1]));
  const std::string text = verilog_text(nl);
  EXPECT_EQ(text.find('['), std::string::npos);  // no raw brackets
  // Bus bits become legal identifiers, declared and connected by name.
  EXPECT_NE(text.find("  wire d_0_;\n  assign d_0_ = d0;\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("  wire d_1_;\n  assign d_1_ = d1;\n"),
            std::string::npos);
  EXPECT_NE(text.find("(.A(d_0_), .B(d_1_), "), std::string::npos);
}

TEST_F(GenSim, ForceNetModelsStuckAtFaults) {
  init_inputs(2);
  const NetId y = b_.and2(inputs_[0], inputs_[1]);
  const NetId z = b_.inv(y);
  Simulator sim = make_sim();
  sim.set_input(inputs_[0], true);
  sim.set_input(inputs_[1], true);
  sim.settle();
  EXPECT_TRUE(sim.value(y));
  EXPECT_FALSE(sim.value(z));
  // Stuck-at-0 on y: the fault propagates through downstream logic and
  // wins against any drive from the AND gate.
  sim.force_net(y, false);
  sim.settle();
  EXPECT_FALSE(sim.value(y));
  EXPECT_TRUE(sim.value(z));
  sim.set_input(inputs_[0], false);
  sim.set_input(inputs_[1], false);
  sim.settle();
  sim.set_input(inputs_[0], true);
  sim.set_input(inputs_[1], true);
  sim.settle();
  EXPECT_FALSE(sim.value(y));  // still stuck
  // Releasing the net restores normal evaluation.
  sim.release_net(y);
  sim.settle();
  EXPECT_TRUE(sim.value(y));
  EXPECT_FALSE(sim.value(z));
}

TEST(SimErrors, UnknownCellThrows) {
  Netlist nl("t");
  const NetId a = nl.add_net("a");
  const NetId y = nl.add_net("y");
  nl.add_instance("g", "FROB_X1", {{"A", a}, {"Y", y}});
  Simulator sim(nl, cells());
  EXPECT_THROW(sim.settle(), Error);
}

/// Three-inverter ring: the classic combinational loop that can never
/// settle, used to exercise the non-convergence diagnostics.
Netlist inverter_ring() {
  Netlist nl("osc");
  const NetId a = nl.add_net("ring_a");
  const NetId b = nl.add_net("ring_b");
  const NetId c = nl.add_net("ring_c");
  nl.add_instance("i0", "INV_X1", {{"A", a}, {"Y", b}});
  nl.add_instance("i1", "INV_X1", {{"A", b}, {"Y", c}});
  nl.add_instance("i2", "INV_X1", {{"A", c}, {"Y", a}});
  return nl;
}

TEST(SimErrors, NonConvergenceNamesOscillatingNets) {
  const Netlist nl = inverter_ring();
  Simulator sim(nl, cells());
  try {
    sim.settle();
    FAIL() << "expected non-convergence";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kNonConvergence);
    // The message must say *which* nets oscillate, not just that some did.
    EXPECT_NE(std::string(e.what()).find("ring_"), std::string::npos);
  }
}

TEST(SimErrors, SettleWallClockBudgetFires) {
  const Netlist nl = inverter_ring();
  Simulator sim(nl, cells());
  // Unlimited passes, but a wall-clock budget that expires immediately:
  // the watchdog must stop the fixpoint, not the pass counter.
  SettleBudget budget;
  budget.max_passes = std::numeric_limits<std::size_t>::max();
  budget.wall_seconds = 1e-9;
  sim.set_settle_budget(budget);
  try {
    sim.settle();
    FAIL() << "expected watchdog";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kResourceExhausted);
  }
}

TEST(SimErrors, SettlePassBudgetOverrideApplies) {
  const Netlist nl = inverter_ring();
  Simulator sim(nl, cells());
  SettleBudget budget;
  budget.max_passes = 2;
  sim.set_settle_budget(budget);
  try {
    sim.settle();
    FAIL() << "expected non-convergence";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kNonConvergence);
    EXPECT_NE(std::string(e.what()).find("2 passes"), std::string::npos);
  }
}

// Regression for the forced-net clamp: settling with an active stuck-at
// fault must converge, both on a plain path and inside a combinational
// loop that the clamp breaks.
TEST(SimErrors, SettleUnderForcedNetConverges) {
  Netlist nl("f");
  const NetId a = nl.add_net("a");
  const NetId b = nl.add_net("b");
  const NetId c = nl.add_net("c");
  nl.add_instance("i0", "INV_X1", {{"A", a}, {"Y", b}});
  nl.add_instance("i1", "INV_X1", {{"A", b}, {"Y", c}});
  Simulator sim(nl, cells());
  sim.set_input(a, true);     // the driver wants b = 0...
  sim.force_net(b, true);     // ...but the fault holds it at 1
  ASSERT_NO_THROW(sim.settle());
  EXPECT_TRUE(sim.value(b));
  EXPECT_FALSE(sim.value(c));

  const Netlist ring = inverter_ring();
  Simulator ring_sim(ring, cells());
  ring_sim.force_net(ring.find_net("ring_a"), true);
  ASSERT_NO_THROW(ring_sim.settle());  // the clamp breaks the loop
  EXPECT_TRUE(ring_sim.value(ring.find_net("ring_a")));
  EXPECT_FALSE(ring_sim.value(ring.find_net("ring_b")));
}

}  // namespace
}  // namespace limsynth::netlist
