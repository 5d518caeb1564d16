// Tests for the synthesis, placement, STA and power stages, individually
// and chained (the flow the paper hands to DC / ICC / PrimeTime).
#include <gtest/gtest.h>

#include "liberty/characterize.hpp"
#include "netlist/bound.hpp"
#include "netlist/generators.hpp"
#include "netlist/sim.hpp"
#include "place/place.hpp"
#include "power/power.hpp"
#include "sta/sta.hpp"
#include "synth/synth.hpp"
#include "tech/process.hpp"
#include "util/units.hpp"

namespace limsynth {
namespace {

using netlist::BoundDesign;
using netlist::Builder;
using netlist::InstId;
using netlist::Netlist;
using netlist::NetId;

struct Ctx {
  tech::Process process = tech::default_process();
  tech::StdCellLib cells{process};
  liberty::Library lib = liberty::characterize_stdcell_library(cells);
};

// A small registered pipeline: regs -> adder -> regs.
struct AdderDesign {
  Netlist nl{"adder8"};
  NetId clk;
  std::vector<NetId> a, b, q;
};

AdderDesign make_adder(Ctx& ctx, int width = 8) {
  (void)ctx;
  AdderDesign d;
  d.clk = d.nl.add_net("clk");
  d.nl.set_clock(d.clk);
  d.nl.add_port("clk", netlist::PortDir::kInput, d.clk);
  d.a = d.nl.make_bus("a", width);
  d.b = d.nl.make_bus("b", width);
  for (int i = 0; i < width; ++i) {
    d.nl.add_port("a" + std::to_string(i), netlist::PortDir::kInput, d.a[static_cast<std::size_t>(i)]);
    d.nl.add_port("b" + std::to_string(i), netlist::PortDir::kInput, d.b[static_cast<std::size_t>(i)]);
  }
  Builder bld(d.nl, "dp");
  const auto ar = bld.registers(d.a, d.clk);
  const auto br = bld.registers(d.b, d.clk);
  const auto sum = bld.add(ar, br, netlist::kNoNet);
  d.q = bld.registers(sum, d.clk);
  for (std::size_t i = 0; i < d.q.size(); ++i)
    d.nl.add_port("q" + std::to_string(i), netlist::PortDir::kOutput, d.q[i]);
  return d;
}

TEST(Synth, SweepsDeadLogic) {
  Ctx ctx;
  Netlist nl("dead");
  Builder b(nl, "x");
  const NetId in = nl.add_net("in");
  nl.add_port("in", netlist::PortDir::kInput, in);
  const NetId used = b.inv(in);
  nl.add_port("out", netlist::PortDir::kOutput, used);
  // A chain of gates driving nothing.
  b.inv(b.inv(b.inv(in)));
  // The same dead chain in reverse instance order: each sink is added
  // before its driver.
  const NetId r1 = nl.add_net("r1");
  const NetId r2 = nl.add_net("r2");
  const NetId r3 = nl.add_net("r3");
  nl.add_instance("rev2", "INV_X1", {{"A", r2}, {"Y", r3}});
  nl.add_instance("rev1", "INV_X1", {{"A", r1}, {"Y", r2}});
  nl.add_instance("rev0", "INV_X1", {{"A", in}, {"Y", r1}});
  // A gate whose only sink is a dead gate dies with it; one whose net also
  // reaches a primary output stays, though its dead sink goes.
  const NetId p = nl.add_net("p");
  const NetId q = nl.add_net("q");
  nl.add_instance("feeds_dead", "INV_X1", {{"A", in}, {"Y", p}});
  nl.add_instance("dead_sink", "INV_X1", {{"A", p}, {"Y", q}});
  const NetId s = nl.add_net("s");
  const NetId t = nl.add_net("t");
  const InstId keeper =
      nl.add_instance("feeds_po", "INV_X1", {{"A", in}, {"Y", s}});
  nl.add_instance("dead_sink_po", "INV_X1", {{"A", s}, {"Y", t}});
  nl.add_port("s", netlist::PortDir::kOutput, s);

  const std::size_t before = nl.live_instance_count();
  const synth::SynthStats stats = synth::synthesize(nl, ctx.lib, ctx.cells);
  EXPECT_EQ(stats.dead_removed, 9);
  EXPECT_EQ(nl.live_instance_count(), before - 9);
  ASSERT_EQ(nl.live_instance_count(), 2u);
  const BoundDesign bd(nl, ctx.lib);
  EXPECT_GE(bd.driver_inst(used), 0);
  EXPECT_EQ(bd.driver_inst(s), keeper);
  EXPECT_TRUE(bd.sinks(s).empty());
}

TEST(Synth, BuffersHighFanout) {
  Ctx ctx;
  Netlist nl("fan");
  Builder b(nl, "x");
  const NetId in = nl.add_net("in");
  nl.add_port("in", netlist::PortDir::kInput, in);
  const NetId src = b.inv(in);
  for (int i = 0; i < 40; ++i)
    nl.add_port("o" + std::to_string(i), netlist::PortDir::kOutput, b.inv(src));
  synth::SynthOptions opt;
  opt.max_fanout = 12;
  const synth::SynthStats stats = synth::synthesize(nl, ctx.lib, ctx.cells, opt);
  EXPECT_GE(stats.buffers_added, 3);
  // No net exceeds the fanout cap afterwards.
  const BoundDesign bd(nl, ctx.lib);
  for (NetId n = 0; n < static_cast<NetId>(nl.nets().size()); ++n)
    EXPECT_LE(bd.sinks(n).size(), 13u) << nl.net_name(n);
}

TEST(Synth, SizingUpsLoadedGates) {
  Ctx ctx;
  Netlist nl("sz");
  Builder b(nl, "x");
  const NetId in = nl.add_net("in");
  nl.add_port("in", netlist::PortDir::kInput, in);
  const NetId mid = b.inv(in);
  for (int i = 0; i < 12; ++i)
    nl.add_port("o" + std::to_string(i), netlist::PortDir::kOutput, b.inv(mid));
  synth::SynthOptions opt;
  opt.max_fanout = 16;
  (void)synth::synthesize(nl, ctx.lib, ctx.cells, opt);
  // The driver of `mid` should have been upsized beyond X1.
  const BoundDesign bd(nl, ctx.lib);
  const InstId drv = bd.driver_inst(mid);
  ASSERT_GE(drv, 0);
  EXPECT_NE(bd.cell(drv).name, "INV_X1");
}

TEST(Synth, StemAndPinHelpers) {
  Ctx ctx;
  ASSERT_NE(ctx.cells.find("NAND2_X4"), nullptr);
  EXPECT_EQ(ctx.cells.find("NAND2_X4")->func, tech::CellFunc::kNand2);
  EXPECT_EQ(ctx.cells.find("brick_sram8t_16x10"), nullptr);
  EXPECT_EQ(ctx.cells.find("NAND2_X3"), nullptr);  // no such drive
  EXPECT_EQ(ctx.cells.find("TIE0_X1")->func, tech::CellFunc::kTie0);
}

TEST(Sta, RegisteredAdderHasPlausibleFmax) {
  Ctx ctx;
  AdderDesign d = make_adder(ctx);
  synth::synthesize(d.nl, ctx.lib, ctx.cells);
  const sta::StaResult res = sta::run_sta(BoundDesign(d.nl, ctx.lib));
  // 8-bit ripple adder between registers at 65nm-class: hundreds of MHz to
  // a few GHz.
  EXPECT_GT(res.fmax(), 300e6);
  EXPECT_LT(res.fmax(), 8e9);
  EXPECT_FALSE(res.critical_path.empty());
  EXPECT_NE(res.critical_endpoint, "(none)");
}

TEST(Sta, WiderAdderIsSlower) {
  Ctx ctx;
  AdderDesign small = make_adder(ctx, 4);
  AdderDesign wide = make_adder(ctx, 16);
  synth::synthesize(small.nl, ctx.lib, ctx.cells);
  synth::synthesize(wide.nl, ctx.lib, ctx.cells);
  EXPECT_GT(sta::run_sta(BoundDesign(small.nl, ctx.lib)).fmax(),
            sta::run_sta(BoundDesign(wide.nl, ctx.lib)).fmax());
}

TEST(Sta, ParasiticsSlowTheDesign) {
  Ctx ctx;
  AdderDesign d = make_adder(ctx);
  synth::synthesize(d.nl, ctx.lib, ctx.cells);
  const BoundDesign bound(d.nl, ctx.lib);
  const place::Floorplan fp = place::place_design(bound, ctx.process);
  // Idealized wireless baseline: the same placement with every net's
  // extracted wire capacitance and resistance zeroed.
  place::Floorplan wireless = fp;
  for (place::NetParasitics& p : wireless.parasitics) p = {};
  sta::StaOptions zero_wire;
  zero_wire.floorplan = &wireless;
  const sta::StaResult ideal = sta::run_sta(bound, zero_wire);
  sta::StaOptions opt;
  opt.floorplan = &fp;
  const sta::StaResult wired = sta::run_sta(bound, opt);
  EXPECT_LT(wired.fmax(), ideal.fmax());
}

TEST(Sta, HoldAnalysisReportsEndpointAndSaneSlack) {
  Ctx ctx;
  AdderDesign d = make_adder(ctx);
  synth::synthesize(d.nl, ctx.lib, ctx.cells);
  const sta::StaResult res = sta::run_sta(BoundDesign(d.nl, ctx.lib));
  EXPECT_FALSE(res.hold_endpoint.empty());
  // Register->adder->register: earliest path is clk-to-q + at least one
  // gate, comfortably above the flop hold window.
  EXPECT_GT(res.worst_hold_slack, 0.0);
  // Hold slack must not exceed the worst endpoint arrival.
  EXPECT_LT(res.worst_hold_slack, res.min_period);
}

TEST(Sta, DetectsCombinationalCycle) {
  Ctx ctx;
  Netlist nl("loop");
  Builder b(nl, "x");
  const NetId a = nl.add_net("a");
  const NetId y = b.inv(a);
  const NetId z = b.inv(y);
  // Close the loop: rewire the first inverter's input to z.
  const InstId first = BoundDesign(nl, ctx.lib).driver_inst(y);
  for (auto& c : nl.instance(first).conns)
    if (c.pin == "A") c.net = z;
  EXPECT_THROW(sta::run_sta(BoundDesign(nl, ctx.lib)), Error);
}

TEST(Place, FloorplanGeometryIsSane) {
  Ctx ctx;
  AdderDesign d = make_adder(ctx);
  synth::synthesize(d.nl, ctx.lib, ctx.cells);
  const place::Floorplan fp =
      place::place_design(BoundDesign(d.nl, ctx.lib), ctx.process);
  EXPECT_GT(fp.width, 0.0);
  EXPECT_GT(fp.height, 0.0);
  EXPECT_GT(fp.cell_area, 0.0);
  EXPECT_GE(fp.area, fp.cell_area);
  EXPECT_GT(fp.total_wirelength, 0.0);
  // All placed cells inside the floorplan.
  for (std::size_t i = 0; i < d.nl.instance_storage_size(); ++i) {
    if (!d.nl.is_live(static_cast<netlist::InstId>(i))) continue;
    const auto& [x, y] = fp.positions[i];
    EXPECT_GE(x, -1e-9);
    EXPECT_LE(x, fp.width + 1e-9);
    EXPECT_GE(y, -1e-9);
    EXPECT_LE(y, fp.height + 1e-9);
  }
}

TEST(Place, ConnectedCellsEndUpCloser) {
  Ctx ctx;
  AdderDesign d = make_adder(ctx);
  synth::synthesize(d.nl, ctx.lib, ctx.cells);
  const place::Floorplan fp =
      place::place_design(BoundDesign(d.nl, ctx.lib), ctx.process);
  // Average connected-pair distance should be well below the die diagonal.
  double sum = 0.0;
  int n = 0;
  for (NetId net = 0; net < static_cast<NetId>(d.nl.nets().size()); ++net) {
    if (net == d.nl.clock()) continue;
    sum += fp.net(net).length;
    ++n;
  }
  const double diag = fp.width + fp.height;
  EXPECT_LT(sum / n, 0.5 * diag);
}

TEST(Power, ScalesWithFrequencyAndActivity) {
  Ctx ctx;
  AdderDesign d = make_adder(ctx);
  synth::synthesize(d.nl, ctx.lib, ctx.cells);
  netlist::Simulator sim(d.nl, ctx.cells);
  Rng rng(9);
  sim.settle();
  for (int c = 0; c < 100; ++c) {
    sim.set_bus(d.a, rng.below(256));
    sim.set_bus(d.b, rng.below(256));
    sim.settle();
    sim.clock_edge();
  }
  const BoundDesign bd(d.nl, ctx.lib);
  power::PowerOptions opt;
  opt.frequency = 500e6;
  const power::PowerReport p500 = power::analyze_power(bd, sim, opt);
  opt.frequency = 1000e6;
  const power::PowerReport p1000 = power::analyze_power(bd, sim, opt);
  EXPECT_GT(p500.total(), 0.0);
  // Dynamic power doubles; leakage does not.
  EXPECT_NEAR((p1000.total() - p1000.leakage) / (p500.total() - p500.leakage),
              2.0, 1e-6);
  EXPECT_DOUBLE_EQ(p1000.leakage, p500.leakage);
  EXPECT_GT(p500.clock_tree, 0.0);
  EXPECT_GT(p500.sequential, 0.0);
}

TEST(Power, IdleDesignBurnsOnlyClockAndLeakage) {
  Ctx ctx;
  AdderDesign d = make_adder(ctx);
  synth::synthesize(d.nl, ctx.lib, ctx.cells);
  netlist::Simulator sim(d.nl, ctx.cells);
  sim.settle();
  for (int c = 0; c < 50; ++c) sim.clock_edge();  // constant inputs
  power::PowerOptions opt;
  const power::PowerReport rep =
      power::analyze_power(BoundDesign(d.nl, ctx.lib), sim, opt);
  EXPECT_LT(rep.combinational, 0.05 * rep.total());
  EXPECT_GT(rep.clock_tree, 0.0);
}

TEST(Power, RequiresSimulation) {
  Ctx ctx;
  AdderDesign d = make_adder(ctx);
  netlist::Simulator sim(d.nl, ctx.cells);
  EXPECT_THROW(power::analyze_power(BoundDesign(d.nl, ctx.lib), sim), Error);
}

}  // namespace
}  // namespace limsynth
