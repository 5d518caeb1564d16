// Tests for the bound-design layer: bind-once resolution correctness
// against a brute-force scan of the netlist, pin direction taken from the
// library, analysis equivalence through the legacy and bound entry points,
// and the stale-binding guard.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "liberty/characterize.hpp"
#include "netlist/bound.hpp"
#include "netlist/generators.hpp"
#include "netlist/sim.hpp"
#include "place/place.hpp"
#include "power/power.hpp"
#include "sta/sta.hpp"
#include "synth/synth.hpp"
#include "tech/process.hpp"
#include "util/error.hpp"

namespace limsynth {
namespace {

/// Base pin name: "RWL[17]" -> "RWL".
std::string pin_base(const std::string& pin) {
  return pin.substr(0, pin.find('['));
}

using netlist::BoundConn;
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

// Registered pipeline: regs -> adder -> regs (every cell class: flops,
// gates, ties via the generators).
Netlist make_pipeline(int width = 6) {
  Netlist nl("pipe");
  const NetId clk = nl.add_net("clk");
  nl.set_clock(clk);
  nl.add_port("clk", netlist::PortDir::kInput, clk);
  const auto a = nl.make_bus("a", width);
  const auto b = nl.make_bus("b", width);
  for (int i = 0; i < width; ++i) {
    nl.add_port("a" + std::to_string(i), netlist::PortDir::kInput,
                a[static_cast<std::size_t>(i)]);
    nl.add_port("b" + std::to_string(i), netlist::PortDir::kInput,
                b[static_cast<std::size_t>(i)]);
  }
  Builder bld(nl, "dp");
  const auto ar = bld.registers(a, clk);
  const auto br = bld.registers(b, clk);
  const auto sum = bld.add(ar, br, netlist::kNoNet);
  const auto q = bld.registers(sum, clk);
  for (std::size_t i = 0; i < q.size(); ++i)
    nl.add_port("q" + std::to_string(i), netlist::PortDir::kOutput, q[i]);
  return nl;
}

TEST(Bound, ResolvesCellsAndConnsOnce) {
  Ctx ctx;
  const Netlist nl = make_pipeline();
  const BoundDesign bd(nl, ctx.lib);

  EXPECT_EQ(bd.instance_count(), nl.instance_storage_size());
  for (std::size_t i = 0; i < bd.instance_count(); ++i) {
    const auto id = static_cast<InstId>(i);
    if (!nl.is_live(id)) continue;
    const auto& inst = nl.instance(id);
    // Dense cell deref matches the name-keyed library lookup.
    EXPECT_EQ(&bd.cell(id), &ctx.lib.cell(inst.cell)) << inst.name;
    // Every connection resolved, in declaration order, with its pin name
    // interned reversibly and output-ness matching the cell's pin models.
    const auto conns = bd.conns(id);
    ASSERT_EQ(conns.size(), inst.conns.size());
    for (std::size_t k = 0; k < conns.size(); ++k) {
      const BoundConn& c = conns[k];
      EXPECT_EQ(c.net, inst.conns[k].net);
      EXPECT_EQ(bd.pin_name(c.pin), inst.conns[k].pin);
      EXPECT_EQ(c.is_output,
                bd.cell(id).find_output(pin_base(inst.conns[k].pin)) !=
                    nullptr);
      if (const NetId* via_find = inst.find_pin(inst.conns[k].pin)) {
        EXPECT_EQ(bd.pin_net(id, c.pin), *via_find);
      }
    }
  }
}

TEST(Bound, ConnectivityMatchesBruteForceScan) {
  Ctx ctx;
  Netlist nl = make_pipeline();
  // A dead slot must be skipped by both sides.
  nl.remove_instance(static_cast<InstId>(nl.instance_storage_size() / 2));
  const BoundDesign bd(nl, ctx.lib);

  // Oracle: walk every live connection in netlist order and classify it
  // by the cell's output pin models.
  const std::size_t n_nets = nl.nets().size();
  std::vector<std::pair<InstId, std::string>> driver(n_nets, {-1, ""});
  std::vector<std::vector<std::pair<InstId, std::string>>> sinks(n_nets);
  std::vector<double> cap(n_nets, 0.0);
  for (std::size_t i = 0; i < nl.instance_storage_size(); ++i) {
    const auto id = static_cast<InstId>(i);
    if (!nl.is_live(id)) continue;
    const netlist::Instance& inst = nl.instance(id);
    const liberty::LibCell& cell = ctx.lib.cell(inst.cell);
    for (const auto& c : inst.conns) {
      const auto n = static_cast<std::size_t>(c.net);
      const std::string base = pin_base(c.pin);
      if (cell.find_output(base) != nullptr) {
        driver[n] = {id, c.pin};
      } else {
        sinks[n].emplace_back(id, c.pin);
        cap[n] += cell.find_input(base)->cap;
      }
    }
  }
  std::vector<bool> po(n_nets, false);
  for (const auto& p : nl.ports())
    if (p.dir == netlist::PortDir::kOutput)
      po[static_cast<std::size_t>(p.net)] = true;

  for (NetId net = 0; net < static_cast<NetId>(n_nets); ++net) {
    const auto n = static_cast<std::size_t>(net);
    EXPECT_EQ(bd.driver_inst(net), driver[n].first) << "net " << net;
    if (const BoundConn* d = bd.driver(net)) {
      EXPECT_EQ(bd.pin_name(d->pin), driver[n].second) << "net " << net;
    }
    const auto bsinks = bd.sinks(net);
    ASSERT_EQ(bsinks.size(), sinks[n].size()) << "net " << net;
    for (std::size_t s = 0; s < bsinks.size(); ++s) {
      EXPECT_EQ(bsinks[s].inst, sinks[n][s].first);
      EXPECT_EQ(bd.pin_name(bd.conn_at(bsinks[s].conn).pin),
                sinks[n][s].second);
    }
    EXPECT_DOUBLE_EQ(bd.sink_cap(net), cap[n]);
    EXPECT_EQ(bd.is_po(net), po[n]) << "net " << net;
  }
}

TEST(Bound, OutputDirectionComesFromLibrary) {
  // An output pin named outside any naming convention still drives.
  liberty::LibCell zbuf;
  zbuf.name = "ZBUF";
  zbuf.inputs = {{"A", 2e-15}};
  zbuf.outputs = {{"Z"}};
  liberty::Library lib("z");
  lib.add(std::move(zbuf));
  Netlist nl("z");
  const NetId a = nl.add_net("a");
  const NetId z = nl.add_net("z");
  const NetId w = nl.add_net("w");
  const InstId u0 = nl.add_instance("u0", "ZBUF", {{"A", a}, {"Z", z}});
  const InstId u1 = nl.add_instance("u1", "ZBUF", {{"A", z}, {"Z", w}});
  const BoundDesign bd(nl, lib);

  EXPECT_EQ(bd.driver_inst(z), u0);
  const BoundConn* d = bd.driver(z);
  ASSERT_NE(d, nullptr);
  EXPECT_TRUE(d->is_output);
  EXPECT_EQ(d->slot, 0);
  EXPECT_EQ(bd.pin_name(d->pin), "Z");
  ASSERT_EQ(bd.sinks(z).size(), 1u);
  EXPECT_EQ(bd.sinks(z)[0].inst, u1);
  EXPECT_DOUBLE_EQ(bd.sink_cap(z), 2e-15);
  EXPECT_EQ(bd.driver_inst(w), u1);
  EXPECT_TRUE(bd.sinks(w).empty());
}

TEST(Bound, UnmodeledPinRejectedWhateverItsName) {
  Ctx ctx;
  Netlist nl("bad");
  const NetId a = nl.add_net("a");
  const NetId y = nl.add_net("y");
  const NetId d = nl.add_net("d");
  // DO reads like an output, but INV_X1 does not model it.
  nl.add_instance("u0", "INV_X1", {{"A", a}, {"Y", y}, {"DO", d}});
  try {
    const BoundDesign bd(nl, ctx.lib);
    FAIL() << "unmodeled pin accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidConfig);
    EXPECT_NE(std::string(e.what()).find("DO"), std::string::npos);
  }
}

TEST(Bound, AnalysesMatchLegacyEntryPoints) {
  Ctx ctx;
  Netlist nl = make_pipeline();
  synth::synthesize(nl, ctx.lib, ctx.cells);
  const Netlist& cnl = nl;
  const BoundDesign bd(cnl, ctx.lib);

  // Placement agrees exactly between a binding made for the call and one
  // shared with other analyses.
  const place::Floorplan fp_legacy =
      place::place_design(BoundDesign(cnl, ctx.lib), ctx.process);
  const place::Floorplan fp_bound = place::place_design(bd, ctx.process);
  EXPECT_DOUBLE_EQ(fp_legacy.area, fp_bound.area);
  EXPECT_DOUBLE_EQ(fp_legacy.total_wirelength, fp_bound.total_wirelength);
}

TEST(Bound, PowerMatchesLegacyEntryPoint) {
  Ctx ctx;
  Netlist nl = make_pipeline();
  synth::synthesize(nl, ctx.lib, ctx.cells);
  const Netlist& cnl = nl;

  netlist::Simulator sim(cnl, ctx.cells);
  sim.settle();
  for (int c = 0; c < 16; ++c) {
    sim.set_input(cnl.find_net("a[0]"), c & 1);
    sim.set_input(cnl.find_net("b[1]"), (c >> 1) & 1);
    sim.settle();
    sim.clock_edge();
  }
  // The settle-engine convenience snapshots the same activity record the
  // engine-independent entry point prices.
  power::PowerOptions popt;
  popt.frequency = 500e6;
  const BoundDesign bd(cnl, ctx.lib);
  const power::PowerReport legacy = power::analyze_power(bd, sim, popt);
  const power::PowerReport bound = power::analyze_power(
      bd, netlist::Activity::from_simulator(sim), popt);
  EXPECT_DOUBLE_EQ(legacy.total(), bound.total());
  EXPECT_DOUBLE_EQ(legacy.combinational, bound.combinational);
  EXPECT_DOUBLE_EQ(legacy.sequential, bound.sequential);
  EXPECT_DOUBLE_EQ(legacy.clock_tree, bound.clock_tree);
  EXPECT_DOUBLE_EQ(legacy.leakage, bound.leakage);
}

TEST(Bound, StaleAfterRemoveInstanceThrowsTyped) {
  Ctx ctx;
  Netlist nl = make_pipeline();
  const BoundDesign bd(nl, ctx.lib);
  ASSERT_NO_THROW(bd.check_fresh());

  // Find a live instance and remove it: the binding must refuse queries.
  InstId victim = -1;
  for (std::size_t i = 0; i < nl.instance_storage_size(); ++i)
    if (nl.is_live(static_cast<InstId>(i))) victim = static_cast<InstId>(i);
  ASSERT_GE(victim, 0);
  nl.remove_instance(victim);

  try {
    bd.check_fresh();
    FAIL() << "stale binding not detected";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kStaleBinding);
  }
  EXPECT_THROW(sta::run_sta(bd), Error);

  // Rebinding the edited netlist restores service.
  const BoundDesign fresh(nl, ctx.lib);
  ASSERT_NO_THROW(fresh.check_fresh());
  EXPECT_GT(sta::run_sta(fresh).min_period, 0.0);
}

TEST(Bound, MutableInstanceAccessInvalidatesBinding) {
  Ctx ctx;
  Netlist nl = make_pipeline();
  const BoundDesign bd(nl, ctx.lib);
  // Even a non-const read is a potential structural edit: the netlist
  // can't tell, so it bumps the revision and the binding goes stale.
  (void)nl.instance(static_cast<InstId>(0));
  EXPECT_THROW(bd.check_fresh(), Error);
}

TEST(Bound, UnknownCellRejectedAtBind) {
  Ctx ctx;
  Netlist nl("bad");
  const NetId a = nl.add_net("a");
  const NetId y = nl.add_net("y");
  nl.add_instance("u0", "NO_SUCH_CELL", {{"A", a}, {"Y", y}});
  EXPECT_THROW(BoundDesign(nl, ctx.lib), Error);
}

}  // namespace
}  // namespace limsynth
