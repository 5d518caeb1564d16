#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "circuit/circuit.hpp"
#include "circuit/elmore.hpp"
#include "circuit/logical_effort.hpp"
#include "circuit/transient.hpp"
#include "tech/process.hpp"
#include "util/units.hpp"

namespace limsynth::circuit {
namespace {

using limsynth::units::fF;
using limsynth::units::kOhm;
using limsynth::units::ps;

tech::Process proc() { return tech::default_process(); }

// ---------------------------------------------------------------- RC tree

TEST(RcTree, SingleLumpMatchesAnalytic) {
  // Driver R charging a single cap C: elmore = R*C.
  RcTree tree(10.0 * kOhm, 0.0);
  const int n = tree.add_node(0, 0.0, 100 * fF);
  EXPECT_NEAR(tree.elmore(n), 10.0 * kOhm * 100 * fF, 1e-18);
  EXPECT_NEAR(tree.elmore(n), 1e-9, 1e-15);
}

TEST(RcTree, DistributedLineHalvesWireDelay) {
  // Classic result: distributed RC line delay = R*C/2 (plus driver term).
  const double R = 10 * kOhm, C = 100 * fF;
  RcTree lumped(1.0);  // negligible driver
  lumped.add_node(0, R, C);
  RcTree distributed(1.0);
  const int far = distributed.add_line(0, R, C, 64);
  const double d_lumped = lumped.elmore(1);
  const double d_dist = distributed.elmore(far);
  EXPECT_NEAR(d_dist / d_lumped, 0.5, 0.02);
}

TEST(RcTree, ElmoreMonotonicAlongPath) {
  RcTree tree(2.0 * kOhm);
  int a = tree.add_node(0, 1 * kOhm, 10 * fF);
  int b = tree.add_node(a, 1 * kOhm, 10 * fF);
  int c = tree.add_node(b, 1 * kOhm, 10 * fF);
  EXPECT_LT(tree.elmore(a), tree.elmore(b));
  EXPECT_LT(tree.elmore(b), tree.elmore(c));
}

TEST(RcTree, SideBranchLoadsButDoesNotBlock) {
  RcTree tree(1.0 * kOhm);
  int trunk = tree.add_node(0, 1 * kOhm, 10 * fF);
  int far = tree.add_node(trunk, 1 * kOhm, 10 * fF);
  const double before = tree.elmore(far);
  tree.add_node(trunk, 5 * kOhm, 50 * fF);  // side branch
  const double after = tree.elmore(far);
  EXPECT_GT(after, before);  // added cap upstream slows the far node
}

// ---------------------------------------------------------- logical effort

TEST(LogicalEffort, InverterChainFanout64) {
  // 3 inverters, H=64 -> f=4 per stage, delay = 3*(4+1) = 15 tau.
  std::vector<PathStage> path(3, PathStage{1.0, 1.0, 1.0});
  const SizedPath sized = size_path(path, 1.0, 64.0);
  EXPECT_NEAR(sized.stage_effort, 4.0, 1e-9);
  EXPECT_NEAR(sized.delay_tau, 15.0, 1e-9);
  // Sizes should be 1, 4, 16.
  ASSERT_EQ(sized.stage_cin.size(), 3u);
  EXPECT_NEAR(sized.stage_cin[0], 1.0, 1e-9);
  EXPECT_NEAR(sized.stage_cin[1], 4.0, 1e-9);
  EXPECT_NEAR(sized.stage_cin[2], 16.0, 1e-9);
}

TEST(LogicalEffort, BufferedBeatsUnbufferedForBigLoads) {
  std::vector<PathStage> nand{{4.0 / 3.0, 1.0, 2.0}};
  const SizedPath bare = size_path(nand, 1.0, 256.0);
  std::vector<PathStage> buffered = nand;
  buffered.insert(buffered.end(), 2, PathStage{1.0, 1.0, 1.0});
  EXPECT_LT(size_path(buffered, 1.0, 256.0).delay_tau, bare.delay_tau);
}

TEST(LogicalEffort, BranchingIncreasesDelay) {
  std::vector<PathStage> p1{{1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}};
  std::vector<PathStage> p2{{1.0, 3.0, 1.0}, {1.0, 1.0, 1.0}};
  EXPECT_LT(size_path(p1, 1.0, 16.0).delay_tau,
            size_path(p2, 1.0, 16.0).delay_tau);
}

TEST(LogicalEffort, BufferChainDelayGrowsWithFanout) {
  const std::vector<PathStage> chain(3, PathStage{1.0, 1.0, 1.0});
  EXPECT_LT(size_path(chain, 1.0, 4.0).delay_tau,
            size_path(chain, 1.0, 64.0).delay_tau);
  EXPECT_LT(size_path(chain, 1.0, 64.0).delay_tau,
            size_path(chain, 1.0, 1024.0).delay_tau);
}

// -------------------------------------------------------------- transient

TEST(Transient, RcStepResponseMatchesAnalytic) {
  // vdd -> R -> node with C: v(t) = vdd(1 - exp(-t/RC)); 50% at ln2*RC.
  tech::Process p = proc();
  Circuit ckt(p);
  const NodeId out = ckt.add_node("out");
  const double R = 10 * kOhm, C = 20 * fF;  // RC = 200 ps
  ckt.add_resistor(ckt.vdd(), out, R);
  ckt.add_cap(out, C);
  TransientConfig cfg;
  cfg.t_stop = 2e-9;
  cfg.waveform_stride = 1;
  cfg.dc_settle = 0.0;  // start from v(out)=0 so the analytic form applies
  const TransientResult res = simulate(ckt, cfg);
  const double t50 = res.cross_time(out, 0.5, true);
  EXPECT_NEAR(t50, std::log(2.0) * R * C, 0.03 * std::log(2.0) * R * C);
  // Energy drawn from vdd for charging C to vdd is C*vdd^2 (half stored,
  // half dissipated).
  EXPECT_NEAR(res.energy(), C * p.vdd * p.vdd, 0.05 * C * p.vdd * p.vdd);
}

TEST(Transient, StepIntoRcTreeCrossesHalfwayWithinElmore) {
  // A step through a driver resistor into an RC tree (a wire with a side
  // branch, resistors and caps only): the Elmore delay bounds the 50%
  // delay at every node from above (Gupta et al., 1997).
  const tech::Process p = proc();
  Circuit ckt(p);
  const NodeId drv = ckt.add_node("drv");
  const double r_drv = 2 * kOhm;
  ckt.add_resistor(ckt.vdd(), drv, r_drv);
  const int trunk_segments = 8;
  const double trunk_len = 400e-6;
  const auto first_trunk = static_cast<NodeId>(ckt.node_count());
  const NodeId far = ckt.add_wire(drv, trunk_len, trunk_segments, 0.0, "trunk");
  const NodeId mid = first_trunk + 3;
  const int side_segments = 4;
  const double side_len = 200e-6, side_tap = 2 * fF;
  ckt.add_wire(mid, side_len, side_segments, side_tap, "side");

  // The same tree, node for node, with add_wire's pi model: half a
  // segment's cap at each end of every segment.
  const double r_trunk = p.r_wire * trunk_len / trunk_segments;
  const double c_trunk = p.c_wire * trunk_len / trunk_segments;
  const double r_side = p.r_wire * side_len / side_segments;
  const double c_side = p.c_wire * side_len / side_segments;
  RcTree tree(r_drv, 0.5 * c_trunk);
  int node = 0, tree_mid = 0;
  for (int i = 0; i < trunk_segments; ++i) {
    node = tree.add_node(node, r_trunk,
                         (i == trunk_segments - 1 ? 0.5 : 1.0) * c_trunk);
    if (i == 3) tree_mid = node;
  }
  const int tree_far = node;
  node = tree.add_node(tree_mid, 0.0, 0.5 * c_side);  // side wire's near end
  for (int i = 0; i < side_segments; ++i)
    node = tree.add_node(node, r_side,
                         (i == side_segments - 1 ? 0.5 : 1.0) * c_side + side_tap);

  TransientConfig cfg;
  cfg.t_stop = 5.0 * tree.elmore(tree_far);
  cfg.waveform_stride = 1;
  cfg.dc_settle = 0.0;  // every node starts at 0 V: a true step
  const TransientResult res = simulate(ckt, cfg);
  const double t50 = res.cross_time(far, 0.5, true);
  EXPECT_GT(t50, 0.0);
  EXPECT_LE(t50, tree.elmore(tree_far));
}

TEST(Transient, InverterInvertsAndDelayScalesWithLoad) {
  tech::Process p = proc();
  Circuit ckt(p);
  const NodeId in = ckt.add_node("in");
  const NodeId out1 = ckt.add_node("out1");
  ckt.add_inverter(in, out1, 1.0);
  ckt.add_cap(out1, 5 * fF);
  ckt.add_ramp_input(in, 50 * ps, 20 * ps, true);

  Circuit ckt2(p);
  const NodeId in2 = ckt2.add_node("in");
  const NodeId out2 = ckt2.add_node("out");
  ckt2.add_inverter(in2, out2, 1.0);
  ckt2.add_cap(out2, 40 * fF);
  ckt2.add_ramp_input(in2, 50 * ps, 20 * ps, true);

  TransientConfig cfg;
  cfg.t_stop = 1.5e-9;
  cfg.waveform_stride = 1;
  const auto r1 = simulate(ckt, cfg);
  const auto r2 = simulate(ckt2, cfg);
  const double d1 = measure_delay(r1, ckt, in, true, out1, false);
  const double d2 = measure_delay(r2, ckt2, in2, true, out2, false);
  ASSERT_GT(d1, 0.0);
  ASSERT_GT(d2, 0.0);
  EXPECT_GT(d2, 2.0 * d1);  // 8x the load, much slower
  // Output settles low.
  EXPECT_LT(r1.final_voltage(out1), 0.1 * p.vdd);
}

TEST(Transient, InverterChainPropagates) {
  tech::Process p = proc();
  Circuit ckt(p);
  NodeId in = ckt.add_node("in");
  NodeId a = ckt.add_node("a");
  NodeId b = ckt.add_node("b");
  NodeId c = ckt.add_node("c");
  ckt.add_inverter(in, a, 1.0);
  ckt.add_inverter(a, b, 2.0);
  ckt.add_inverter(b, c, 4.0);
  ckt.add_cap(c, 10 * fF);
  ckt.add_ramp_input(in, 30 * ps, 15 * ps, true);
  TransientConfig cfg;
  cfg.t_stop = 1e-9;
  cfg.waveform_stride = 1;
  const auto res = simulate(ckt, cfg);
  // in rises => a falls => b rises => c falls.
  EXPECT_LT(res.final_voltage(a), 0.1 * p.vdd);
  EXPECT_GT(res.final_voltage(b), 0.9 * p.vdd);
  EXPECT_LT(res.final_voltage(c), 0.1 * p.vdd);
  EXPECT_GT(measure_delay(res, ckt, in, true, c, false), 0.0);
}

TEST(Transient, WireSlowsFarEnd) {
  tech::Process p = proc();
  Circuit ckt(p);
  NodeId in = ckt.add_node("in");
  NodeId drv = ckt.add_node("drv");
  ckt.add_inverter(in, drv, 4.0);
  const NodeId far = ckt.add_wire(drv, 500e-6, 8, 0.0, "bus");
  ckt.add_ramp_input(in, 30 * ps, 15 * ps, false);  // falling in => rising out
  TransientConfig cfg;
  cfg.t_stop = 2e-9;
  cfg.waveform_stride = 1;
  const auto res = simulate(ckt, cfg);
  const double t_near = res.cross_time(drv, 0.5, true);
  const double t_far = res.cross_time(far, 0.5, true);
  ASSERT_GT(t_near, 0.0);
  ASSERT_GT(t_far, 0.0);
  EXPECT_GT(t_far, t_near + 10 * ps);
}

TEST(Transient, EnergyScalesWithSwitchedCap) {
  tech::Process p = proc();
  auto energy_for_load = [&](double load) {
    Circuit ckt(p);
    NodeId in = ckt.add_node("in");
    NodeId out = ckt.add_node("out");
    ckt.add_inverter(in, out, 4.0);
    ckt.add_cap(out, load);
    // Falling input -> output charges from 0 to vdd through PMOS.
    ckt.add_ramp_input(in, 50 * ps, 20 * ps, false);
    TransientConfig cfg;
    cfg.t_stop = 2e-9;
    cfg.record_waveforms = false;
    return simulate(ckt, cfg).energy();
  };
  const double e10 = energy_for_load(10 * fF);
  const double e50 = energy_for_load(50 * fF);
  // dE = dC * vdd^2.
  EXPECT_NEAR(e50 - e10, 40 * fF * p.vdd * p.vdd,
              0.1 * (40 * fF * p.vdd * p.vdd));
}

TEST(Transient, PwlSourceInterpolates) {
  PwlSource src{2, {{0.0, 0.0}, {1e-9, 1.0}, {2e-9, 0.5}}};
  EXPECT_DOUBLE_EQ(src.value_at(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(src.value_at(0.5e-9), 0.5);
  EXPECT_DOUBLE_EQ(src.value_at(1.5e-9), 0.75);
  EXPECT_DOUBLE_EQ(src.value_at(5e-9), 0.5);
}

TEST(Transient, SingularCircuitsAreHandledByLeak) {
  // A node with only a device that never turns on: the stabilizing leak
  // should keep the solve non-singular.
  tech::Process p = proc();
  Circuit ckt(p);
  NodeId g = ckt.add_node("gate");
  NodeId d = ckt.add_node("drain");
  ckt.add_pwl(g, {{0.0, 0.0}});  // gate stays low: NMOS off
  ckt.add_device(DeviceType::kNmos, g, d, ckt.gnd(), 1 * kOhm);
  ckt.add_cap(d, 1 * fF);
  TransientConfig cfg;
  cfg.t_stop = 0.2e-9;
  EXPECT_NO_THROW(simulate(ckt, cfg));
}

/// Plain RC divider used by the robustness tests below.
Circuit rc_fixture() {
  Circuit ckt(proc());
  const NodeId n = ckt.add_node("mid");
  ckt.add_resistor(ckt.vdd(), n, 1 * kOhm);
  ckt.add_cap(n, 1 * fF);
  return ckt;
}

TEST(TransientGuards, RejectsInconsistentConfigsUpFront) {
  const Circuit ckt = rc_fixture();
  const auto expect_invalid = [&](TransientConfig cfg) {
    try {
      simulate(ckt, cfg);
      FAIL() << "expected rejection";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kInvalidConfig);
    }
  };
  TransientConfig cfg;
  cfg.t_stop = -1e-9;
  expect_invalid(cfg);

  cfg = {};
  cfg.t_stop = 1e-9;
  cfg.dt = 2e-9;  // dt past t_stop
  expect_invalid(cfg);

  cfg = {};
  cfg.dc_settle = std::nan("");
  expect_invalid(cfg);

  cfg = {};
  cfg.dt = std::numeric_limits<double>::infinity();
  expect_invalid(cfg);

  cfg = {};
  cfg.waveform_stride = 0;
  expect_invalid(cfg);
}

TEST(TransientGuards, NonFiniteVoltageRaisesNumericalFault) {
  // Poison a node: the NaN initial condition propagates into the solve and
  // must surface as a typed numerical fault (after the bounded dt-halving
  // retries), never as NaN delay/energy results.
  Circuit ckt = rc_fixture();
  const NodeId sick = ckt.add_node("sick");
  ckt.add_resistor(ckt.vdd(), sick, 1 * kOhm);
  ckt.add_cap(sick, 1 * fF);
  ckt.set_initial(sick, std::nan(""));
  TransientConfig cfg;
  cfg.t_stop = 0.2e-9;
  cfg.max_dt_retries = 2;
  try {
    simulate(ckt, cfg);
    FAIL() << "expected numerical fault";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kNumericalFault);
    EXPECT_NE(std::string(e.what()).find("sick"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("2 dt-halving retries"),
              std::string::npos);
  }
}

TEST(TransientGuards, NanGateMidRunRaisesNumericalFault) {
  // A gate source that turns NaN after 100 ps poisons its device's
  // conductance mid-run. That step refactors (a NaN switch fraction never
  // equals the factored one), the drain's pivot is NaN, and after the
  // retries the fault names the first non-finite node.
  const auto fault_node = [](const Circuit& ckt) {
    TransientConfig cfg;
    cfg.t_stop = 0.3e-9;
    cfg.max_dt_retries = 2;
    try {
      simulate(ckt, cfg);
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kNumericalFault);
      const std::string what = e.what();
      EXPECT_NE(what.find("2 dt-halving retries"), std::string::npos);
      const auto at = what.find("non-finite voltage on node ");
      if (at == std::string::npos) return what;
      const auto name = at + std::string("non-finite voltage on node ").size();
      return what.substr(name, what.find(' ', name) - name);
    }
    ADD_FAILURE() << "expected numerical fault";
    return std::string();
  };
  const auto poison = [](Circuit& ckt, NodeId drain) {
    const NodeId gate = ckt.add_node("gate");
    ckt.add_resistor(ckt.vdd(), drain, 1 * kOhm);
    ckt.add_cap(drain, 1 * fF);
    ckt.add_device(DeviceType::kNmos, gate, drain, ckt.gnd(), 1 * kOhm);
    ckt.add_pwl(gate, {{0.0, 0.0}, {100 * ps, 0.0}, {100 * ps, std::nan("")}});
  };

  Circuit single(proc());
  poison(single, single.add_node("drain"));
  EXPECT_EQ(fault_node(single), "drain");

  // A NaN pivot turns every later unknown NaN (as a dense elimination
  // does: each later multiplier is 0 * NaN), and back substitution carries
  // that into `victim` through its coupling to `tail`, although no path
  // joins `victim` to the drain. The fault names `victim`, as it always has.
  Circuit coupled(proc());
  const NodeId victim = coupled.add_node("victim");
  const NodeId drain = coupled.add_node("drain");
  const NodeId tail = coupled.add_node("tail");
  coupled.add_resistor(victim, tail, 1 * kOhm);
  coupled.add_resistor(coupled.vdd(), tail, 1 * kOhm);
  coupled.add_cap(victim, 1 * fF);
  coupled.add_cap(tail, 1 * fF);
  poison(coupled, drain);
  EXPECT_EQ(fault_node(coupled), "victim");
}

TEST(TransientGuards, StepBudgetRaisesResourceExhausted) {
  const Circuit ckt = rc_fixture();
  TransientConfig cfg;
  cfg.t_stop = 1e-3;  // with dt = 1e-18 this would be 1e15 steps
  cfg.dt = 1e-18;
  try {
    simulate(ckt, cfg);
    FAIL() << "expected step-budget rejection";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kResourceExhausted);
  }
}

}  // namespace
}  // namespace limsynth::circuit
