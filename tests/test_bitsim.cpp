// Differential tests for the bit-plane batch kernel: levelization
// properties, random-netlist fuzz against the scalar settle engine (all
// 64 lanes, every net, every cycle), X-pessimism consistency against the
// event engine, lane-parallel SRAM banks under multi-hot wordlines, and
// the per-lane state surface (peek/poke/flip) the SEU campaign drives.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "bitsim/banks.hpp"
#include "bitsim/bitsim.hpp"
#include "brick/cache.hpp"
#include "evsim/evsim.hpp"
#include "liberty/characterize.hpp"
#include "lim/macro_models.hpp"
#include "netlist/bound.hpp"
#include "netlist/generators.hpp"
#include "netlist/levelize.hpp"
#include "netlist/netlist.hpp"
#include "netlist/sim.hpp"
#include "tech/process.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace limsynth::bitsim {
namespace {

using netlist::Builder;
using netlist::InstId;
using netlist::kNoNet;
using netlist::Netlist;
using netlist::NetId;

struct Ctx {
  tech::Process process = tech::default_process();
  tech::StdCellLib cells{process};
  liberty::Library lib = liberty::characterize_stdcell_library(cells);
};

// ------------------------------------------------------- levelization

TEST(Levelize, OrderRespectsDependenciesAndLevelsAreDense) {
  Ctx ctx;
  Netlist nl("lv");
  const NetId a = nl.add_net("a");
  const NetId b = nl.add_net("b");
  nl.add_port("a", netlist::PortDir::kInput, a);
  nl.add_port("b", netlist::PortDir::kInput, b);
  Builder bld(nl, "g");
  const NetId n1 = bld.inv(a);           // level 0
  const NetId n2 = bld.and2(n1, b);      // level 1
  const NetId n3 = bld.xor2(n2, n1);     // level 2
  bld.or2(n3, a);                        // level 3
  const netlist::BoundDesign bd(nl, ctx.lib);
  const netlist::Levelization lv = netlist::levelize(bd);
  ASSERT_EQ(lv.order.size(), 4u);
  ASSERT_EQ(lv.levels(), 4u);
  // Every instance's combinational fanin must appear in an earlier level.
  std::vector<int> level_of(nl.instance_storage_size(), -1);
  for (std::size_t l = 0; l < lv.levels(); ++l)
    for (const InstId id : lv.level(l))
      level_of[static_cast<std::size_t>(id)] = static_cast<int>(l);
  for (const InstId id : lv.order) {
    for (const netlist::BoundConn& c : bd.conns(id)) {
      if (c.is_output) continue;
      const InstId drv = bd.driver_inst(c.net);
      if (drv < 0 || bd.is_seq_or_macro(drv)) continue;
      EXPECT_LT(level_of[static_cast<std::size_t>(drv)],
                level_of[static_cast<std::size_t>(id)]);
    }
  }
}

TEST(Levelize, CombinationalCycleDiagnosed) {
  Ctx ctx;
  Netlist nl("cyc");
  const NetId a = nl.add_net("a");
  const NetId b = nl.add_net("b");
  nl.add_instance("i0", "INV_X1", {{"A", a}, {"Y", b}});
  nl.add_instance("i1", "INV_X1", {{"A", b}, {"Y", a}});
  const netlist::BoundDesign bd(nl, ctx.lib);
  try {
    netlist::levelize(bd);
    FAIL() << "combinational cycle not detected";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kNonConvergence);
    EXPECT_NE(std::string(e.what()).find("i0"), std::string::npos);
  }
}

// ------------------------------------------------- differential fuzz

struct FuzzDesign {
  Netlist nl{"fuzz"};
  NetId clk = kNoNet;
  std::vector<NetId> inputs;
  std::vector<NetId> watch;  // every net both engines must agree on
};

/// A random mixed combinational/sequential netlist over every cell class
/// the kernel evaluates: the builder's leaf gates, muxes, ties, and
/// DFF/DFFE registers feeding back into the gate pool.
FuzzDesign make_fuzz_design(Rng& rng) {
  FuzzDesign d;
  d.clk = d.nl.add_net("clk");
  d.nl.set_clock(d.clk);
  d.nl.add_port("clk", netlist::PortDir::kInput, d.clk);
  const int n_in = 4 + static_cast<int>(rng.below(4));
  for (int i = 0; i < n_in; ++i) {
    const NetId n = d.nl.add_net("in" + std::to_string(i));
    d.nl.add_port("in" + std::to_string(i), netlist::PortDir::kInput, n);
    d.inputs.push_back(n);
    d.watch.push_back(n);
  }
  Builder b(d.nl, "fz");
  std::vector<NetId> pool = d.inputs;
  const auto pick = [&] { return pool[rng.below(pool.size())]; };
  const auto nor2 = [&](NetId x, NetId y) {
    const NetId out = d.nl.make_net();
    d.nl.add_instance("fz/NOR2_" + std::to_string(pool.size()), "NOR2_X1",
                      {{"A", x}, {"B", y}, {"Y", out}});
    return out;
  };
  const int n_ops = 24 + static_cast<int>(rng.below(24));
  for (int i = 0; i < n_ops; ++i) {
    NetId y = kNoNet;
    switch (rng.below(12)) {
      case 0: y = b.inv(pick()); break;
      case 1: y = b.buf(pick()); break;
      case 2: y = b.nand2(pick(), pick()); break;
      case 3: y = nor2(pick(), pick()); break;
      case 4: y = b.and2(pick(), pick()); break;
      case 5: y = b.or2(pick(), pick()); break;
      case 6: y = b.xor2(pick(), pick()); break;
      case 7: y = b.xnor2(pick(), pick()); break;
      case 8: y = b.mux2(pick(), pick(), pick()); break;
      case 9: y = rng.chance(0.5) ? b.tie0() : b.tie1(); break;
      default: {
        const NetId en = rng.chance(0.5) ? pick() : kNoNet;
        y = b.registers({pick()}, d.clk, en)[0];
        break;
      }
    }
    pool.push_back(y);
    d.watch.push_back(y);
  }
  d.nl.add_port("out", netlist::PortDir::kOutput, pool.back());
  return d;
}

TEST(Fuzz, RandomNetlistsMatchScalarEngineOnEveryLane) {
  Ctx ctx;
  Rng rng(31);
  for (int trial = 0; trial < 6; ++trial) {
    const FuzzDesign d = make_fuzz_design(rng);
    const netlist::BoundDesign bd(d.nl, ctx.lib);
    const BatchProgram prog(bd, ctx.cells);
    BatchSim batch(prog);

    // 64 scalar engines, one per lane, driven with per-lane stimulus.
    std::vector<std::unique_ptr<netlist::Simulator>> scalar;
    for (int l = 0; l < kLanes; ++l)
      scalar.push_back(
          std::make_unique<netlist::Simulator>(d.nl, ctx.cells));

    const int cycles = 8;
    for (int c = 0; c < cycles; ++c) {
      for (const NetId in : d.inputs) {
        const std::uint64_t plane = rng.next_u64();
        batch.set_input_lanes(in, plane);
        for (int l = 0; l < kLanes; ++l)
          scalar[static_cast<std::size_t>(l)]->set_input(in,
                                                         (plane >> l) & 1);
      }
      batch.settle();
      batch.clock_edge();
      for (int l = 0; l < kLanes; ++l) {
        scalar[static_cast<std::size_t>(l)]->settle();
        scalar[static_cast<std::size_t>(l)]->clock_edge();
      }
      for (const NetId n : d.watch)
        for (int l = 0; l < kLanes; ++l)
          ASSERT_EQ(batch.lane_value(n, l),
                    scalar[static_cast<std::size_t>(l)]->value(n))
              << "trial " << trial << " cycle " << c << " net "
              << d.nl.net_name(n) << " lane " << l;
    }
  }
}

/// X-pessimism consistency: the event engine powered up in X (hardware
/// honest) may only disagree with the two-valued zero-init lanes by
/// reporting X. Wherever its 3-valued propagation resolves to a definite
/// value, that value holds for *every* power-up state — including the
/// all-zeros one the bit-plane kernel models — so it must match lane 0.
TEST(Fuzz, EventEngineDefiniteValuesMatchLanesUnderXInit) {
  Ctx ctx;
  Rng rng(77);
  const FuzzDesign d = make_fuzz_design(rng);
  const netlist::BoundDesign bd(d.nl, ctx.lib);
  const BatchProgram prog(bd, ctx.cells);
  BatchSim batch(prog);
  const evsim::TimingAnnotation ann = evsim::annotate_delays(bd, ctx.cells);
  evsim::EvsimOptions opt;  // quiesce mode, x_init = true
  evsim::EventSimulator ev(d.nl, ctx.cells, ann, opt);

  int definite_checked = 0;
  for (int c = 0; c < 8; ++c) {
    for (const NetId in : d.inputs) {
      const bool v = rng.chance(0.5);
      batch.set_input(in, v);
      ev.set_input(in, v);
    }
    batch.settle();
    batch.clock_edge();
    ev.cycle();
    for (const NetId n : d.watch) {
      const evsim::Logic lv = ev.value(n);
      if (lv == evsim::Logic::kX) continue;
      ++definite_checked;
      ASSERT_EQ(lv == evsim::Logic::k1, batch.lane_value(n, 0))
          << "cycle " << c << " net " << d.nl.net_name(n);
    }
  }
  EXPECT_GT(definite_checked, 0);
}

// ------------------------------------------- lane-parallel SRAM banks

struct BankHarness {
  explicit BankHarness(liberty::Library l) : lib(std::move(l)) {}
  Netlist nl{"bankh"};
  liberty::Library lib;
  NetId clk = kNoNet;
  std::vector<NetId> wwl, rwl, wdata, dout;
  InstId bank = -1;
  int rows = 0, bits = 0;
};

/// A bank macro with its wordlines and data pins wired straight to ports,
/// so tests can drive arbitrary (including multi-hot) WWL/RWL patterns
/// that the real decoder never produces.
BankHarness make_bank_harness(const Ctx& ctx, int rows, int bits) {
  BankHarness h(liberty::characterize_stdcell_library(ctx.cells));
  h.rows = rows;
  h.bits = bits;
  const brick::BrickSpec spec{tech::BitcellKind::kSram8T, rows, bits, 1};
  h.lib.add(brick::BrickCache::global().get(spec, ctx.process)->libcell);
  h.clk = h.nl.add_net("clk");
  h.nl.set_clock(h.clk);
  h.nl.add_port("clk", netlist::PortDir::kInput, h.clk);
  std::vector<netlist::Connection> conns{{"CK", h.clk}};
  h.wwl = h.nl.make_bus("wwl", rows);
  h.rwl = h.nl.make_bus("rwl", rows);
  h.wdata = h.nl.make_bus("wd", bits);
  h.dout = h.nl.make_bus("do", bits);
  for (int r = 0; r < rows; ++r) {
    h.nl.add_port("wwl" + std::to_string(r), netlist::PortDir::kInput,
                  h.wwl[static_cast<std::size_t>(r)]);
    h.nl.add_port("rwl" + std::to_string(r), netlist::PortDir::kInput,
                  h.rwl[static_cast<std::size_t>(r)]);
    conns.push_back({"WWL[" + std::to_string(r) + "]",
                     h.wwl[static_cast<std::size_t>(r)]});
    conns.push_back({"RWL[" + std::to_string(r) + "]",
                     h.rwl[static_cast<std::size_t>(r)]});
  }
  for (int j = 0; j < bits; ++j) {
    h.nl.add_port("wd" + std::to_string(j), netlist::PortDir::kInput,
                  h.wdata[static_cast<std::size_t>(j)]);
    h.nl.add_port("do" + std::to_string(j), netlist::PortDir::kOutput,
                  h.dout[static_cast<std::size_t>(j)]);
    conns.push_back({"WDATA[" + std::to_string(j) + "]",
                     h.wdata[static_cast<std::size_t>(j)]});
    conns.push_back(
        {"DO[" + std::to_string(j) + "]", h.dout[static_cast<std::size_t>(j)]});
  }
  h.bank = h.nl.add_instance("bank0", spec.name(), std::move(conns));
  return h;
}

TEST(Banks, MultiHotWordlinesMatchScalarModelOnEveryLane) {
  Ctx ctx;
  const int rows = 8, bits = 6;
  const BankHarness h = make_bank_harness(ctx, rows, bits);
  const netlist::BoundDesign bd(h.nl, h.lib);
  const BatchProgram prog(bd, ctx.cells);

  BatchSim batch(prog);
  auto bmodel = std::make_shared<BatchSramBank>(prog, h.bank, rows, bits);
  batch.attach(h.bank, bmodel);

  std::vector<std::unique_ptr<netlist::Simulator>> scalar;
  std::vector<std::shared_ptr<lim::SramBankModel>> smodel;
  for (int l = 0; l < kLanes; ++l) {
    scalar.push_back(std::make_unique<netlist::Simulator>(h.nl, ctx.cells));
    smodel.push_back(std::make_shared<lim::SramBankModel>(rows, bits));
    scalar.back()->attach(h.bank, smodel.back());
  }

  // Dense random wordline planes: with eight rows at p=0.5 per lane,
  // nearly every lane sees multi-hot reads and destructive multi-writes
  // every cycle — the semantics the one-hot decoder never exercises.
  Rng rng(5);
  for (int c = 0; c < 24; ++c) {
    const auto drive = [&](const std::vector<NetId>& bus) {
      for (const NetId n : bus) {
        const std::uint64_t plane = rng.next_u64();
        batch.set_input_lanes(n, plane);
        for (int l = 0; l < kLanes; ++l)
          scalar[static_cast<std::size_t>(l)]->set_input(n, (plane >> l) & 1);
      }
    };
    drive(h.wwl);
    drive(h.rwl);
    drive(h.wdata);
    batch.settle();
    batch.clock_edge();
    for (int l = 0; l < kLanes; ++l) {
      scalar[static_cast<std::size_t>(l)]->settle();
      scalar[static_cast<std::size_t>(l)]->clock_edge();
      ASSERT_EQ(batch.bus_value(h.dout, l),
                scalar[static_cast<std::size_t>(l)]->bus_value(h.dout))
          << "cycle " << c << " lane " << l;
    }
  }
  // Final storage state matches word-for-word in every lane.
  for (int l = 0; l < kLanes; ++l)
    for (int r = 0; r < rows; ++r)
      ASSERT_EQ(bmodel->peek(l, r),
                smodel[static_cast<std::size_t>(l)]->peek(r))
          << "lane " << l << " row " << r;
}

TEST(Banks, PerLanePeekPokeFlipAreIsolated) {
  Ctx ctx;
  const int rows = 4, bits = 5;
  const BankHarness h = make_bank_harness(ctx, rows, bits);
  const netlist::BoundDesign bd(h.nl, h.lib);
  const BatchProgram prog(bd, ctx.cells);
  BatchSramBank bank(prog, h.bank, rows, bits);

  EXPECT_EQ(bank.state_rows(), rows);
  EXPECT_EQ(bank.state_bits(), bits);
  bank.poke(3, 2, 0b10110);
  EXPECT_EQ(bank.peek(3, 2), 0b10110u);
  for (int l = 0; l < kLanes; ++l) {
    if (l != 3) {
      EXPECT_EQ(bank.peek(l, 2), 0u) << "lane " << l;
    }
  }
  // Values are masked to the word width.
  bank.poke(1, 0, ~std::uint64_t{0});
  EXPECT_EQ(bank.peek(1, 0), 0b11111u);
  // flip_state_bits XORs one lane only.
  bank.flip_state_bits(3, 2, 0b00011);
  EXPECT_EQ(bank.peek(3, 2), 0b10101u);
  EXPECT_EQ(bank.peek(4, 2), 0u);
  // Out-of-range coordinates are rejected.
  EXPECT_THROW(bank.peek(0, rows), Error);
  EXPECT_THROW(bank.poke(kLanes, 0, 0), Error);
}

TEST(Flops, FlipFlopTouchesOnlyMaskedLanes) {
  Ctx ctx;
  Netlist nl("ff");
  const NetId clk = nl.add_net("clk");
  nl.set_clock(clk);
  nl.add_port("clk", netlist::PortDir::kInput, clk);
  const NetId d = nl.add_net("d");
  nl.add_port("d", netlist::PortDir::kInput, d);
  Builder b(nl, "f");
  const NetId q = b.registers({d}, clk)[0];
  const NetId y = b.inv(q);
  const netlist::BoundDesign bd(nl, ctx.lib);
  const BatchProgram prog(bd, ctx.cells);
  ASSERT_EQ(prog.flop_count(), 1u);

  // Find the flop instance via the program's own index.
  InstId flop = -1;
  for (std::size_t i = 0; i < bd.instance_count(); ++i)
    if (prog.flop_index(static_cast<InstId>(i)) == 0)
      flop = static_cast<InstId>(i);
  ASSERT_GE(flop, 0);

  BatchSim sim(prog);
  sim.set_input(d, false);
  sim.settle();
  sim.clock_edge();
  EXPECT_EQ(sim.plane(q), 0u);
  const std::uint64_t mask = (std::uint64_t{1} << 7) | (std::uint64_t{1} << 42);
  sim.flip_flop(flop, mask);
  EXPECT_EQ(sim.plane(q), mask);
  sim.settle();
  EXPECT_EQ(sim.plane(y), ~mask);  // flip propagates downstream
  // The flipped state holds across an edge when D keeps its value... and
  // lane_broadcast isolates the divergent lanes against golden lane 0.
  EXPECT_EQ(sim.plane(q) ^ lane_broadcast(sim.plane(q), 0), mask);
  sim.clock_edge();
  EXPECT_EQ(sim.plane(q), 0u);  // D=0 recaptured everywhere
  // Non-flop instances are rejected.
  EXPECT_THROW(sim.flip_flop(flop == 0 ? 1 : 0, 1), Error);
}

}  // namespace
}  // namespace limsynth::bitsim
