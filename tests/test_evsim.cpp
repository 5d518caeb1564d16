// Tests for the event-driven timing simulation engine: wheel and logic
// primitives, glitch semantics, X-propagation, settle-engine equivalence
// on the paper's Fig. 4b configurations and the Fig. 5 CAM block, dynamic
// validation of STA's min_period, VCD determinism, and the glitch power
// component.
#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "evsim/crosscheck.hpp"
#include "evsim/evsim.hpp"
#include "evsim/stimulus.hpp"
#include "liberty/characterize.hpp"
#include "lim/cam_block.hpp"
#include "lim/flow.hpp"
#include "lim/macro_models.hpp"
#include "lim/sram_builder.hpp"
#include "netlist/generators.hpp"
#include "power/power.hpp"
#include "seu/seu.hpp"
#include "synth/synth.hpp"
#include "tech/process.hpp"
#include "util/rng.hpp"

namespace limsynth::evsim {
namespace {

using netlist::BoundDesign;
using netlist::Builder;
using netlist::Netlist;
using netlist::NetId;

struct Ctx {
  tech::Process process = tech::default_process();
  tech::StdCellLib cells{process};
  liberty::Library lib = liberty::characterize_stdcell_library(cells);
};

// ------------------------------------------------------------- wheel

TEST(Wheel, PopsInTimeThenScheduleOrder) {
  EventWheel w;
  w.schedule(10, 1, Logic::k1);
  w.schedule(10, 2, Logic::k0);  // same instant, later seq
  w.schedule(5, 3, Logic::k1);
  EXPECT_EQ(w.size(), 3u);
  EXPECT_EQ(w.next_time(), 5u);
  EXPECT_EQ(w.pop().net, 3);
  EXPECT_EQ(w.pop().net, 1);  // seq order breaks the tie
  EXPECT_EQ(w.pop().net, 2);
  EXPECT_TRUE(w.empty());
}

TEST(Wheel, CancelSkipsEvent) {
  EventWheel w;
  w.schedule(1, 1, Logic::k1);
  const auto h = w.schedule(2, 2, Logic::k1);
  w.schedule(3, 3, Logic::k1);
  w.cancel(h);
  EXPECT_EQ(w.size(), 2u);
  EXPECT_EQ(w.pop().net, 1);
  EXPECT_EQ(w.pop().net, 3);
  EXPECT_TRUE(w.empty());
}

TEST(Wheel, FarAheadEventsSurviveRingWrap) {
  // Default ring covers ~4.1 ns; an event parked several laps ahead must
  // still pop last and in order.
  EventWheel w;
  w.schedule(5'000'000'000, 9, Logic::k0);
  w.schedule(7, 1, Logic::k1);
  EXPECT_EQ(w.next_time(), 7u);
  EXPECT_EQ(w.pop().net, 1);
  EXPECT_EQ(w.next_time(), 5'000'000'000u);
  EXPECT_EQ(w.pop().net, 9);
}

// ------------------------------------------------------------- logic

TEST(Logic, KleeneSemantics) {
  EXPECT_EQ(logic_and(Logic::k0, Logic::kX), Logic::k0);  // controlling 0
  EXPECT_EQ(logic_and(Logic::k1, Logic::kX), Logic::kX);
  EXPECT_EQ(logic_or(Logic::k1, Logic::kX), Logic::k1);
  EXPECT_EQ(logic_xor(Logic::k1, Logic::kX), Logic::kX);
  EXPECT_EQ(logic_not(Logic::kX), Logic::kX);
  // X select resolves when both data inputs agree.
  EXPECT_EQ(logic_mux(Logic::k1, Logic::k1, Logic::kX), Logic::k1);
  EXPECT_EQ(logic_mux(Logic::k0, Logic::k1, Logic::kX), Logic::kX);
}

TEST(Logic, EvalFuncMatchesSettleConventions) {
  const Logic in_aoi[3] = {Logic::k1, Logic::k1, Logic::k0};
  EXPECT_EQ(eval_func(tech::CellFunc::kAoi21, in_aoi, 3), Logic::k0);
  const Logic in_oai[3] = {Logic::k0, Logic::k1, Logic::k1};
  EXPECT_EQ(eval_func(tech::CellFunc::kOai21, in_oai, 3), Logic::k0);
  // Mux select on pin C (= in[2]).
  const Logic in_mux[3] = {Logic::k0, Logic::k1, Logic::k1};
  EXPECT_EQ(eval_func(tech::CellFunc::kMux2, in_mux, 3), Logic::k1);
}

// ------------------------------------------- glitch + X micro-circuits

TEST(Evsim, PropagatedHazardPulseIsCountedAsGlitch) {
  Ctx ctx;
  Netlist nl("hazard");
  Builder b(nl, "g");
  const NetId clk = nl.add_net("clk");
  nl.set_clock(clk);
  const NetId a = nl.add_net("a");
  nl.add_port("a", netlist::PortDir::kInput, a);
  // y = a AND (delayed !a): a static-0 hazard. The buffer chain makes the
  // slow path long enough that the y=1 event always lands before the
  // falling determination arrives, so the pulse propagates.
  const NetId y = b.and2(a, b.buf(b.buf(b.inv(a))));
  nl.add_port("y", netlist::PortDir::kOutput, y);

  const TimingAnnotation ann =
      annotate_delays(BoundDesign(nl, ctx.lib), ctx.cells);
  EvsimOptions opt;
  opt.x_init = false;
  EventSimulator ev(nl, ctx.cells, ann, opt);
  ev.cycle();  // flush power-up
  const std::uint64_t before = ev.toggles(y);
  ev.set_input(a, true);
  ev.cycle();
  // y pulsed 0 -> 1 -> 0: two transitions, both spurious.
  EXPECT_EQ(ev.toggles(y) - before, 2u);
  EXPECT_EQ(ev.glitch_toggles(y), 2u);
  EXPECT_GE(ev.glitch_stats().propagated, 2u);
}

TEST(Evsim, InertialFilteringSwallowsPreemptedPulse) {
  Ctx ctx;
  Netlist nl("xorglitch");
  Builder b(nl, "g");
  const NetId clk = nl.add_net("clk");
  nl.set_clock(clk);
  const NetId a = nl.add_net("a");
  const NetId c = nl.add_net("c");
  nl.add_port("a", netlist::PortDir::kInput, a);
  nl.add_port("c", netlist::PortDir::kInput, c);
  const NetId y = b.xor2(a, c);
  nl.add_port("y", netlist::PortDir::kOutput, y);

  const TimingAnnotation ann =
      annotate_delays(BoundDesign(nl, ctx.lib), ctx.cells);
  EvsimOptions opt;
  opt.x_init = false;
  EventSimulator ev(nl, ctx.cells, ann, opt);
  ev.cycle();
  const std::uint64_t before = ev.toggles(y);
  // Both inputs flip at the same instant: the first evaluation schedules
  // a y toggle, the second re-evaluation restores the old value before
  // the event lands — inertial filtering cancels it in the wheel.
  ev.set_input(a, true);
  ev.set_input(c, true);
  ev.cycle();
  EXPECT_EQ(ev.toggles(y), before);
  EXPECT_EQ(ev.glitch_toggles(y), 0u);
  EXPECT_GE(ev.glitch_stats().filtered, 1u);
}

TEST(Evsim, XInitializationFlushesThroughPipeline) {
  Ctx ctx;
  Netlist nl("pipe");
  Builder b(nl, "g");
  const NetId clk = nl.add_net("clk");
  nl.set_clock(clk);
  nl.add_port("clk", netlist::PortDir::kInput, clk);
  const NetId in = nl.add_net("in");
  nl.add_port("in", netlist::PortDir::kInput, in);
  const auto q1 = b.registers({in}, clk);
  const auto q2 = b.registers({b.inv(q1[0])}, clk);
  nl.add_port("out", netlist::PortDir::kOutput, q2[0]);

  const TimingAnnotation ann =
      annotate_delays(BoundDesign(nl, ctx.lib), ctx.cells);
  EventSimulator ev(nl, ctx.cells, ann, {});  // x_init default
  EXPECT_TRUE(is_x(ev.value(q1[0])));
  EXPECT_TRUE(is_x(ev.value(q2[0])));
  ev.set_input(in, true);
  ev.cycle();
  EXPECT_EQ(ev.value(q1[0]), Logic::k1);
  EXPECT_TRUE(is_x(ev.value(q2[0])));  // second stage sampled pre-edge X
  ev.cycle();
  EXPECT_EQ(ev.value(q2[0]), Logic::k0);
}

// ----------------------------------- settle-engine equivalence (Fig. 4b)

struct SramRigs {
  lim::SramDesign design;
  TimingAnnotation ann;
  StimulusTrace trace;
};

SramRigs make_sram_rig(Ctx& ctx, const lim::SramConfig& cfg, int cycles,
                       std::uint64_t seed) {
  SramRigs rig{lim::build_sram(cfg, ctx.process, ctx.cells), {}, {}};
  synth::synthesize(rig.design.nl, rig.design.lib, ctx.cells);
  rig.ann =
      annotate_delays(BoundDesign(rig.design.nl, rig.design.lib), ctx.cells);
  rig.trace = seu::random_trace(rig.design, cycles, seed);
  return rig;
}

AttachSettle sram_attach_settle(SramRigs& rig) {
  return [&rig](netlist::Simulator& sim) {
    for (netlist::InstId bank : rig.design.banks)
      sim.attach(bank, std::make_shared<lim::SramBankModel>(
                           rig.design.config.rows_per_bank(),
                           rig.design.config.code_bits()));
  };
}

AttachEvent sram_attach_event(SramRigs& rig) {
  return [&rig](EventSimulator& sim) {
    for (netlist::InstId bank : rig.design.banks)
      sim.attach(bank, std::make_shared<lim::SramBankModel>(
                           rig.design.config.rows_per_bank(),
                           rig.design.config.code_bits()));
  };
}

TEST(Evsim, CrossCheckPassesOnFig4bConfigs) {
  Ctx ctx;
  // The paper's test-chip configurations A-E.
  const lim::SramConfig configs[] = {{16, 10, 1, 16},
                                     {32, 10, 1, 16},
                                     {64, 10, 1, 16},
                                     {128, 10, 1, 16},
                                     {128, 10, 4, 16}};
  for (const auto& cfg : configs) {
    SramRigs rig = make_sram_rig(ctx, cfg, 1000, 0xF16'4B + cfg.words);
    const CrossCheckResult res =
        cross_check(rig.design.nl, ctx.cells, rig.ann, rig.trace,
                    sram_attach_settle(rig), sram_attach_event(rig));
    EXPECT_EQ(res.cycles, 1000u) << cfg.name();
    EXPECT_TRUE(res.ok()) << cfg.name() << ": " << res.first_mismatch;
  }
}

TEST(Evsim, CrossCheckPassesOnCamBlock) {
  Ctx ctx;
  lim::CamBlockConfig cfg;
  lim::CamBlockDesign d = build_cam_block(cfg, ctx.process, ctx.cells);
  synth::synthesize(d.nl, d.lib, ctx.cells);
  const TimingAnnotation ann =
      annotate_delays(BoundDesign(d.nl, d.lib), ctx.cells);

  // Pipelined operations spaced 3 cycles apart (no forwarding network);
  // op_valid pulses for one cycle.
  StimulusTrace trace;
  Rng rng(21);
  for (int c = 0; c < 1000; ++c) {
    if (c % 3 == 0) {
      trace.set_bus(c, d.row, rng.below(static_cast<std::uint64_t>(
                                  1u << cfg.index_bits)));
      trace.set_bus(c, d.addend,
                    rng.below(std::uint64_t{1} << cfg.value_bits));
      trace.set(c, d.op_valid, true);
    } else {
      trace.set(c, d.op_valid, false);
    }
  }
  auto attach_settle = [&](netlist::Simulator& sim) {
    sim.attach(d.cam_inst, std::make_shared<lim::CamBankModel>(
                               cfg.entries, cfg.index_bits));
    sim.attach(d.scratch_inst, std::make_shared<lim::SramBankModel>(
                                   cfg.entries, cfg.value_bits));
  };
  auto attach_event = [&](EventSimulator& sim) {
    sim.attach(d.cam_inst, std::make_shared<lim::CamBankModel>(
                               cfg.entries, cfg.index_bits));
    sim.attach(d.scratch_inst, std::make_shared<lim::SramBankModel>(
                                   cfg.entries, cfg.value_bits));
  };
  const CrossCheckResult res = cross_check(d.nl, ctx.cells, ann, trace,
                                           attach_settle, attach_event);
  EXPECT_EQ(res.cycles, 1000u);
  EXPECT_TRUE(res.ok()) << res.first_mismatch;
}

// ---------------------------- scripted macro trace on both engines

TEST(Evsim, MacroModelScriptedTraceMatchesOnBothEngines) {
  Ctx ctx;
  const lim::SramConfig cfg{16, 10, 1, 16};
  lim::SramDesign d = lim::build_sram(cfg, ctx.process, ctx.cells);
  synth::synthesize(d.nl, d.lib, ctx.cells);
  const TimingAnnotation ann =
      annotate_delays(BoundDesign(d.nl, d.lib), ctx.cells);

  netlist::Simulator golden(d.nl, ctx.cells);
  EvsimOptions opt;
  opt.x_init = false;
  EventSimulator ev(d.nl, ctx.cells, ann, opt);
  for (netlist::InstId bank : d.banks) {
    golden.attach(bank, std::make_shared<lim::SramBankModel>(
                            cfg.rows_per_bank(), cfg.code_bits()));
    ev.attach(bank, std::make_shared<lim::SramBankModel>(
                        cfg.rows_per_bank(), cfg.code_bits()));
  }
  golden.settle();

  auto pattern = [](int i) {
    return static_cast<std::uint64_t>((i * 37 + 5) & 0x3FF);
  };
  // Script: 16 writes (one per row), then 16 reads back.
  std::vector<std::uint64_t> ev_rdata;
  for (int c = 0; c < 36; ++c) {
    const bool write_phase = c < 16;
    const int addr = write_phase ? c : (c - 16) & 15;
    golden.set_input(d.wen, write_phase);
    ev.set_input(d.wen, write_phase);
    golden.set_bus(d.waddr, static_cast<std::uint64_t>(addr));
    ev.set_bus(d.waddr, static_cast<std::uint64_t>(addr));
    golden.set_bus(d.wdata, pattern(addr));
    ev.set_bus(d.wdata, pattern(addr));
    golden.set_bus(d.raddr, static_cast<std::uint64_t>(addr));
    ev.set_bus(d.raddr, static_cast<std::uint64_t>(addr));
    golden.settle();
    golden.clock_edge();
    ev.cycle();
    // Identical dataout on every cycle, no X anywhere on the bus.
    EXPECT_FALSE(ev.bus_has_x(d.rdata)) << "cycle " << c;
    EXPECT_EQ(ev.bus_value(d.rdata), golden.bus_value(d.rdata))
        << "cycle " << c;
    ev_rdata.push_back(ev.bus_value(d.rdata));
  }
  // Read data appears read_latency() edges after the address was applied.
  const int lat = d.read_latency();
  for (int c = 16; c + lat <= 35; ++c)
    EXPECT_EQ(ev_rdata[static_cast<std::size_t>(c + lat - 1)],
              pattern((c - 16) & 15))
        << "read applied in cycle " << c;
  // Both engines agree on how often each bank was accessed.
  const netlist::Activity act = ev.activity();
  for (netlist::InstId bank : d.banks)
    EXPECT_EQ(act.macro_access_count(bank), golden.macro_accesses(bank));
}

// ------------------------------------- dynamic STA validation + power

TEST(Evsim, ValidatesStaMinPeriodDynamically) {
  Ctx ctx;
  const lim::SramConfig cfg{32, 10, 1, 16};
  lim::SramDesign d = lim::build_sram(cfg, ctx.process, ctx.cells);
  lim::FlowOptions fopt;
  const lim::FlowReport rep =
      lim::run_flow(d.nl, d.lib, ctx.cells, ctx.process, {}, {}, fopt);
  ASSERT_GT(rep.timing.min_period, 0.0);

  AnnotateOptions aopt;
  aopt.floorplan = &rep.floorplan;
  aopt.sta = &rep.timing;
  const TimingAnnotation ann =
      annotate_delays(BoundDesign(d.nl, d.lib), ctx.cells, aopt);

  // The STA-critical endpoint must exist in the annotation under the
  // exact same name STA reports.
  bool endpoint_known = false;
  for (const auto& ep : ann.endpoints)
    endpoint_known |= ep.name == rep.timing.critical_endpoint;
  EXPECT_TRUE(endpoint_known) << rep.timing.critical_endpoint;

  SramRigs rig{std::move(d), ann, {}};
  rig.trace = seu::random_trace(rig.design, 300, 7);

  // At min_period every capture matches the (period-blind) golden run and
  // no setup check fires.
  const StaValidation at_mp = validate_at_period(
      rig.design.nl, ctx.cells, rig.ann, rep.timing.min_period, rig.trace,
      sram_attach_settle(rig), sram_attach_event(rig));
  EXPECT_EQ(at_mp.capture_mismatches, 0u);
  EXPECT_EQ(at_mp.setup_violations, 0u);

  // 5% past f_max the critical endpoint must complain.
  const StaValidation fast = validate_at_period(
      rig.design.nl, ctx.cells, rig.ann, 0.95 * rep.timing.min_period,
      rig.trace, sram_attach_settle(rig), sram_attach_event(rig));
  EXPECT_GT(fast.setup_violations, 0u);
  EXPECT_TRUE(fast.endpoint_violated(rep.timing.critical_endpoint));
}

TEST(Evsim, GlitchPowerComponentOnlyFromEventEngine) {
  Ctx ctx;
  SramRigs rig = make_sram_rig(ctx, {16, 10, 1, 16}, 100, 3);

  // Settle engine: functional activity, glitch power identically zero.
  netlist::Simulator golden(rig.design.nl, ctx.cells);
  sram_attach_settle(rig)(golden);
  golden.settle();
  EvsimOptions opt;
  opt.x_init = false;
  EventSimulator ev(rig.design.nl, ctx.cells, rig.ann, opt);
  sram_attach_event(rig)(ev);
  for (const auto& cycle_changes : rig.trace.cycles) {
    for (const auto& ch : cycle_changes) {
      golden.set_input(ch.net, ch.value);
      ev.set_input(ch.net, ch.value);
    }
    golden.settle();
    golden.clock_edge();
    ev.cycle();
  }

  const netlist::BoundDesign bd(rig.design.nl, rig.design.lib);
  const power::PowerReport settle_pw = power::analyze_power(bd, golden, {});
  const power::PowerReport ev_pw = power::analyze_power(bd, ev.activity(), {});
  EXPECT_EQ(settle_pw.glitch, 0.0);
  EXPECT_GT(ev_pw.glitch, 0.0);
  EXPECT_GT(ev_pw.total(), 0.0);
  // Glitch energy is carved out of (not added on top of) the functional
  // categories, so the totals stay in the same ballpark.
  EXPECT_NEAR(ev_pw.total() / settle_pw.total(), 1.0, 0.5);
}

// ----------------------------------------------------------------- VCD

TEST(Vcd, DeterministicParseableWaveform) {
  Ctx ctx;
  auto run = [&] {
    SramRigs rig = make_sram_rig(ctx, {16, 10, 1, 16}, 20, 11);
    EvsimOptions opt;
    opt.x_init = false;
    EventSimulator ev(rig.design.nl, ctx.cells, rig.ann, opt);
    sram_attach_event(rig)(ev);
    std::ostringstream vcd;
    ev.stream_vcd(vcd);
    for (const auto& cycle_changes : rig.trace.cycles) {
      for (const auto& ch : cycle_changes) ev.set_input(ch.net, ch.value);
      ev.cycle();
    }
    ev.finish_vcd();
    return vcd.str();
  };
  const std::string a = run();
  const std::string b = run();
  EXPECT_EQ(a, b);  // byte-identical across runs (no $date, stable ids)

  EXPECT_NE(a.find("$timescale 1fs $end"), std::string::npos);
  EXPECT_NE(a.find("$var wire 1 "), std::string::npos);
  EXPECT_NE(a.find("$enddefinitions $end"), std::string::npos);
  EXPECT_NE(a.find("$dumpvars"), std::string::npos);
  EXPECT_EQ(a.find("$date"), std::string::npos);

  // Timestamps must be strictly monotone.
  std::istringstream is(a);
  std::string line;
  long long last = -1;
  int stamps = 0;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] != '#') continue;
    const long long t = std::stoll(line.substr(1));
    EXPECT_GT(t, last) << "non-monotone timestamp";
    last = t;
    ++stamps;
  }
  EXPECT_GT(stamps, 20);
}

// ------------------------------------------------- stimulus parser

/// One elaborated netlist for name resolution, shared by the corpus.
const netlist::Netlist& stimulus_netlist() {
  static Ctx ctx;
  static lim::SramDesign d =
      lim::build_sram({16, 10, 1, 16}, ctx.process, ctx.cells);
  return d.nl;
}

StimulusTrace parse_text(const std::string& text,
                         const netlist::Netlist& nl = stimulus_netlist()) {
  std::istringstream in(text);
  return parse_stimulus(in, nl);
}

TEST(Stimulus, ValidFileRoundTrips) {
  const StimulusTrace t = parse_text(
      "# header comment\n"
      "cycle 0\n"
      "set wen 1        # write\n"
      "bus wdata 0x2a\n"
      "bus waddr 3\n"
      "\n"
      "cycle 5\n"
      "set wen 0\n");
  ASSERT_EQ(t.size(), 6u);
  // Cycle 0 carries wen + 10 wdata bits + 4 waddr bits.
  EXPECT_EQ(t.cycles[0].size(), 15u);
  EXPECT_EQ(t.cycles[5].size(), 1u);
  EXPECT_TRUE(t.cycles[1].empty());
}

/// Every corpus entry must throw kInvalidConfig naming its line number.
void expect_rejected(const std::string& text, int bad_line,
                     const std::string& why,
                     const netlist::Netlist& nl = stimulus_netlist()) {
  try {
    parse_text(text, nl);
    FAIL() << "accepted: " << why;
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidConfig) << why;
    const std::string what = e.what();
    EXPECT_NE(what.find("line " + std::to_string(bad_line)),
              std::string::npos)
        << why << " — got: " << what;
  }
}

TEST(Stimulus, RejectsMalformedInputCorpus) {
  expect_rejected("bogus 1\n", 1, "unknown directive");
  expect_rejected("set wen 1\n", 1, "set before first cycle");
  expect_rejected("bus wdata 1\n", 1, "bus before first cycle");
  expect_rejected("cycle 5\ncycle 3\n", 2, "non-monotone cycle");
  expect_rejected("cycle 2\ncycle 2\n", 2, "repeated cycle");
  expect_rejected("cycle x\n", 1, "non-numeric cycle");
  expect_rejected("cycle 0 0\n", 1, "extra cycle operand");
  expect_rejected("cycle 0\nset nosuchnet 1\n", 2, "unknown net");
  expect_rejected("cycle 0\nset wen 2\n", 2, "non-boolean scalar");
  expect_rejected("cycle 0\nset wen\n", 2, "missing scalar value");
  expect_rejected("cycle 0\nbus nosuchbus 1\n", 2, "unknown bus");
  expect_rejected("cycle 0\nbus wdata 0xZZ\n", 2, "bad bus number");
  expect_rejected("cycle 0\nbus wdata 0x400\n", 2,
                  "value wider than the 10-bit bus");
  expect_rejected("cycle 0\nbus wdata 99999999999999999999999\n", 2,
                  "u64 overflow");
}

TEST(Stimulus, BoundsHostileResourceClaims) {
  // A huge cycle number must not allocate a trace entry per cycle.
  const std::string last = std::to_string(kMaxStimulusCycle);
  expect_rejected("cycle " + std::to_string(kMaxStimulusCycle + 1) + "\n", 1,
                  "cycle beyond the limit");
  EXPECT_EQ(parse_text("cycle " + last + "\nset wen 1\n").size(),
            kMaxStimulusCycle + 1);
  // A line longer than the cap is rejected, never buffered or truncated.
  const std::string at_cap = "# " + std::string(kMaxStimulusLineBytes - 2, 'x');
  EXPECT_EQ(parse_text("cycle 0\n" + at_cap + "\nset wen 1\n").size(), 1u);
  expect_rejected("cycle 0\n" + at_cap + "x\n", 2, "oversized line");
  // Bus values are carried in a uint64_t: 64 bits fit, 65 do not.
  netlist::Netlist wide("wide");
  for (std::size_t i = 0; i <= kMaxStimulusBusBits; ++i) {
    wide.add_net("w[" + std::to_string(i) + "]");
    if (i < kMaxStimulusBusBits) wide.add_net("v[" + std::to_string(i) + "]");
  }
  EXPECT_EQ(parse_text("cycle 0\nbus v 0xffffffffffffffff\n", wide).size(),
            1u);
  expect_rejected("cycle 0\nbus w 1\n", 2, "bus wider than the cap", wide);
}

TEST(Stimulus, LoadReportsUnreadableFileAsIo) {
  try {
    load_stimulus("/nonexistent/stimulus.txt", stimulus_netlist());
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kIo);
  }
}

}  // namespace
}  // namespace limsynth::evsim
