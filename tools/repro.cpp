// `limsynth repro [--check]`: every evaluation artifact of the paper
// (Table 1, Fig. 4b/4c, §5, Fig. 6) and the three ablations. kArtifacts
// at the bottom is the whole reproduction, one generator per artifact: its
// independent jobs, each writing only its own pre-indexed slot, run on one
// parallel_for pool, heaviest first, so the output does not depend on the
// worker count; then its finish step writes its CSV and printed table.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <iostream>
#include <memory>
#include <span>
#include <sstream>
#include <thread>

#include "arch/chip.hpp"
#include "brick/estimator.hpp"
#include "brick/golden.hpp"
#include "layout/checker.hpp"
#include "lim/checkpoint.hpp"
#include "lim/flow.hpp"
#include "spgemm/generate.hpp"
#include "spgemm/reference.hpp"
#include "util/csv.hpp"
#include "util/fs.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace limsynth {
namespace {

using units::format_si;

/// What every generator may read: built once, before the pool starts.
struct Inputs {
  tech::Process process = tech::default_process();
  tech::StdCellLib cells{process};
  arch::ChipModel lim_chip = arch::build_lim_chip(process, cells);
  arch::ChipModel base_chip = arch::build_baseline_chip(process, cells);
};

/// One artifact's output: its CSV, its printed text, its failed gates,
/// and the EXPERIMENTS.md table rows it pins: the row starting with
/// "| <key> " must end with <cells>, bold marks aside.
struct Sheet {
  std::ostringstream csv, txt;
  CsvWriter w{csv};
  std::vector<std::string> failures;
  std::vector<std::pair<std::string, std::string>> doc_rows;
};

/// `run` writes only its own slot. The pool claims jobs in decreasing
/// `cost` (relative run time), ties in table order: only the SpGEMM
/// products are heavy enough to matter (costed by flops); every other job
/// is a cost-0 filler.
struct Job {
  double cost;
  std::function<void()> run;
  double start = 0, end = 0;  // on the pool, in seconds since repro began
};

struct Plan {
  std::vector<Job> jobs;
  std::function<void(Sheet&)> finish;  // after every job, on the caller

  void add(std::function<void()> run, double cost = 0.0) {
    jobs.push_back({cost, std::move(run)});
  }
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Prints one of the paper's shape claims as "  what: PASS|FAIL".
void claim(Sheet& s, const std::string& what, bool ok) {
  s.txt << "  " << what << ": " << (ok ? "PASS" : "FAIL") << '\n';
}

// ------------------------------------------------------------- Table 1
// Tool estimation vs golden simulation (the paper's SPICE) of read delay
// and energy: 8T bricks 16x10 and 32x12 at stackings 1x, 4x and 8x. The
// CSV also holds the estimator's read-path breakdown.
Plan table1(const Inputs& in, std::uint64_t /*seed*/) {
  struct Row {
    brick::BrickSpec spec;
    brick::BrickEstimate est{};
    brick::GoldenMeasurement rd{}, wr{};
  };
  auto rows = std::make_shared<std::vector<Row>>();
  for (const auto& [words, bits] : {std::pair{16, 10}, std::pair{32, 12}})
    for (int stack : {1, 4, 8})
      rows->push_back({{tech::BitcellKind::kSram8T, words, bits, stack}});
  Plan plan;
  for (Row& r : *rows)
    plan.add([&in, &r] {
      const brick::Brick b = brick::compile_brick(r.spec, in.process);
      r.est = brick::estimate_brick(b);
      r.rd = brick::golden_read(b);
      r.wr = brick::golden_write(b);
    });
  plan.finish = [rows](Sheet& s) {
    s.w.write_row({"brick", "stack", "tool_delay_s", "golden_delay_s",
                   "delay_err_pct", "tool_read_J", "golden_read_J",
                   "read_err_pct", "tool_write_J", "golden_write_J",
                   "write_err_pct", "t_control_s", "t_wordline_s",
                   "t_bitline_s", "t_sense_s", "t_output_s",
                   "energy_per_extra_brick_J"});
    Table t({"brick", "stack", "tool delay", "golden delay", "err%",
             "tool E_rd", "golden E_rd", "err%", "tool E_wr", "golden E_wr",
             "err%"});
    for (const Row& r : *rows) {
      const brick::BrickEstimate& e = r.est;
      const std::string brick = strformat("%dx%d", r.spec.words, r.spec.bits);
      const std::string stack = strformat("%dx", r.spec.stack);
      const double err_d = units::percent_error(e.read_delay, r.rd.delay);
      const double err_r = units::percent_error(e.read_energy, r.rd.energy);
      const double err_w = units::percent_error(e.write_energy, r.wr.energy);
      t.add_row({brick, stack, format_si(e.read_delay, "s"),
                 format_si(r.rd.delay, "s"), strformat("%+.1f", err_d),
                 format_si(e.read_energy, "J"), format_si(r.rd.energy, "J"),
                 strformat("%+.1f", err_r), format_si(e.write_energy, "J"),
                 format_si(r.wr.energy, "J"), strformat("%+.1f", err_w)});
      if (r.spec.stack == 8) t.add_separator();
      s.w.write_row(brick, {static_cast<double>(r.spec.stack), e.read_delay,
                            r.rd.delay, err_d, e.read_energy, r.rd.energy,
                            err_r, e.write_energy, r.wr.energy, err_w,
                            e.t_control, e.t_wordline, e.t_bitline, e.t_sense,
                            e.t_output, e.energy_per_extra_brick});
    }
    s.txt << "Table 1: Tool estimation vs golden simulation (paper: SPICE on"
             " RC-extracted arrays)\nRead pattern: alternating <1010...>,"
             " worst-case row, "
          << format_si(brick::kReferenceLoad, "F") << " load\n\n";
    t.print(s.txt);
  };
  return plan;
}

// ------------------------------------------------------------- Fig. 4b
// Chip measurement vs library-based simulation for the taped-out 1R1W
// SRAM configurations (all 8T, 16x10 bricks):
//   A = 16x10 (1 brick)    B = 32x10 (2 stacked)    C = 64x10 (4 stacked)
//   D = 128x10 (8 stacked) E = 128x10 in 4 banks of 2 stacked bricks
//
// "Simulation" is the library-based flow (synthesis, placement, STA,
// activity power) at the nominal, fast and slow corners. "Measurement" is
// 8 Monte-Carlo chips, drawn once from the seed and shared by every
// configuration: each runs the same flow on its sampled process, then its
// whole STA period and whole energy per cycle are scaled by one ratio, the
// golden/estimator brick read *delay* taken once at nominal. So the two
// differ only by the process sample and that constant (ROADMAP item 5).
Plan fig4b(const Inputs& in, std::uint64_t seed) {
  constexpr int kChips = 8;
  struct Flow {
    double fmax = 0, energy = 0, area = 0;
  };
  struct Config {
    Config(const char* t, lim::SramConfig s) : tag(t), sram(s) {}
    const char* tag;
    lim::SramConfig sram;
    Flow flows[3 + kChips];  // nominal, fast, slow, then the chips
    double brick_corr = 0;
  };
  struct State {
    std::vector<tech::Process> processes;  // nominal, fast, slow, chips
    std::vector<Config> configs;
  };
  auto st = std::make_shared<State>();
  st->processes = {in.process, in.process.at_corner(tech::Corner::kFast),
                   in.process.at_corner(tech::Corner::kSlow)};
  Rng rng(seed);
  for (int chip = 0; chip < kChips; ++chip)
    st->processes.push_back(in.process.monte_carlo_chip(rng));
  st->configs = {{"A 16x10 (1 brick)", {16, 10, 1, 16}},
                 {"B 32x10 (2 stacked)", {32, 10, 1, 16}},
                 {"C 64x10 (4 stacked)", {64, 10, 1, 16}},
                 {"D 128x10 (8 stacked)", {128, 10, 1, 16}},
                 {"E 128x10 (4 banks x 2)", {128, 10, 4, 16}}};

  Plan plan;
  for (Config& c : st->configs) {
    for (std::size_t p = 0; p < st->processes.size(); ++p)
      plan.add([&c, &process = st->processes[p], &out = c.flows[p]] {
        const tech::StdCellLib cells(process);
        lim::SramDesign d = lim::build_sram(c.sram, process, cells);
        lim::FlowOptions opt;
        opt.activity_cycles = 150;
        const lim::FlowReport rep = lim::run_sram_flow(d, cells, process, opt);
        out = {rep.fmax, rep.power.energy_per_cycle, rep.area};
      });
    plan.add([&in, &c] {
      const brick::Brick b = brick::compile_brick(
          {c.sram.bitcell, c.sram.brick_words, c.sram.bits,
           c.sram.bricks_per_bank()},
          in.process);
      c.brick_corr =
          brick::golden_read(b).delay / brick::estimate_brick(b).read_delay;
    });
  }

  plan.finish = [st](Sheet& s) {
    const std::vector<Config>& cs = st->configs;
    s.w.write_row({"config", "f_meas", "f_meas_min", "f_meas_max",
                   "f_sim_nom", "f_sim_best", "f_sim_worst", "E_meas_norm",
                   "E_sim_norm", "area_um2"});
    Table t({"config", "meas f (min..max)", "sim f (worst/nom/best)",
             "meas E (norm)", "sim E (norm)", "area"});
    double e_ref = 0;
    for (const Config& c : cs) {
      const Flow &nom = c.flows[0], &fast = c.flows[1], &slow = c.flows[2];
      OnlineStats f_chips, e_chips;
      for (const Flow& chip : std::span(c.flows).subspan(3)) {
        const double period_meas = (1.0 / chip.fmax) * c.brick_corr;
        f_chips.add(1.0 / period_meas);
        e_chips.add(chip.energy * c.brick_corr);
      }
      if (&c == &cs.front()) e_ref = e_chips.mean();
      const double e_sim = nom.energy / cs.front().flows[0].energy;
      t.add_row({c.tag,
                 strformat("%s (%s..%s)",
                           format_si(f_chips.mean(), "Hz").c_str(),
                           format_si(f_chips.min(), "Hz").c_str(),
                           format_si(f_chips.max(), "Hz").c_str()),
                 strformat("%s / %s / %s", format_si(slow.fmax, "Hz").c_str(),
                           format_si(nom.fmax, "Hz").c_str(),
                           format_si(fast.fmax, "Hz").c_str()),
                 strformat("%.2f", e_chips.mean() / e_ref),
                 strformat("%.2f", e_sim),
                 strformat("%.0f um2", nom.area * 1e12)});
      s.w.write_row(c.tag, {f_chips.mean(), f_chips.min(), f_chips.max(),
                            nom.fmax, fast.fmax, slow.fmax,
                            e_chips.mean() / e_ref, e_sim, nom.area * 1e12});
    }
    s.txt << "Fig. 4b: chip measurement vs library-based simulation for the"
             " test-chip SRAM configurations\n\n";
    t.print(s.txt);
    const auto f = [&](int i) { return cs[i].flows[0].fmax; };
    const auto e = [&](int i) { return cs[i].flows[0].energy; };
    s.txt << "\nTrend checks (paper Fig. 4b discussion):\n";
    claim(s, "f(A)>f(B)>f(C)>f(D)", f(0) > f(1) && f(1) > f(2) && f(2) > f(3));
    claim(s, "f(B)>f(E)>f(D) (partitioning helps, but E < B)",
          f(1) > f(4) && f(4) > f(3));
    claim(s, "E(A)<E(B)<E(C)<E(D)", e(0) < e(1) && e(1) < e(2) && e(2) < e(3));
    claim(s, "E(E)<E(D) (only the hit bank burns energy)", e(4) < e(3));
    claim(s, "area(E)>area(D) (partitioning costs area)",
          cs[4].flows[0].area > cs[3].flows[0].area);
  };
  return plan;
}

// ------------------------------------------------------------- Fig. 4c
// Rapid design-space exploration: 128x8, 128x16 and 128x32 single
// partitions, each from 16xN, 32xN and 64xN bricks (nine compiled
// bricks). The sweep is timed and must finish within the paper's 2 s.
Plan fig4c(const Inputs& in, std::uint64_t /*seed*/) {
  struct State {
    std::vector<lim::DsePoint> points;
    double wall = 0;
  };
  auto st = std::make_shared<State>();
  Plan plan;
  plan.add([&in, &st = *st] {
    std::vector<lim::PartitionChoice> choices;
    for (int bits : {8, 16, 32})
      for (int brick_words : {16, 32, 64})
        choices.push_back({128, bits, brick_words, tech::BitcellKind::kSram8T});
    const auto t0 = std::chrono::steady_clock::now();
    st.points = lim::sweep_partitions_checkpointed(choices, in.process).points;
    st.wall = seconds_since(t0);
  });
  plan.finish = [st](Sheet& s) {
    const std::vector<lim::DsePoint>& points = st->points;
    // Normalized to the first configuration, as the paper plots.
    const lim::DsePoint& p0 = points[0];
    s.w.write_row({"partition", "brick_words", "stack", "delay_s", "energy_J",
                   "area_m2", "norm_delay", "norm_energy", "norm_area"});
    Table t({"partition", "brick", "stack", "delay", "norm", "energy", "norm",
             "area", "norm"});
    for (const auto& p : points) {
      const std::string partition = strformat("128x%d", p.choice.bits);
      t.add_row({partition,
                 strformat("%dx%d", p.choice.brick_words, p.choice.bits),
                 strformat("%dx", p.choice.stack()),
                 format_si(p.read_delay, "s"),
                 strformat("%.2f", p.read_delay / p0.read_delay),
                 format_si(p.read_energy, "J"),
                 strformat("%.2f", p.read_energy / p0.read_energy),
                 strformat("%.0f um2", p.area * 1e12),
                 strformat("%.2f", p.area / p0.area)});
      s.w.write_row(partition, {static_cast<double>(p.choice.brick_words),
                                static_cast<double>(p.choice.stack()),
                                p.read_delay, p.read_energy, p.area,
                                p.read_delay / p0.read_delay,
                                p.read_energy / p0.read_energy,
                                p.area / p0.area});
    }
    s.txt << "Fig. 4c: design-space exploration of 128xN single partitions"
             " built from different brick shapes\n\n";
    t.print(s.txt);

    // at(b, w): 128 x {8, 16, 32}[b] bits from {16, 32, 64}[w]-word bricks.
    const auto at = [&](int b, int w) -> const lim::DsePoint& {
      return points[3 * b + w];
    };
    bool slower = true, cheaper = true, smaller = true;
    for (int b = 0; b < 3; ++b) {
      slower &= at(b, 0).read_delay < at(b, 2).read_delay;
      cheaper &= at(b, 0).read_energy > at(b, 2).read_energy;
      smaller &= at(b, 0).area > at(b, 2).area;
    }
    const double e_ratio = at(1, 0).read_energy / at(2, 2).read_energy;
    s.txt << "\nTrend checks (paper Fig. 4c discussion):\n";
    claim(s, "larger bricks are slower (longer local RBL)", slower);
    claim(s, "larger bricks consume less energy (fewer sense/control blocks)",
          cheaper);
    claim(s, "larger bricks consume less area", smaller);
    claim(s, "128x16 from 16x16 faster than 128x8 from 64x8",
          at(1, 0).read_delay < at(0, 2).read_delay);
    claim(s, strformat("128x16 from 16x16 energy ~ 128x32 from 64x32 (ratio"
                       " %.2f)", e_ratio),
          e_ratio > 0.7 && e_ratio < 1.4);
    const auto front = lim::pareto_front(points);
    s.txt << strformat("\nPareto-optimal configurations (%zu of %zu):\n",
                       front.size(), points.size());
    for (std::size_t idx : front)
      s.txt << "  " << points[idx].choice.label() << '\n';
    s.txt << strformat("\nSweep wall-clock: %.3f ms for %zu compiled bricks +"
                       " libraries (paper: \"within 2 seconds\")\n",
                       st->wall * 1e3, points.size());
    if (st->wall >= 2.0)
      s.failures.push_back(
          strformat("fig4c sweep took %.3f s (paper: within 2 s)", st->wall));
  };
  return plan;
}

// ----------------------------------------------------------- Section 5
// The paper's circuit-level (16x10 CAM vs SRAM brick) and chip-level (LiM
// vs non-LiM SpGEMM chip) facts; the tables carry the paper's values.
Plan section5(const Inputs& in, std::uint64_t /*seed*/) {
  struct State {
    double sram_area = 0, cam_area = 0, match_golden = 0;
    brick::BrickEstimate es, ec;
  };
  auto st = std::make_shared<State>();
  Plan plan;
  plan.add([&in, &st = *st] {
    const brick::Brick sram = brick::compile_brick(
        {tech::BitcellKind::kSram8T, 16, 10, 1}, in.process);
    const brick::Brick cam = brick::compile_brick(
        {tech::BitcellKind::kCamNor10T, 16, 10, 1}, in.process);
    st.sram_area = sram.layout.area;
    st.cam_area = cam.layout.area;
    st.es = brick::estimate_brick(sram);
    st.ec = brick::estimate_brick(cam);
    st.match_golden = brick::golden_match(cam).energy;
  });
  plan.finish = [&in, st](Sheet& s) {
    constexpr double kFreq = 0.8e9;
    const brick::BrickEstimate &es = st->es, &ec = st->ec;
    const arch::ChipModel &lim = in.lim_chip, &base = in.base_chip;
    s.w.write_row({"quantity", "value"});
    for (const auto& [name, value] :
         {std::pair{"sram_brick_area_m2", st->sram_area},
          {"cam_brick_area_m2", st->cam_area},
          {"sram_read_delay_s", es.read_delay},
          {"cam_read_delay_s", ec.read_delay},
          {"sram_read_power_W", es.read_energy * kFreq},
          {"cam_read_power_W", ec.read_energy * kFreq},
          {"cam_match_power_W", ec.match_energy * kFreq},
          {"cam_match_golden_J", st->match_golden},
          {"lim_fmax_Hz", lim.fmax},
          {"base_fmax_Hz", base.fmax},
          {"lim_power_W", lim.power()},
          {"base_power_W", base.power()},
          {"lim_core_area_m2", lim.core_area},
          {"base_core_area_m2", base.core_area}})
      s.w.write_row(name, {value});

    Table t({"metric", "SRAM brick", "CAM brick", "ratio", "paper"});
    t.add_row({"area", strformat("%.0f um2", st->sram_area * 1e12),
               strformat("%.0f um2", st->cam_area * 1e12),
               strformat("%.2fx", st->cam_area / st->sram_area), "1.83x"});
    t.add_row({"read delay", format_si(es.read_delay, "s"),
               format_si(ec.read_delay, "s"),
               strformat("%.2fx", ec.read_delay / es.read_delay), "1.26x"});
    t.add_row({"read power @0.8GHz", format_si(es.read_energy * kFreq, "W"),
               format_si(ec.read_energy * kFreq, "W"),
               strformat("%.2fx", ec.read_energy / es.read_energy),
               "0.73 / 0.87 mW"});
    t.add_row({"match power @0.8GHz", "-",
               format_si(ec.match_energy * kFreq, "W"), "-", "1.94 mW"});
    Table c({"metric", "LiM chip", "non-LiM chip", "ratio", "paper"});
    c.add_row({"f_max", format_si(lim.fmax, "Hz"), format_si(base.fmax, "Hz"),
               strformat("%.2f", lim.fmax / base.fmax), "475/725 MHz = 0.66"});
    c.add_row({"power per clock", format_si(lim.power(), "W"),
               format_si(base.power(), "W"),
               strformat("%.2f", lim.power() / base.power()),
               "72/96 mW = 0.75"});
    c.add_row({"core area", strformat("%.3f mm2", lim.core_area * 1e6),
               strformat("%.3f mm2", base.core_area * 1e6),
               strformat("%.2f", lim.core_area / base.core_area),
               "0.39/0.33 mm2 = 1.18"});

    s.txt << "Section 5 — circuit level (16x10 bricks)\n\n";
    t.print(s.txt);
    s.txt << strformat(
        "\nGolden match check: tool %s vs golden %s (%+.1f%%)\n",
        format_si(ec.match_energy, "J").c_str(),
        format_si(st->match_golden, "J").c_str(),
        units::percent_error(ec.match_energy, st->match_golden));
    s.txt << "\nSection 5 — chip level\n\n";
    c.print(s.txt);
    const double ar = st->cam_area / st->sram_area;
    const double dr = ec.read_delay / es.read_delay;
    const double fr = lim.fmax / base.fmax;
    s.txt << "\nShape checks:\n";
    claim(s, "CAM brick area ratio in [1.6, 2.1]", ar > 1.6 && ar < 2.1);
    claim(s, "CAM brick slower by 10-50%", dr > 1.1 && dr < 1.5);
    claim(s, "CAM match costs more than CAM read",
          ec.match_energy > ec.read_energy);
    claim(s, "LiM chip clock 25-50% slower", fr > 0.5 && fr < 0.8);
    claim(s, "LiM chip power per clock lower", lim.power() < base.power());
    claim(s, "LiM core area larger", lim.core_area > base.core_area);
  };
  return plan;
}

// -------------------------------------------------------------- Fig. 6
// Latency and energy of the LiM CAM-SpGEMM chip vs the heap/FIFO chip on
// synthetic analogs of the paper's UF matrices: f_max from STA on each
// chip's synthesized core slice, energy per cycle from the brick
// libraries, cycles from exact core simulations whose products are checked
// against the Gustavson reference.
Plan fig6(const Inputs& in, std::uint64_t /*seed*/) {
  struct Row {
    arch::BenchmarkResult lim, heap;
    spgemm::SparseMatrix c_lim, c_heap, golden;
    std::atomic<int> pending{3};
    bool ok = false;
  };
  struct State {
    std::vector<spgemm::Benchmark> suite = spgemm::uf_analog_suite();
    std::vector<Row> rows = std::vector<Row>(suite.size());
  };
  auto st = std::make_shared<State>();
  Plan plan;
  for (std::size_t i = 0; i < st->suite.size(); ++i) {
    const spgemm::SparseMatrix& m = st->suite[i].matrix;
    Row& r = st->rows[i];
    // The last of a row's three jobs compares the products and frees them.
    const auto settle = [&r] {
      if (r.pending.fetch_sub(1) != 1) return;
      r.ok = r.c_lim.approx_equal(r.golden, 1e-9) &&
             r.c_heap.approx_equal(r.golden, 1e-9);
      r.c_lim = r.c_heap = r.golden = {};
    };
    const auto flops = static_cast<double>(m.flops_with(m));
    // Time per flop on the pool, relative to the LiM core: the heap core
    // counts its FIFO's displaced entries with a merge sort (about 2x), and
    // the Gustavson reference, on its own pool like both cores' block
    // tasks, walks every flop twice (count, then sum) with a random-access
    // accumulator (about 1.5x over the suite).
    plan.add([&in, &m, &r, settle] {
      r.heap = arch::run_benchmark(in.base_chip, false, m, {}, &r.c_heap);
      settle();
    }, 2.0 * flops);
    plan.add([&in, &m, &r, settle] {
      r.lim = arch::run_benchmark(in.lim_chip, true, m, {}, &r.c_lim);
      settle();
    }, flops);
    plan.add([&m, &r, settle] {
      r.golden = spgemm::multiply_reference(m, m);
      settle();
    }, 1.5 * flops);
  }

  plan.finish = [st](Sheet& s) {
    s.w.write_row({"benchmark", "n", "nnz", "flops", "lim_s", "heap_s",
                   "speedup", "lim_J", "heap_J", "energy_ratio"});
    Table t({"benchmark", "n", "nnz", "flops", "LiM time", "heap time",
             "speedup", "LiM E", "heap E", "E ratio", "check"});
    OnlineStats speedups, eratios;
    for (std::size_t i = 0; i < st->suite.size(); ++i) {
      const spgemm::Benchmark& bench = st->suite[i];
      const Row& r = st->rows[i];
      const double speedup = r.heap.seconds / r.lim.seconds;
      const double eratio = r.heap.joules / r.lim.joules;
      speedups.add(speedup);
      eratios.add(eratio);
      const std::int64_t flops = bench.matrix.flops_with(bench.matrix);
      t.add_row({bench.name, std::to_string(bench.matrix.rows()),
                 std::to_string(bench.matrix.nnz()), std::to_string(flops),
                 format_si(r.lim.seconds, "s"), format_si(r.heap.seconds, "s"),
                 strformat("%.1fx", speedup), format_si(r.lim.joules, "J"),
                 format_si(r.heap.joules, "J"), strformat("%.1fx", eratio),
                 r.ok ? "OK" : "MISMATCH"});
      s.w.write_row(bench.name, {static_cast<double>(bench.matrix.rows()),
                                 static_cast<double>(bench.matrix.nnz()),
                                 static_cast<double>(flops), r.lim.seconds,
                                 r.heap.seconds, speedup, r.lim.joules,
                                 r.heap.joules, eratio});
      s.doc_rows.push_back(
          {bench.name, strformat("| %.1f× | %.1f× |", speedup, eratio)});
      if (!r.ok)
        s.failures.push_back("fig6 " + bench.name +
                             ": a core's product differs from the reference");
    }
    s.txt << "Fig. 6: SpGEMM completion latency and energy, LiM CAM chip vs"
             " standard heap chip (clocks and power: Section 5)\n\n";
    t.print(s.txt);
    s.txt << strformat("\nObserved ranges: speedup %.1fx..%.1fx (paper:"
                       " 7x..250x), energy %.1fx..%.1fx (paper: 10x..310x)\n",
                       speedups.min(), speedups.max(), eratios.min(),
                       eratios.max())
          << "Shape checks:\n";
    claim(s, "LiM wins every benchmark", speedups.min() > 1.0);
    claim(s, "speedup spans >= one order of magnitude",
          speedups.max() / speedups.min() >= 10.0);
    claim(s, "energy ratio exceeds speedup (slower clock, lower power)",
          eratios.max() > speedups.max());
  };
  return plan;
}

// ------------------------------------------------- ablation: banking
// Beyond Fig. 4b: how f_max, energy per cycle and area move as a fixed-
// size SRAM is split into more banks, at 128x10 and 256x10.
Plan ablation_banking(const Inputs& in, std::uint64_t /*seed*/) {
  struct Case {
    lim::SramConfig cfg;
    lim::FlowReport rep;
  };
  auto cases = std::make_shared<std::vector<Case>>();
  for (int words : {128, 256})
    for (int banks : {1, 2, 4, 8}) {
      const lim::SramConfig cfg{words, 10, banks, 16};
      if (cfg.rows_per_bank() % cfg.brick_words == 0)
        cases->push_back({cfg, {}});
    }
  Plan plan;
  for (Case& c : *cases)
    plan.add([&in, &c] {
      lim::SramDesign d = lim::build_sram(c.cfg, in.process, in.cells);
      lim::FlowOptions opt;
      opt.activity_cycles = 120;
      c.rep = lim::run_sram_flow(d, in.cells, in.process, opt);
    });
  plan.finish = [cases](Sheet& s) {
    s.w.write_row({"memory", "banks", "fmax_Hz", "E_cycle_J", "area_m2",
                   "wirelength_m"});
    Table t({"memory", "banks", "bricks/bank", "fmax", "E/cycle", "area",
             "wirelength"});
    for (const auto& [cfg, rep] : *cases) {
      const std::string memory = strformat("%dx10", cfg.words);
      t.add_row({memory, std::to_string(cfg.banks),
                 std::to_string(cfg.bricks_per_bank()),
                 format_si(rep.fmax, "Hz"),
                 format_si(rep.power.energy_per_cycle, "J"),
                 strformat("%.0f um2", rep.area * 1e12),
                 format_si(rep.wirelength, "m")});
      s.w.write_row(memory, {static_cast<double>(cfg.banks), rep.fmax,
                             rep.power.energy_per_cycle, rep.area,
                             rep.wirelength});
    }
    s.txt << "Ablation: banking sweep (fixed total size, varying partition"
             " count)\n\n";
    t.print(s.txt);
  };
  return plan;
}

// -------------------------------------------------- ablation: SpGEMM
// Beyond the paper: the horizontal-CAM capacity and column-stripe width
// the paper fixed at 16 entries / 32 columns, swept on a social_syn-class
// workload drawn from the seed.
Plan ablation_spgemm(const Inputs& in, std::uint64_t seed) {
  struct Case {
    int cam, stripe;
    arch::CoreStats stats;
  };
  struct State {
    spgemm::SparseMatrix a;
    std::vector<Case> cases;
  };
  auto st = std::make_shared<State>();
  Rng rng(seed);
  st->a = spgemm::gen_rmat(12, 26 * 4096, 0.55, 0.18, 0.18, rng);
  for (int cam : {8, 16, 32, 64})
    for (int stripe : {16, 32, 64}) st->cases.push_back({cam, stripe, {}});
  Plan plan;
  for (Case& c : st->cases)
    plan.add([&c, &a = st->a] {
      arch::CoreConfig cfg;
      cfg.cam_entries = c.cam;
      cfg.blocking.col_stripe = c.stripe;
      (void)arch::lim_spgemm(a, a, cfg, &c.stats);
    }, static_cast<double>(st->a.flops_with(st->a)));
  plan.finish = [&in, st](Sheet& s) {
    s.w.write_row({"cam_entries", "stripe", "cycles", "spilled", "avg_active",
                   "seconds"});
    Table t({"CAM entries", "stripe cols", "cycles", "spill entries",
             "avg active cols", "time @fmax"});
    for (const auto& [cam, stripe, stats] : st->cases) {
      const double seconds = static_cast<double>(stats.cycles) /
                             in.lim_chip.fmax;
      t.add_row({std::to_string(cam), std::to_string(stripe),
                 std::to_string(stats.cycles),
                 std::to_string(stats.spilled_entries),
                 strformat("%.1f", stats.avg_active_columns()),
                 format_si(seconds, "s")});
      s.w.write_row(std::to_string(cam),
                    {static_cast<double>(stripe),
                     static_cast<double>(stats.cycles),
                     static_cast<double>(stats.spilled_entries),
                     stats.avg_active_columns(), seconds});
    }
    s.txt << "Ablation: LiM core parameters on a social_syn-class workload"
             " (paper's choice: CAM=16 entries, N=32 columns)\n\n";
    t.print(s.txt);
  };
  return plan;
}

// --------------------------------------------------- ablation: litho
// What restrictive patterning buys (§2.1, Fig. 1): the block area of the
// Fig. 4b SRAMs when legacy logic needs a lithography keepout halo around
// every brick, next to pattern-compliant logic that abuts them.
Plan ablation_litho(const Inputs& in, std::uint64_t /*seed*/) {
  struct Case {
    const char* tag;
    lim::SramConfig cfg;
    double area[2] = {};  // LiM halo, legacy halo
  };
  auto cases = std::make_shared<std::vector<Case>>(std::vector<Case>{
      {"64x10 (4 bricks)", {64, 10, 1, 16}},
      {"128x10 (8 bricks)", {128, 10, 1, 16}},
      {"128x10 (4 banks)", {128, 10, 4, 16}}});
  // Pattern-compliant logic: minimal assembly halo. Legacy: a lithography
  // keepout of several metal pitches (Fig. 1b spacing).
  const double kHalos[2] = {4e-6, 12e-6};
  Plan plan;
  for (Case& c : *cases)
    for (int h = 0; h < 2; ++h)
      plan.add([&in, &c, h, halo = kHalos[h]] {
        lim::SramDesign d = lim::build_sram(c.cfg, in.process, in.cells);
        synth::synthesize(d.nl, d.lib, in.cells);
        place::PlaceOptions popt;
        popt.macro_halo = halo;
        const netlist::BoundDesign bound(d.nl, d.lib);
        c.area[h] = place::place_design(bound, in.process, popt).area;
      });
  plan.finish = [cases](Sheet& s) {
    const auto abutment = [](tech::PatternClass logic) {
      const std::vector<layout::Region> regions{
          {"array", layout::Rect{0, 0, 20e-6, 10e-6},
           tech::PatternClass::kBitcell},
          {"logic", layout::Rect{20e-6, 0, 30e-6, 10e-6}, logic}};
      return layout::check_patterns(regions).clean() ? "clean" : "HOTSPOT";
    };
    s.w.write_row({"design", "lim_area_m2", "legacy_area_m2", "penalty_pct"});
    Table t({"design", "LiM halo area", "legacy halo area", "penalty"});
    for (const Case& c : *cases) {
      const double penalty = 100.0 * (c.area[1] / c.area[0] - 1.0);
      t.add_row({c.tag, strformat("%.0f um2", c.area[0] * 1e12),
                 strformat("%.0f um2", c.area[1] * 1e12),
                 strformat("+%.0f%%", penalty)});
      s.w.write_row(c.tag, {c.area[0], c.area[1], penalty});
    }
    s.txt << "Ablation: lithography keepout cost without restrictive"
             " patterning\n(pattern-compliant logic abuts bricks; legacy"
             " logic needs a halo — Fig. 1)\n\n"
          << "pattern check, compliant logic abutting array : "
          << abutment(tech::PatternClass::kLogicRegular)
          << "\npattern check, legacy logic abutting array    : "
          << abutment(tech::PatternClass::kLogicLegacy) << "\n\n";
    t.print(s.txt);
  };
  return plan;
}

struct ArtifactSpec {
  const char* name;  // writes <name>.csv
  /// The committed CSVs reproduce only at these seeds (0: none drawn).
  std::uint64_t seed;
  Plan (*generate)(const Inputs&, std::uint64_t seed);
};

/// Every committed artifact, in the order its tables are printed.
const ArtifactSpec kArtifacts[] = {
    {"table1", 0, table1},
    {"fig4b", 2026, fig4b},
    {"fig4c", 0, fig4c},
    {"section5", 0, section5},
    {"fig6", 0, fig6},
    {"ablation_banking", 0, ablation_banking},
    {"ablation_spgemm", 21, ablation_spgemm},
    {"litho", 0, ablation_litho},
};

}  // namespace

}  // namespace limsynth

/// Writes every artifact's CSV and BENCH_e2e.json (walls, worker count,
/// CSV CRC-64s) into the current directory. With `check` it writes no
/// file: each CSV must equal the one in the current directory (the
/// repository root holds the committed ones) and EXPERIMENTS.md's Fig. 6
/// table must match fig6.csv. Returns 1 after printing "FAIL: ..." for
/// each difference or failed gate, else 0.
int run_repro(bool check) {
  using namespace limsynth;
  const auto t0 = std::chrono::steady_clock::now();
  const Inputs in;
  // An artifact's span_s is its setup, plus the time from its first job's
  // start to its last job's end on the shared pool, plus its finish step.
  struct Artifact {
    const ArtifactSpec& spec;
    Plan plan;
    double span_s;
  };
  std::vector<Artifact> artifacts;
  std::vector<Job*> jobs;
  for (const ArtifactSpec& spec : kArtifacts) {
    const double start = seconds_since(t0);
    Artifact& a = artifacts.emplace_back(spec, spec.generate(in, spec.seed));
    a.span_s = seconds_since(t0) - start;
    for (Job& job : a.plan.jobs) jobs.push_back(&job);
  }
  std::stable_sort(jobs.begin(), jobs.end(), [](const Job* x, const Job* y) {
    return x->cost > y->cost;
  });
  const int workers =
      static_cast<int>(std::max(1U, std::thread::hardware_concurrency()));
  parallel_for(jobs.size(), workers, [&](std::size_t k) {
    jobs[k]->start = seconds_since(t0);
    jobs[k]->run();
    jobs[k]->end = seconds_since(t0);
    return true;
  });

  fs::Fs& disk = fs::Fs::real();
  const auto write = [&disk](const std::string& file, const std::string& data) {
    const fs::IoStatus st = disk.write_file_atomic(file, data);
    if (!st.ok()) throw Error(ErrorCode::kIo, file + ": " + st.message);
  };
  std::vector<std::string> failures;
  std::string json = strformat(
      "{\n  \"command\": \"limsynth repro\",\n  \"note\": \"an artifact's"
      " span_s is its setup, plus its first job's start to its last job's"
      " end on the shared pool, plus its finish step\",\n"
      "  \"workers\": %d,\n  \"hardware_threads\": %u,\n  \"artifacts\": [",
      workers, std::thread::hardware_concurrency());
  std::string md;
  if (check && !disk.read_file("EXPERIMENTS.md", &md).ok())
    failures.push_back("EXPERIMENTS.md cannot be read");
  for (Artifact& a : artifacts) {
    const double start = seconds_since(t0);
    Sheet s;
    a.plan.finish(s);
    a.span_s += seconds_since(t0) - start;
    if (!a.plan.jobs.empty()) {
      double first = a.plan.jobs.front().start, last = 0;
      for (const Job& job : a.plan.jobs) {
        first = std::min(first, job.start);
        last = std::max(last, job.end);
      }
      a.span_s += last - first;
    }
    std::cout << s.txt.str() << '\n';
    failures.insert(failures.end(), s.failures.begin(), s.failures.end());

    const std::string file = std::string(a.spec.name) + ".csv";
    const std::string csv = s.csv.str();
    std::string committed;
    if (!check) {
      write(file, csv);
    } else if (!disk.read_file(file, &committed).ok() || committed != csv) {
      failures.push_back(file + " differs");
    }
    for (const auto& [key, cells] : s.doc_rows) {
      if (!check) break;
      const std::size_t at = md.find("\n| " + key + ' ');
      std::string row = at == std::string::npos
                            ? ""
                            : md.substr(at + 1, md.find('\n', at + 1) - at - 1);
      for (std::size_t bold; (bold = row.find("**")) != std::string::npos;)
        row.erase(bold, 2);
      if (!row.ends_with(cells))
        failures.push_back("EXPERIMENTS.md row " + key + " does not end \"" +
                           cells + "\" like " + file);
    }
    json += strformat(
        "%s\n    {\"name\": \"%s\", \"jobs\": %zu, \"span_s\": %.4f,"
        " \"crc64\": \"%016llx\"}",
        &a == &artifacts.front() ? "" : ",", a.spec.name, a.plan.jobs.size(),
        a.span_s, static_cast<unsigned long long>(fs::crc64(csv)));
  }
  const double wall = seconds_since(t0);
  json += strformat("\n  ],\n  \"wall_s\": %.4f\n}\n", wall);
  if (!check) write("BENCH_e2e.json", json);

  for (const std::string& f : failures)
    std::fprintf(stderr, "FAIL: %s\n", f.c_str());
  std::printf("repro%s: %zu artifacts, %zu jobs, %d workers, %.2f s\n",
              check ? " --check" : "", artifacts.size(), jobs.size(), workers,
              wall);
  return failures.empty() ? 0 : 1;
}
