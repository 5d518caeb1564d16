// Reproduces Fig. 4b of the paper: comparison of chip measurements to
// library-based simulations for the taped-out 1R1W SRAM configurations.
//
// Configurations (all 8T, 16x10 bricks unless noted):
//   A = 16x10  (1 brick)            B = 32x10 (2 stacked bricks)
//   C = 64x10  (4 stacked)          D = 128x10 (8 stacked)
//   E = 128x10 in 4 banks of 2 stacked bricks each
//
// "Simulation" = the library-based flow (synthesis + placement + STA +
// activity power) at nominal/best/worst corners — what the paper runs in
// PrimeTime with generated brick libraries. "Measurement" = Monte-Carlo
// fabricated-chip samples where the brick read path is measured by the
// golden transient simulator (the silicon stand-in), combined with the
// logic portion of the STA period scaled to the sampled process.
//
// Shapes to verify against the paper:
//   f(A) > f(B) > f(C) > f(D);   f(B) > f(E) > f(D)
//   E(A) < E(B) < E(C) < E(D);   E(E) < E(D);  area(E) > area(D)
//   simulation tracks measurement across the range.
#include <cstdio>
#include <fstream>
#include <iostream>

#include "brick/golden.hpp"
#include "lim/flow.hpp"
#include "util/args.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

using namespace limsynth;

namespace {

struct Config {
  const char* tag;
  lim::SramConfig sram;
};

struct Row {
  std::string tag;
  double f_sim_nom = 0, f_sim_best = 0, f_sim_worst = 0;
  double f_meas_mean = 0, f_meas_min = 0, f_meas_max = 0;
  double energy_sim = 0;   // J per cycle at nominal fmax
  double energy_meas = 0;  // mean over chips
  double area = 0;
};

double flow_fmax(const lim::SramConfig& cfg, const tech::Process& process,
                 lim::FlowReport* out_report = nullptr) {
  const tech::StdCellLib cells(process);
  lim::SramConfig c = cfg;
  lim::SramDesign d = lim::build_sram(c, process, cells);
  lim::FlowOptions opt;
  opt.activity_cycles = 150;
  const lim::FlowReport rep = lim::run_sram_flow(d, cells, process, opt);
  if (out_report != nullptr) *out_report = rep;
  return rep.fmax;
}

}  // namespace

int main(int argc, char** argv) {
  const tech::Process tt = tech::default_process();
  const std::uint64_t seed =
      args::parse_or_exit({"bench_fig4b", {{"--seed", args::Type::kU64, "N"}}},
                          argc, argv)
          .get_u64("--seed", 2026);

  const Config configs[] = {
      {"A 16x10 (1 brick)", {16, 10, 1, 16}},
      {"B 32x10 (2 stacked)", {32, 10, 1, 16}},
      {"C 64x10 (4 stacked)", {64, 10, 1, 16}},
      {"D 128x10 (8 stacked)", {128, 10, 1, 16}},
      {"E 128x10 (4 banks x 2)", {128, 10, 4, 16}},
  };

  std::printf("Fig. 4b: chip measurement vs library-based simulation for the"
              " test-chip SRAM configurations\n\n");

  std::vector<Row> rows;
  for (const auto& cfg : configs) {
    Row row;
    row.tag = cfg.tag;

    // ------------------------- simulation at corners (PrimeTime substitute)
    lim::FlowReport nominal;
    row.f_sim_nom = flow_fmax(cfg.sram, tt, &nominal);
    row.f_sim_best = flow_fmax(cfg.sram, tt.at_corner(tech::Corner::kFast));
    row.f_sim_worst = flow_fmax(cfg.sram, tt.at_corner(tech::Corner::kSlow));
    row.energy_sim = nominal.power.energy_per_cycle;
    row.area = nominal.area;

    // --------------------------------- "fabricated chips" (Monte Carlo + golden)
    // Golden/estimator brick-delay correction measured once at nominal.
    const brick::BrickSpec bspec{cfg.sram.bitcell, cfg.sram.brick_words,
                                 cfg.sram.bits, cfg.sram.bricks_per_bank()};
    const brick::Brick nom_brick = brick::compile_brick(bspec, tt);
    const double nom_est = brick::estimate_brick(nom_brick).read_delay;
    const brick::GoldenMeasurement nom_gold = brick::golden_read(nom_brick);
    const double brick_corr = nom_gold.delay / nom_est;

    Rng rng(seed);
    OnlineStats f_chips, e_chips;
    const int kChips = 8;
    for (int chip = 0; chip < kChips; ++chip) {
      const tech::Process sample = tt.monte_carlo_chip(rng);
      lim::FlowReport rep;
      const double f = flow_fmax(cfg.sram, sample, &rep);
      // Measured period: STA period with the brick portion corrected by the
      // golden/estimator ratio (silicon reads slightly slower than the
      // library model, Table 1).
      const double period_meas = (1.0 / f) * brick_corr;
      f_chips.add(1.0 / period_meas);
      e_chips.add(rep.power.energy_per_cycle * brick_corr);
    }
    row.f_meas_mean = f_chips.mean();
    row.f_meas_min = f_chips.min();
    row.f_meas_max = f_chips.max();
    row.energy_meas = e_chips.mean();
    rows.push_back(row);
    std::fprintf(stderr, "[fig4b] %s done\n", cfg.tag);
  }

  const double e_ref = rows.front().energy_meas;
  const double e_ref_sim = rows.front().energy_sim;

  Table t({"config", "meas f (min..max)", "sim f (worst/nom/best)",
           "meas E (norm)", "sim E (norm)", "area"});
  for (const auto& r : rows) {
    t.add_row({r.tag,
               strformat("%s (%s..%s)",
                         units::format_si(r.f_meas_mean, "Hz").c_str(),
                         units::format_si(r.f_meas_min, "Hz").c_str(),
                         units::format_si(r.f_meas_max, "Hz").c_str()),
               strformat("%s / %s / %s",
                         units::format_si(r.f_sim_worst, "Hz").c_str(),
                         units::format_si(r.f_sim_nom, "Hz").c_str(),
                         units::format_si(r.f_sim_best, "Hz").c_str()),
               strformat("%.2f", r.energy_meas / e_ref),
               strformat("%.2f", r.energy_sim / e_ref_sim),
               strformat("%.0f um2", r.area * 1e12)});
  }
  t.print(std::cout);

  // Shape checks mirrored from the paper's discussion.
  auto f = [&](int i) { return rows[static_cast<std::size_t>(i)].f_sim_nom; };
  auto e = [&](int i) { return rows[static_cast<std::size_t>(i)].energy_sim; };
  std::printf("\nTrend checks (paper Fig. 4b discussion):\n");
  std::printf("  f(A)>f(B)>f(C)>f(D): %s\n",
              (f(0) > f(1) && f(1) > f(2) && f(2) > f(3)) ? "PASS" : "FAIL");
  std::printf("  f(B)>f(E)>f(D) (partitioning helps, but E < B): %s\n",
              (f(1) > f(4) && f(4) > f(3)) ? "PASS" : "FAIL");
  std::printf("  E(A)<E(B)<E(C)<E(D): %s\n",
              (e(0) < e(1) && e(1) < e(2) && e(2) < e(3)) ? "PASS" : "FAIL");
  std::printf("  E(E)<E(D) (only the hit bank burns energy): %s\n",
              (e(4) < e(3)) ? "PASS" : "FAIL");
  std::printf("  area(E)>area(D) (partitioning costs area): %s\n",
              (rows[4].area > rows[3].area) ? "PASS" : "FAIL");

  std::ofstream csv("fig4b.csv");
  CsvWriter w(csv);
  w.write_row({"config", "f_meas", "f_meas_min", "f_meas_max", "f_sim_nom",
               "f_sim_best", "f_sim_worst", "E_meas_norm", "E_sim_norm",
               "area_um2"});
  for (const auto& r : rows) {
    w.write_row(r.tag, {r.f_meas_mean, r.f_meas_min, r.f_meas_max, r.f_sim_nom,
                        r.f_sim_best, r.f_sim_worst, r.energy_meas / e_ref,
                        r.energy_sim / e_ref_sim, r.area * 1e12});
  }
  std::printf("\n(wrote fig4b.csv)\n");
  return 0;
}
