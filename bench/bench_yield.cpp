// Defect-aware yield study of the paper's test-chip configuration E
// (128x10 in 4 banks): how much manufacturing yield do spare rows and
// SECDED ECC buy back, and what do they cost in area?
//
// The paper measured fabricated chips ("averaged out of multiple chips");
// this bench plays the same game in simulation — sample per-chip defect
// populations from a clustered Poisson model, attempt repair, and report
// functional / post-repair / combined yield per redundancy scheme.
//
// The repair allocator's verdicts are then tested end to end: every
// repairable chip of the best scheme is functionally replayed against its
// post-repair fault overlay, 63 chips per pass on the bit-plane kernel
// (whose golden lane is checked against the scalar settle engine every
// cycle). Writes yield_redundancy.csv and BENCH_yield.json; with --check,
// exits nonzero when no chip was replayed or the redundancy win
// regresses.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>

#include "brick/estimator.hpp"
#include "lim/yield.hpp"
#include "util/args.hpp"
#include "util/csv.hpp"
#include "util/jsonl.hpp"
#include "util/table.hpp"

using namespace limsynth;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const args::Args a = args::parse_or_exit(
      {"bench_yield", {{"--seed", args::Type::kU64, "N"}, {"--check"}}}, argc,
      argv);
  const bool check = a.has("--check");
  const tech::Process process = tech::default_process();
  lim::FullYieldOptions opt;
  opt.chips = 400;
  opt.seed = a.get_u64("--seed", 20150608);  // DAC'15
  // A deliberately dirty process (the default 0.2/cm2 is invisible at
  // sub-mm2 arrays): a few defects per chip on average.
  opt.defect_density_per_m2 = 2e8;

  struct Scheme {
    const char* label;
    int spares;
    bool ecc;
  };
  const Scheme schemes[] = {
      {"none", 0, false},
      {"2 spare rows", 2, false},
      {"SECDED", 0, true},
      {"SECDED + 2 spares", 2, true},
      {"SECDED + 4 spares", 4, true},
  };

  Table t({"scheme", "functional", "post-repair", "mean defects",
           "mean spares", "area"});
  std::ofstream csv("yield_redundancy.csv");
  CsvWriter w(csv);
  w.write_row({"scheme", "spares", "ecc", "functional_yield",
               "post_repair_yield", "mean_defects", "mean_spares_used",
               "area_m2"});

  double base_yield = 0.0, best_yield = 0.0;
  for (const Scheme& s : schemes) {
    lim::SramConfig cfg{128, 10, 4, 16};
    cfg.spare_rows = s.spares;
    cfg.ecc = s.ecc;
    const lim::FullYieldResult res =
        lim::analyze_yield_full(cfg, process, opt);
    const fault::ArrayGeometry geom = lim::array_geometry(cfg, process);
    const double area = geom.total_area();
    if (!s.spares && !s.ecc) base_yield = res.post_repair_yield();
    best_yield = std::max(best_yield, res.post_repair_yield());
    t.add_row({s.label, strformat("%.1f%%", 100.0 * res.functional_yield()),
               strformat("%.1f%%", 100.0 * res.post_repair_yield()),
               strformat("%.2f", res.mean_defects),
               strformat("%.2f", res.mean_spares_used),
               strformat("%.0f um2", area * 1e12)});
    w.write_row(s.label,
                {static_cast<double>(s.spares), s.ecc ? 1.0 : 0.0,
                 res.functional_yield(), res.post_repair_yield(),
                 res.mean_defects, res.mean_spares_used, area});
  }
  std::printf("Yield vs. redundancy for configuration E (128x10, 4 banks),"
              " %d chips at D0 = %.1f/cm2:\n\n",
              opt.chips, opt.defect_density_per_m2 / 1e4);
  t.print(std::cout);
  std::printf("\nredundancy buys %.1f%% -> %.1f%% post-repair yield\n",
              100.0 * base_yield, 100.0 * best_yield);
  std::printf("(wrote yield_redundancy.csv)\n");

  // --- functional replay verification ---------------------------------
  lim::SramConfig vcfg{128, 10, 4, 16};
  vcfg.spare_rows = 2;
  vcfg.ecc = true;
  lim::FullYieldOptions vopt = opt;
  vopt.verify_cycles = 40;

  const auto tb = std::chrono::steady_clock::now();
  const lim::FullYieldResult verified =
      lim::analyze_yield_full(vcfg, process, vopt);
  const double verify_secs = seconds_since(tb);
  std::printf("\nverify: %d repairable chips replayed over %d cycles in"
              " %.3fs, %d/%d matched golden\n",
              verified.verified, vopt.verify_cycles, verify_secs,
              verified.verified_good, verified.verified);

  using jsonl::format_g17;
  std::ofstream json("BENCH_yield.json");
  json << "{\n"
       << "  \"chips\": " << opt.chips << ",\n"
       << "  \"base_yield\": " << format_g17(base_yield) << ",\n"
       << "  \"best_yield\": " << format_g17(best_yield) << ",\n"
       << "  \"verify_cycles\": " << vopt.verify_cycles << ",\n"
       << "  \"verified\": " << verified.verified << ",\n"
       << "  \"verified_good\": " << verified.verified_good << ",\n"
       << "  \"verify_seconds\": " << format_g17(verify_secs) << "\n"
       << "}\n";
  json.close();
  std::printf("wrote BENCH_yield.json\n");

  if (check) {
    bool ok = true;
    if (best_yield <= base_yield) {
      std::fprintf(stderr, "FAIL: redundancy bought no yield (%.3f -> %.3f)\n",
                   base_yield, best_yield);
      ok = false;
    }
    if (verified.verified == 0) {
      std::fprintf(stderr, "FAIL: verification replayed zero chips\n");
      ok = false;
    }
    if (!ok) return 1;
    std::printf("check: OK\n");
  }
  return best_yield > base_yield ? 0 : 1;
}
