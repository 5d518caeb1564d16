// Quickstart: the LiM synthesis flow in ~80 lines.
//
//   1. Compile a memory brick (the white-box primitive).
//   2. Generate its library model instantly (delay/energy/area).
//   3. Elaborate a 1R1W SRAM from stacked bricks + synthesized decoders.
//   4. Run the physical-synthesis flow: synthesis, placement, STA, power.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>
#include <iostream>
#include <sstream>

#include "brick/cache.hpp"
#include "liberty/writer.hpp"
#include "lim/flow.hpp"
#include "util/units.hpp"

using namespace limsynth;

int main() {
  // ------------------------------------------------ 1. compile a brick
  const tech::Process process = tech::default_process();
  const brick::BrickSpec spec{tech::BitcellKind::kSram8T, /*words=*/16,
                              /*bits=*/10, /*stack=*/2};
  const auto compiled = brick::BrickCache::global().get(spec, process);
  const brick::Brick& b = compiled->brick;
  std::printf("Compiled %s: %.0f um2, wordline driver X%.0f, sense X%.0f\n",
              spec.name().c_str(), b.layout.area * 1e12, b.wl_inv_drive,
              b.sense_drive);

  // --------------------------------- 2. instant performance estimation
  const brick::BrickEstimate& est = compiled->estimate;
  std::printf("Estimator: read %s / %s, write %s / %s, min cycle %s\n",
              units::format_si(est.read_delay, "s").c_str(),
              units::format_si(est.read_energy, "J").c_str(),
              units::format_si(est.write_delay, "s").c_str(),
              units::format_si(est.write_energy, "J").c_str(),
              units::format_si(est.min_cycle, "s").c_str());

  // The macro model that drops into any synthesis flow (.lib substitute).
  liberty::Library brick_lib("quickstart_bricks");
  brick_lib.add(compiled->libcell);
  std::ostringstream lib_text;
  liberty::write_liberty(brick_lib, lib_text);
  std::printf("Generated liberty model: %zu bytes of .lib text\n",
              lib_text.str().size());

  // ------------------------- 3. elaborate a white-box SRAM around bricks
  const tech::StdCellLib cells(process);
  lim::SramConfig cfg;
  cfg.words = 32;
  cfg.bits = 10;
  cfg.banks = 1;
  cfg.brick_words = 16;  // two stacked 16x10 bricks, like the paper's Fig. 3
  lim::SramDesign design = lim::build_sram(cfg, process, cells);
  std::printf("Elaborated %s: %zu instances, %zu nets\n", cfg.name().c_str(),
              design.nl.live_instance_count(), design.nl.nets().size());

  // ------------------------------------- 4. run the full physical flow
  lim::FlowOptions opt;
  opt.activity_cycles = 200;
  const lim::FlowReport rep = lim::run_sram_flow(design, cells, process, opt);

  std::printf("\nFlow results for %s:\n", cfg.name().c_str());
  std::printf("  f_max        : %s (critical endpoint: %s)\n",
              units::format_si(rep.fmax, "Hz").c_str(),
              rep.timing.critical_endpoint.c_str());
  std::printf("  block area   : %.0f um2 (%.0f um2 of brick macros)\n",
              rep.area * 1e12, rep.synthesis.macro_area * 1e12);
  std::printf("  wirelength   : %s\n",
              units::format_si(rep.wirelength, "m").c_str());
  std::printf("  power @fmax  : %s  (%.2f pJ/cycle; macro share %.0f%%)\n",
              units::format_si(rep.power.total(), "W").c_str(),
              rep.power.energy_per_cycle * 1e12,
              100.0 * rep.power.macro / rep.power.total());
  std::printf("\nDone. Explore further: examples/sram_design_space,\n"
              "examples/spgemm_accelerator, examples/parallel_access_memory,\n"
              "examples/interpolation_memory.\n");
  return 0;
}
