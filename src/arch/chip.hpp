// Chip-level models of the two fabricated SpGEMM accelerators.
//
// f_max comes from running the LiM physical-synthesis flow on a gate-level
// reference slice of each core's critical loop:
//   LiM:      CAM match -> detect -> scratchpad wordline; and
//             scratchpad DO -> multiply-add -> write-back (the
//             single-cycle "multiply and add or new entry" of Fig. 5)
//   baseline: FIFO SRAM DO -> comparator/shift network -> FIFO WDATA
//
// Per-cycle energy is composed from the generated brick models (CAM
// search, SRAM read/write, buffer access) plus flow-measured logic power,
// with documented average activity factors standing in for the paper's
// "averaged out of multiple test vectors".
#pragma once

#include "arch/cores.hpp"
#include "lim/flow.hpp"
#include "tech/process.hpp"
#include "tech/stdcell.hpp"

namespace limsynth::arch {

struct ChipModel {
  std::string name;
  double fmax = 0.0;              // Hz
  double energy_per_cycle = 0.0;  // J (average over vectors)
  double power() const { return energy_per_cycle * fmax; }
  double core_area = 0.0;         // m^2, computation core block
  double chip_area = 0.0;         // m^2, incl. A/B buffers + pads

  // Energy composition (diagnostics).
  double e_cam_match = 0.0;   // per active CAM column search
  double e_sram_read = 0.0;
  double e_sram_write = 0.0;
  double e_buffer_read = 0.0;
  double e_logic = 0.0;       // MAC / comparator slice per cycle

  lim::FlowReport timing;     // flow report of the reference slice
};

/// Builds the LiM CAM-SpGEMM chip model (32 horizontal CAMs + vertical
/// CAM + scratchpads + MAC, fed by on-chip A/B buffers).
ChipModel build_lim_chip(const tech::Process& process,
                         const tech::StdCellLib& cells);

/// Builds the conventional heap/FIFO chip model.
ChipModel build_baseline_chip(const tech::Process& process,
                              const tech::StdCellLib& cells);

struct BenchmarkResult {
  CoreStats stats;
  double seconds = 0.0;
  double joules = 0.0;
};

/// Runs C = A * A on the chip (cycle simulation x chip clock/power) and
/// returns latency/energy. `product` receives C when non-null.
BenchmarkResult run_benchmark(const ChipModel& chip, bool is_lim,
                              const spgemm::SparseMatrix& a,
                              const CoreConfig& config,
                              spgemm::SparseMatrix* product = nullptr);

}  // namespace limsynth::arch
