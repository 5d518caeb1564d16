// Cycle-level, functionally exact models of the two fabricated SpGEMM
// accelerators (paper §4/§5):
//
//  * LiM core — 32 "horizontal" CAM columns (16-entry, 10-bit row index,
//    values in a scratchpad SRAM with embedded multiply-add) plus one
//    "vertical" CAM for column assembly. An A-column element is broadcast
//    once; every active column does a single-cycle match-and-update.
//    CAM overflow flushes to a spill buffer and is re-merged at drain.
//
//  * Heap core — conventional column-by-column multi-way merge where the
//    priority queue is built from FIFO SRAMs: inserting a successor shifts
//    the sorted FIFO one element per (read+write) cycle pair, and the
//    FIFOs are re-arranged at every column — the latency the paper blames
//    for the baseline's 7-250x loss.
//
// Both models compute the exact product (verified against the Gustavson
// reference in tests) while counting cycles and micro-operations.
//
// Like the chips, both models split C into independent (row block x column
// stripe) tasks (spgemm/blocking.hpp). They run the tasks on the shared
// worker pool (util/parallel.hpp), one worker per hardware thread. C is
// sized before the tasks run, and each task writes its own counters and its
// own tile of C in place, so C and every counter are the same on any number
// of threads.
#pragma once

#include <cstdint>

#include "arch/dram.hpp"
#include "spgemm/blocking.hpp"
#include "spgemm/sparse.hpp"

namespace limsynth::arch {

struct CoreConfig {
  spgemm::BlockingConfig blocking;  // 1024-row blocks x 32-column stripes
  int cam_entries = 16;             // horizontal CAM capacity
};

struct CoreStats {
  std::int64_t cycles = 0;

  // LiM micro-ops.
  std::int64_t broadcasts = 0;   // A-element broadcast cycles
  std::int64_t searches = 0;     // CAM search-and-update ops (all columns)
  std::int64_t inserts = 0;      // new-entry ops
  std::int64_t spills = 0;       // CAM overflow flushes
  std::int64_t spilled_entries = 0;

  // Heap micro-ops.
  std::int64_t pops = 0;         // min extractions (with fused MAC)
  std::int64_t shift_cycles = 0; // FIFO shift read+write cycles
  std::int64_t fifo_loads = 0;   // list elements loaded into FIFOs

  // Common.
  std::int64_t multiplies = 0;
  std::int64_t output_entries = 0;
  std::int64_t block_tasks = 0;
  std::int64_t load_cycles = 0;  // on-chip buffer fill (overlapped)

  /// Average concurrently-active CAM columns per broadcast cycle.
  double avg_active_columns() const {
    return broadcasts > 0
               ? static_cast<double>(searches) / static_cast<double>(broadcasts)
               : 0.0;
  }
};

/// C = A * B on the LiM CAM core.
spgemm::SparseMatrix lim_spgemm(const spgemm::SparseMatrix& a,
                                const spgemm::SparseMatrix& b,
                                const CoreConfig& config, CoreStats* stats);

/// C = A * B on the heap/FIFO baseline core.
spgemm::SparseMatrix heap_spgemm(const spgemm::SparseMatrix& a,
                                 const spgemm::SparseMatrix& b,
                                 const CoreConfig& config, CoreStats* stats);

}  // namespace limsynth::arch
