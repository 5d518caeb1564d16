// 3D-stacked DRAM streaming model (Zhu et al. [12], the memory system the
// paper's chips assume): sparse sub-blocks are laid out along DRAM rows so
// block fetches stream at full TSV bandwidth, paying an activation only on
// row-buffer misses.
#pragma once

#include <cstdint>

#include "util/error.hpp"

namespace limsynth::arch {

/// Matrix elements (index+value) delivered per accelerator cycle over the
/// TSV bus when streaming from an open row.
inline constexpr double kDramWordsPerCycle = 4.0;
/// Elements per DRAM row (row-buffer reach for one activation).
inline constexpr std::int64_t kDramRowWords = 256;
/// Cycles per activation (ACT + RCD at the accelerator clock).
inline constexpr std::int64_t kDramActivateCycles = 12;
/// Extra activations per block for non-contiguous starts.
inline constexpr std::int64_t kDramBlockSetupActivations = 2;

/// Cycle cost of streaming `words` elements of one sub-block. The [12]
/// layout makes blocks row-contiguous, so misses = ceil(words/row_words).
inline std::int64_t dram_stream_cycles(std::int64_t words) {
  LIMS_CHECK(words >= 0);
  if (words == 0) return 0;
  const std::int64_t transfers = static_cast<std::int64_t>(
      static_cast<double>(words) / kDramWordsPerCycle + 0.999999);
  const std::int64_t activations =
      (words + kDramRowWords - 1) / kDramRowWords + kDramBlockSetupActivations;
  return transfers + activations * kDramActivateCycles;
}

/// Cycle cost if the same data were scattered randomly across rows (no
/// [12] blocking): every burst of kDramWordsPerCycle risks a new row. Used
/// to quantify what the predictable-access layout buys.
inline std::int64_t dram_random_cycles(std::int64_t words) {
  LIMS_CHECK(words >= 0);
  if (words == 0) return 0;
  const std::int64_t transfers = static_cast<std::int64_t>(
      static_cast<double>(words) / kDramWordsPerCycle + 0.999999);
  return transfers + words * kDramActivateCycles / 8;  // 1-in-8 bursts miss
}

}  // namespace limsynth::arch
