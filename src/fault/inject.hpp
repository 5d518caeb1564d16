// Fault injection: overlaying sampled defects on the functional model of
// a memory array.
//
// A FaultMap digests a chip's defect list (fault/defects.hpp) into
// per-bank lookup structures and answers the two questions the rest of
// the system asks:
//  * simulation — "what does a read of this row actually return?"
//    (lim::SramBankModel / lim::CamBankModel call corrupt_read /
//    match_override on every access), and
//  * repair analysis — "which rows are defective and how badly?"
//    (fault/repair.hpp plans spare allocation from the same map).
// Applying a RepairResult installs the fuse remap, so repaired rows read
// from their clean spares — the post-repair chip, simulated end to end.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "fault/defects.hpp"
#include "fault/repair.hpp"

namespace limsynth::fault {

class FaultMap {
 public:
  FaultMap() = default;
  FaultMap(const ArrayGeometry& geom, std::vector<Defect> defects);

  const ArrayGeometry& geometry() const { return geom_; }
  const std::vector<Defect>& defects() const { return defects_; }

  // --- physical-coordinate queries (repair planning) ---

  /// Row never activates (dead wordline or dead brick).
  bool row_dead(int bank, int row) const;
  /// Distinct faulty bit positions in the row: stuck cells plus dead
  /// bitline columns.
  int faulty_bits_in_row(int bank, int row) const;
  /// CAM match-line fault: -1 none, 0 stuck-miss, 1 stuck-match.
  int match_override(int bank, int row) const;

  // --- repair remap ---

  void apply_repair(const RepairResult& rr);
  bool repaired() const { return repaired_; }
  /// Physical row a logical access lands on (identity until repaired).
  int physical_row(int bank, int logical_row) const;

  // --- simulation overlay (logical coordinates) ---

  /// The stored word as the sense amplifiers deliver it: dead rows read
  /// as all zeros, dead columns and stuck cells force their bits.
  std::uint64_t corrupt_read(int bank, int logical_row,
                             std::uint64_t stored) const;
  /// Match-line override for a logical CAM row (-1 none, 0/1 forced).
  int match_override_logical(int bank, int logical_row) const;

  /// True when no defect touches the logical (non-spare) region — the
  /// pre-repair "functional good" criterion of a fabricated chip.
  bool logical_array_clean() const;

 private:
  struct BankFaults {
    std::map<std::pair<int, int>, bool> stuck;  // (row, col) -> stuck value
    std::set<int> dead_rows;                    // wordline / brick kills
    std::set<int> dead_cols;                    // bitline kills
    std::map<int, bool> match_stuck;            // row -> forced match value
    std::map<int, int> remap;                   // logical row -> spare row
  };

  const BankFaults& bank(int b) const;

  ArrayGeometry geom_;
  std::vector<Defect> defects_;
  std::vector<BankFaults> banks_;
  bool repaired_ = false;
};

}  // namespace limsynth::fault
