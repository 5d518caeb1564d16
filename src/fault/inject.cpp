#include "fault/inject.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace limsynth::fault {

FaultMap::FaultMap(const ArrayGeometry& geom, std::vector<Defect> defects)
    : geom_(geom), defects_(std::move(defects)),
      banks_(static_cast<std::size_t>(geom.banks)) {
  geom_.validate();
  for (const Defect& d : defects_) {
    LIMS_CHECK_MSG(d.bank >= 0 && d.bank < geom_.banks,
                   "defect bank " << d.bank << " out of range");
    BankFaults& bf = banks_[static_cast<std::size_t>(d.bank)];
    switch (d.kind) {
      case DefectKind::kCellStuck0:
      case DefectKind::kCellStuck1:
        LIMS_CHECK(d.row >= 0 && d.row < geom_.rows);
        LIMS_CHECK(d.col >= 0 && d.col < geom_.cols);
        bf.stuck[{d.row, d.col}] = d.kind == DefectKind::kCellStuck1;
        break;
      case DefectKind::kWordlineDead:
        LIMS_CHECK(d.row >= 0 && d.row < geom_.rows);
        bf.dead_rows.insert(d.row);
        break;
      case DefectKind::kBitlineDead:
        LIMS_CHECK(d.col >= 0 && d.col < geom_.cols);
        bf.dead_cols.insert(d.col);
        break;
      case DefectKind::kBrickDead: {
        LIMS_CHECK(d.brick >= 0 && d.brick < geom_.bricks_per_bank());
        const int lo = d.brick * geom_.brick_words;
        const int hi = std::min(geom_.rows, lo + geom_.brick_words);
        for (int r = lo; r < hi; ++r) bf.dead_rows.insert(r);
        break;
      }
      case DefectKind::kMatchlineStuck0:
      case DefectKind::kMatchlineStuck1:
        LIMS_CHECK(d.row >= 0 && d.row < geom_.rows);
        bf.match_stuck[d.row] = d.kind == DefectKind::kMatchlineStuck1;
        break;
    }
  }
}

const FaultMap::BankFaults& FaultMap::bank(int b) const {
  LIMS_CHECK_MSG(b >= 0 && b < static_cast<int>(banks_.size()),
                 "bank " << b << " out of range");
  return banks_[static_cast<std::size_t>(b)];
}

bool FaultMap::row_dead(int b, int row) const {
  return bank(b).dead_rows.count(row) > 0;
}

int FaultMap::faulty_bits_in_row(int b, int row) const {
  const BankFaults& bf = bank(b);
  std::set<int> cols = bf.dead_cols;
  for (auto it = bf.stuck.lower_bound({row, 0});
       it != bf.stuck.end() && it->first.first == row; ++it)
    cols.insert(it->first.second);
  return static_cast<int>(cols.size());
}

int FaultMap::match_override(int b, int row) const {
  const auto& ms = bank(b).match_stuck;
  const auto it = ms.find(row);
  return it == ms.end() ? -1 : (it->second ? 1 : 0);
}

void FaultMap::apply_repair(const RepairResult& rr) {
  for (const RowRepair& r : rr.repairs) {
    LIMS_CHECK_MSG(r.bank >= 0 && r.bank < geom_.banks,
                   "repair bank out of range");
    LIMS_CHECK_MSG(r.row >= 0 && r.row < geom_.logical_rows(),
                   "repaired row " << r.row << " not in the logical region");
    LIMS_CHECK_MSG(r.spare >= geom_.logical_rows() && r.spare < geom_.rows,
                   "spare " << r.spare << " not in the spare region");
    banks_[static_cast<std::size_t>(r.bank)].remap[r.row] = r.spare;
  }
  repaired_ = true;
}

int FaultMap::physical_row(int b, int logical_row) const {
  const auto& remap = bank(b).remap;
  const auto it = remap.find(logical_row);
  return it == remap.end() ? logical_row : it->second;
}

std::uint64_t FaultMap::corrupt_read(int b, int logical_row,
                                     std::uint64_t stored) const {
  const int row = physical_row(b, logical_row);
  const BankFaults& bf = bank(b);
  if (bf.dead_rows.count(row)) return 0;  // wordline never fires
  std::uint64_t v = stored;
  for (int col : bf.dead_cols) v &= ~(std::uint64_t{1} << col);
  for (auto it = bf.stuck.lower_bound({row, 0});
       it != bf.stuck.end() && it->first.first == row; ++it) {
    const std::uint64_t bit = std::uint64_t{1} << it->first.second;
    if (it->second)
      v |= bit;
    else
      v &= ~bit;
  }
  return v;
}

int FaultMap::match_override_logical(int b, int logical_row) const {
  return match_override(b, physical_row(b, logical_row));
}

bool FaultMap::logical_array_clean() const {
  const int logical = geom_.logical_rows();
  for (const BankFaults& bf : banks_) {
    if (!bf.dead_cols.empty()) return false;
    if (!bf.dead_rows.empty() && *bf.dead_rows.begin() < logical)
      return false;
    if (!bf.match_stuck.empty() && bf.match_stuck.begin()->first < logical)
      return false;
    for (const auto& [pos, value] : bf.stuck) {
      (void)value;
      if (pos.first < logical) return false;
    }
  }
  return true;
}

}  // namespace limsynth::fault
