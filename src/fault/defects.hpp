// Manufacturing-defect models for brick-built memory arrays.
//
// The paper's silicon results average "multiple chips, with maximum and
// minimum tested speeds shown as bars" (Fig. 4b) — real dies with process
// variation *and* point defects. This module supplies the defect half:
// a Poisson defect-density model (with negative-binomial clustering, the
// standard wafer-yield formulation) sampled over the physical area of a
// bank of stacked bricks, producing discrete defects — stuck bitcells,
// dead word lines / bit lines, dead bricks, and stuck CAM match lines —
// that the injection layer (fault/inject.hpp) overlays on the functional
// simulation and the repair allocator (fault/repair.hpp) tries to fix.
#pragma once

#include <vector>

#include "util/rng.hpp"

namespace limsynth::fault {

enum class DefectKind {
  kCellStuck0,      // one bitcell reads as 0 regardless of contents
  kCellStuck1,      // one bitcell reads as 1
  kWordlineDead,    // row never activates: the whole word reads as 0
  kBitlineDead,     // column never discharges: that bit reads as 0 in
                    // every row of the bank
  kBrickDead,       // control-block defect kills every row of one brick
  kMatchlineStuck0, // CAM row can never signal a match
  kMatchlineStuck1, // CAM row always signals a match
};

/// One sampled defect. Coordinates are physical (spare rows included);
/// which fields are meaningful depends on `kind`.
struct Defect {
  DefectKind kind = DefectKind::kCellStuck0;
  int bank = 0;
  int row = 0;    // cell / wordline / matchline defects
  int col = 0;    // cell / bitline defects
  int brick = 0;  // brick defects

  bool operator==(const Defect&) const = default;
};

/// Physical shape of the array the defects land on. `rows` counts spare
/// rows; logical addresses cover [0, logical_rows()).
struct ArrayGeometry {
  int banks = 1;
  int rows = 0;         // physical rows per bank (spares included)
  int spare_rows = 0;   // of which, spares (the top rows of each bank)
  int cols = 0;         // bits per word (ECC check bits included)
  int brick_words = 16; // rows per brick
  bool cam = false;     // sample match-line faults instead of a share
                        // of wordline faults
  double bank_area = 0.0;  // m^2 per bank, spares included

  int logical_rows() const { return rows - spare_rows; }
  int bricks_per_bank() const { return (rows + brick_words - 1) / brick_words; }
  double total_area() const { return bank_area * banks; }

  void validate() const;
};

/// Samples the defect population of one fabricated chip. The defect count
/// is negative-binomial — Poisson(D0 * area * g) with a per-chip Gamma
/// multiplier g of shape `cluster_alpha` (mean 1) — matching the classic
/// clustered-yield model Y = (1 + A*D0/alpha)^-alpha. Fully deterministic
/// given the Rng state. `defect_density_per_m2` and `cluster_alpha`
/// normally come from tech::Process.
std::vector<Defect> sample_defects(const ArrayGeometry& geom,
                                   double defect_density_per_m2,
                                   double cluster_alpha, Rng& rng);

/// Expected defect count for the geometry (lambda of the mixed Poisson).
double expected_defects(const ArrayGeometry& geom,
                        double defect_density_per_m2);

/// Poisson and Gamma variates built on the deterministic Rng stream
/// (exposed for tests and other samplers).
int poisson_sample(double lambda, Rng& rng);
double gamma_sample(double shape, Rng& rng);  // scale 1

}  // namespace limsynth::fault
