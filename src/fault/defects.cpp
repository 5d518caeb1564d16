#include "fault/defects.hpp"

#include <cmath>

#include "util/error.hpp"

namespace limsynth::fault {

namespace {

// Share of defects landing on each structure class, calibrated to the
// area split of a compiled brick: the bitcell array dominates, the
// wordline/bitline periphery and the control block take small fixed
// shares. For CAM bricks the wordline share is split with match lines.
constexpr double kCellShare = 0.76;
constexpr double kRowShare = 0.10;   // wordline drivers / row periphery
constexpr double kColShare = 0.08;   // bitline / sense periphery
constexpr double kBrickShare = 0.06; // control block

}  // namespace

void ArrayGeometry::validate() const {
  LIMS_CHECK_MSG(banks >= 1, "geometry needs at least one bank");
  LIMS_CHECK_MSG(rows >= 1 && cols >= 1,
                 "geometry " << rows << "x" << cols << " is empty");
  LIMS_CHECK_MSG(spare_rows >= 0 && spare_rows < rows,
                 "spare rows " << spare_rows << " out of range for " << rows
                               << " physical rows");
  LIMS_CHECK_MSG(brick_words >= 1, "brick_words must be positive");
  LIMS_CHECK_MSG(bank_area >= 0.0, "negative bank area");
}

double gamma_sample(double shape, Rng& rng) {
  LIMS_CHECK_MSG(shape > 0.0, "gamma shape must be positive");
  // Marsaglia-Tsang squeeze; the shape<1 case uses the standard boost
  // Gamma(a) = Gamma(a+1) * U^(1/a).
  if (shape < 1.0) {
    const double u = rng.uniform();
    return gamma_sample(shape + 1.0, rng) * std::pow(u, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x, v;
    do {
      x = rng.gaussian();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = rng.uniform();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v;
    if (std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) return d * v;
  }
}

int poisson_sample(double lambda, Rng& rng) {
  LIMS_CHECK_MSG(lambda >= 0.0, "poisson lambda must be non-negative");
  // Knuth's product method, chunked so exp(-lambda) never underflows.
  int count = 0;
  while (lambda > 400.0) {
    // Split off a Poisson(400) component (sum of independent Poissons).
    double p = 1.0;
    const double limit = std::exp(-400.0);
    int k = 0;
    do {
      ++k;
      p *= rng.uniform();
    } while (p > limit);
    count += k - 1;
    lambda -= 400.0;
  }
  double p = 1.0;
  const double limit = std::exp(-lambda);
  int k = 0;
  do {
    ++k;
    p *= rng.uniform();
  } while (p > limit);
  return count + k - 1;
}

double expected_defects(const ArrayGeometry& geom,
                        double defect_density_per_m2) {
  return defect_density_per_m2 * geom.total_area();
}

std::vector<Defect> sample_defects(const ArrayGeometry& geom,
                                   double defect_density_per_m2,
                                   double cluster_alpha, Rng& rng) {
  geom.validate();
  LIMS_CHECK_MSG(defect_density_per_m2 >= 0.0, "negative defect density");
  LIMS_CHECK_MSG(cluster_alpha > 0.0, "cluster alpha must be positive");

  const double lambda = expected_defects(geom, defect_density_per_m2);
  std::vector<Defect> defects;
  if (lambda <= 0.0) return defects;

  // Negative-binomial count: chip-wide Gamma(alpha) multiplier (mean 1)
  // models the spatial clustering of real defect maps.
  const double g = gamma_sample(cluster_alpha, rng) / cluster_alpha;
  const int n = poisson_sample(lambda * g, rng);
  defects.reserve(static_cast<std::size_t>(n));

  for (int i = 0; i < n; ++i) {
    Defect d;
    d.bank = static_cast<int>(rng.below(static_cast<std::uint64_t>(geom.banks)));
    const double u = rng.uniform();
    if (u < kCellShare) {
      d.kind = rng.chance(0.5) ? DefectKind::kCellStuck1
                               : DefectKind::kCellStuck0;
      d.row = static_cast<int>(rng.below(static_cast<std::uint64_t>(geom.rows)));
      d.col = static_cast<int>(rng.below(static_cast<std::uint64_t>(geom.cols)));
    } else if (u < kCellShare + kRowShare) {
      d.row = static_cast<int>(rng.below(static_cast<std::uint64_t>(geom.rows)));
      if (geom.cam && rng.chance(0.5)) {
        d.kind = rng.chance(0.5) ? DefectKind::kMatchlineStuck1
                                 : DefectKind::kMatchlineStuck0;
      } else {
        d.kind = DefectKind::kWordlineDead;
      }
    } else if (u < kCellShare + kRowShare + kColShare) {
      d.kind = DefectKind::kBitlineDead;
      d.col = static_cast<int>(rng.below(static_cast<std::uint64_t>(geom.cols)));
    } else {
      d.kind = DefectKind::kBrickDead;
      d.brick = static_cast<int>(
          rng.below(static_cast<std::uint64_t>(geom.bricks_per_bank())));
    }
    defects.push_back(d);
  }
  return defects;
}

}  // namespace limsynth::fault
