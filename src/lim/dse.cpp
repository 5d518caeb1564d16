#include "lim/dse.hpp"

#include "brick/cache.hpp"
#include "fault/inject.hpp"
#include "fault/repair.hpp"
#include "util/error.hpp"

namespace limsynth::lim {

std::string PartitionChoice::label() const {
  return std::to_string(words) + "x" + std::to_string(bits) + " from " +
         std::to_string(brick_words) + "x" + std::to_string(bits) +
         " bricks (" + std::to_string(stack()) + "x stack)";
}

void PartitionChoice::validate() const {
  LIMS_CHECK_MSG(words >= 1, "partition depth " << words << " is empty");
  LIMS_CHECK_MSG(bits >= 1 && bits <= 64,
                 "word width " << bits << " outside [1, 64]");
  LIMS_CHECK_MSG(brick_words >= 1, "brick_words must be positive");
  LIMS_CHECK_MSG(words % brick_words == 0,
                 "partition words " << words << " not divisible by brick words "
                                    << brick_words);
}

namespace {

/// Post-repair functional yield of one partition (a single bank): sample
/// `yield_chips` defect populations over its area and count the chips the
/// repair allocator can fix.
double partition_yield(const PartitionChoice& choice, int width,
                       double bank_area, const tech::Process& process,
                       const SweepOptions& opt) {
  fault::ArrayGeometry geom;
  geom.banks = 1;
  geom.rows = choice.words + opt.spare_rows;
  geom.spare_rows = opt.spare_rows;
  geom.cols = width;
  geom.brick_words = choice.brick_words;
  geom.cam = choice.bitcell == tech::BitcellKind::kCamNor10T;
  geom.bank_area = bank_area * (static_cast<double>(geom.rows) /
                                static_cast<double>(choice.words));
  const double d0 = opt.defect_density_per_m2 >= 0.0
                        ? opt.defect_density_per_m2
                        : process.defect_density_per_m2;
  // Decorrelate the defect streams of different points while staying
  // deterministic for a given (seed, choice).
  const std::uint64_t seed =
      opt.yield_seed ^ (static_cast<std::uint64_t>(choice.words) << 32) ^
      (static_cast<std::uint64_t>(choice.bits) << 16) ^
      static_cast<std::uint64_t>(choice.brick_words);
  Rng rng(seed);
  int good = 0;
  for (int i = 0; i < opt.yield_chips; ++i) {
    fault::FaultMap map(
        geom,
        fault::sample_defects(geom, d0, process.defect_cluster_alpha, rng));
    if (fault::allocate_repairs(map, opt.ecc).repairable) ++good;
  }
  return static_cast<double>(good) / opt.yield_chips;
}

}  // namespace

DsePoint evaluate_partition(const PartitionChoice& choice,
                            const tech::Process& process,
                            const SweepOptions& options) {
  DIAG_CONTEXT("evaluate partition " + choice.label());
  choice.validate();
  const int width =
      options.ecc ? fault::secded_total_bits(choice.bits) : choice.bits;
  const brick::BrickSpec spec{choice.bitcell, choice.brick_words, width,
                              choice.stack()};
  // Shared memo cache: the same brick shape recurs across stack counts
  // and repeated sweeps, and compilation is a pure function of
  // (spec, process). Parallel sweep workers share this too.
  const std::shared_ptr<const brick::CompiledBrick> b =
      brick::BrickCache::global().get(spec, process);
  DsePoint p;
  p.choice = choice;
  p.estimate = b->estimate;
  p.read_delay = p.estimate.read_delay;
  p.read_energy = p.estimate.read_energy;
  p.area = p.estimate.bank_area;
  if (options.yield_chips > 0) {
    p.post_repair_yield =
        partition_yield(choice, width, p.area, process, options);
  }
  return p;
}

DsePoint evaluate_partition_caught(const PartitionChoice& choice,
                                   const tech::Process& process,
                                   const SweepOptions& options) {
  try {
    return evaluate_partition(choice, process, options);
  } catch (const Error& e) {
    // Graceful degradation: the sweep keeps going, and the failure is
    // carried on the point so reports can show which shapes were rejected
    // and why.
    DsePoint p;
    p.choice = choice;
    p.ok = false;
    p.error = e.what();
    p.error_code = e.code();
    p.post_repair_yield = 0.0;
    return p;
  }
}

std::vector<std::size_t> pareto_front(
    const std::vector<std::array<double, 3>>& points) {
  std::vector<std::size_t> front;
  for (std::size_t i = 0; i < points.size(); ++i) {
    bool dominated = false;
    for (std::size_t j = 0; j < points.size() && !dominated; ++j) {
      if (i == j) continue;
      bool le_all = true, lt_any = false;
      for (int k = 0; k < 3; ++k) {
        if (points[j][static_cast<std::size_t>(k)] >
            points[i][static_cast<std::size_t>(k)])
          le_all = false;
        if (points[j][static_cast<std::size_t>(k)] <
            points[i][static_cast<std::size_t>(k)])
          lt_any = true;
      }
      dominated = le_all && lt_any;
    }
    if (!dominated) front.push_back(i);
  }
  return front;
}

std::vector<std::size_t> pareto_front(const std::vector<DsePoint>& points,
                                      double min_post_repair_yield) {
  std::vector<std::size_t> eligible;
  std::vector<std::array<double, 3>> raw;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const DsePoint& p = points[i];
    if (!p.ok || p.post_repair_yield < min_post_repair_yield) continue;
    eligible.push_back(i);
    raw.push_back({p.read_delay, p.read_energy, p.area});
  }
  std::vector<std::size_t> front;
  for (std::size_t k : pareto_front(raw)) front.push_back(eligible[k]);
  return front;
}

}  // namespace limsynth::lim
