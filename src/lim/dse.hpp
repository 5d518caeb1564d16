// Rapid design-space exploration (paper §3 "Rapid design-space
// exploration", Fig. 4c).
//
// Because brick libraries are generated analytically in microseconds, a
// sweep over array sizes, brick shapes and partition counts evaluates
// instantly ("compiling the netlists and generating the library
// estimations were finalized within 2 seconds of wall clock time") and
// Pareto fronts over {delay, energy, area} drop out.
//
// Sweeps degrade gracefully: an invalid partition doesn't abort the run —
// its point is marked failed and carries the error message, and the
// Pareto front considers the valid points only. With yield options set,
// every point also gets a defect-aware post-repair yield (fault/ +
// lim/yield), making manufacturability a fourth DSE axis. The sweep itself
// runs on the journaled executor: sweep_partitions_checkpointed
// (lim/checkpoint.hpp).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "brick/brick.hpp"
#include "brick/estimator.hpp"
#include "util/error.hpp"

namespace limsynth::lim {

/// One memory partition built from stacked bricks: a `words x bits` array
/// assembled from `brick_words x bits` bricks stacked words/brick_words
/// times.
struct PartitionChoice {
  int words = 128;
  int bits = 8;
  int brick_words = 16;
  tech::BitcellKind bitcell = tech::BitcellKind::kSram8T;

  /// Bricks stacked per partition; 0 for nonsensical shapes (validate()
  /// rejects those, but label()/reporting must not divide by zero first).
  int stack() const { return brick_words > 0 ? words / brick_words : 0; }
  std::string label() const;

  /// Throws limsynth::Error with a clear message on inconsistent shapes
  /// (evaluate_partition calls this before touching the brick compiler).
  void validate() const;
};

struct SweepOptions {
  /// Fault-tolerance features applied to every evaluated partition. With
  /// `ecc` the brick widens to the SECDED codeword (the estimate reflects
  /// the extra columns); `spare_rows` adds redundancy for repair.
  bool ecc = false;
  int spare_rows = 0;

  /// Defect-aware yield axis: when `yield_chips` > 0, each valid point
  /// samples that many chips' defect populations and records the
  /// post-repair yield. Deterministic given `yield_seed`.
  int yield_chips = 0;
  std::uint64_t yield_seed = 1;
  /// Negative = use the tech::Process defect density. The defect
  /// clustering is always the process's.
  double defect_density_per_m2 = -1.0;
};

struct DsePoint {
  PartitionChoice choice;
  /// Evaluation status: failed points (bad shapes, compiler errors) stay
  /// in the sweep with `ok` false and the error message + taxonomy code
  /// captured, so reports and CSV rows can flag them.
  bool ok = true;
  std::string error;
  ErrorCode error_code = ErrorCode::kInternal;  // meaningful when !ok
  double read_delay = 0.0;  // s
  double read_energy = 0.0; // J
  double area = 0.0;        // m^2
  /// Fraction of sampled chips repairable to full function (1.0 when the
  /// sweep ran without a yield axis).
  double post_repair_yield = 1.0;
  brick::BrickEstimate estimate;  // full detail
};

/// Evaluates one partition through the brick compiler + estimator.
/// Throws on invalid shapes; a sweep (lim/checkpoint.hpp) catches per
/// point.
DsePoint evaluate_partition(const PartitionChoice& choice,
                            const tech::Process& process,
                            const SweepOptions& options = {});

/// evaluate_partition with the sweep's per-point degradation applied: any
/// limsynth::Error is captured on the returned point (ok=false, error,
/// error_code) instead of propagating.
DsePoint evaluate_partition_caught(const PartitionChoice& choice,
                                   const tech::Process& process,
                                   const SweepOptions& options = {});

/// Indices of the Pareto-minimal points over (delay, energy, area):
/// a point survives unless another point is <= on all axes and < on one.
std::vector<std::size_t> pareto_front(
    const std::vector<std::array<double, 3>>& points);

/// Convenience: Pareto front of a DSE sweep over the valid points only.
/// `min_post_repair_yield` additionally drops points below the yield
/// floor — yield as a fourth, constraint-style axis.
std::vector<std::size_t> pareto_front(const std::vector<DsePoint>& points,
                                      double min_post_repair_yield = 0.0);

}  // namespace limsynth::lim
