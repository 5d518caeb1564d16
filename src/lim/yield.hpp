// Monte-Carlo yield analysis.
//
// The paper reports chip measurements "averaged out of multiple chips, with
// maximum and minimum tested speeds shown as bars" (Fig. 4b). This utility
// generalizes the same machinery: sample fabricated-chip process variants,
// run the flow on each, and report the f_max distribution plus parametric
// yield at a target frequency — the speed-binning view a product team
// would ask of the methodology.
//
// analyze_yield_full() adds the manufacturing half: each sampled chip also
// draws a defect population (fault/defects.hpp), the repair allocator
// tries to fix it with the config's spare rows and ECC, and the result
// combines functional, post-repair and parametric yield per frequency bin
// — turning every design point from "nominal numbers" into "shippable
// fraction at speed".
#pragma once

#include <atomic>
#include <functional>
#include <vector>

#include "fault/defects.hpp"
#include "lim/sram_builder.hpp"
#include "tech/process.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace limsynth::lim {

struct YieldResult {
  std::vector<double> fmax_samples;  // Hz, one per simulated chip
  OnlineStats stats;
  /// Fraction of chips meeting each queried frequency.
  std::vector<std::pair<double, double>> yield_curve;  // (freq, yield)

  /// Fraction of sampled chips with f_max >= freq. Frequencies outside
  /// the sampled range simply saturate (1.0 below it, 0.0 above it).
  double yield_at(double freq) const;
};

// ------------------------------------------------- defect-aware yield

/// Seed of the random_cycles write/read trace every verified chip replays.
inline constexpr std::uint64_t kYieldVerifySeed = 20150608;

struct FullYieldOptions {
  int chips = 100;
  std::uint64_t seed = 1;
  /// Override the process defect density (negative = use the
  /// tech::Process value; the clustering is always the process's).
  double defect_density_per_m2 = -1.0;
  /// Cooperative cancellation (SIGINT/SIGTERM handlers set it). Checked
  /// between sampled chips: on cancel the analysis throws
  /// Error(kInterrupted) *before* any output is written, so the CLI
  /// stops with the stable interrupted exit code (8) instead of dying
  /// mid-write.
  const std::atomic<bool>* cancel = nullptr;
  /// Gate-level functional verification of every repairable chip: replay
  /// this many cycles of a deterministic write/read trace against the
  /// chip's post-repair fault overlay and compare read data to a
  /// fault-free golden — the allocator's "shippable" verdict tested end
  /// to end. 0 disables (analytic verdicts only). The replay runs 63
  /// chips per bit-plane pass (bitsim) with lane 0 holding the golden.
  int verify_cycles = 0;
};

struct FullYieldResult {
  int chips = 0;
  int functional_good = 0;  // defect-free logical array, pre-repair
  int repaired_good = 0;    // shippable after spare-row repair + ECC
  YieldResult parametric;   // f_max distribution over all chips
  double mean_defects = 0.0;
  double mean_spares_used = 0.0;

  struct Bin {
    double freq = 0.0;
    double parametric = 0.0;  // fraction of all chips with f_max >= freq
    double combined = 0.0;    // repairable AND f_max >= freq
  };
  std::vector<Bin> bins;

  // Functional verification (verify_cycles > 0; all zero otherwise).
  int verified = 0;         // repairable chips functionally replayed
  int verified_good = 0;    // replays whose reads matched the golden
  /// Per-chip replay verdict: 1 = reads matched the golden everywhere,
  /// 0 = mismatch or not verified (unrepairable chips are never run).
  std::vector<std::uint8_t> chip_verified;

  double functional_yield() const {
    return chips ? static_cast<double>(functional_good) / chips : 0.0;
  }
  double post_repair_yield() const {
    return chips ? static_cast<double>(repaired_good) / chips : 0.0;
  }
};

/// The config's array as the defect model sees it: physical rows (spares
/// included), stored columns (ECC checks included), and the bank area the
/// brick estimator reports, scaled for the spare rows.
fault::ArrayGeometry array_geometry(const SramConfig& cfg,
                                    const tech::Process& process);

/// A cheap analytic f_max proxy — 1 / min_cycle of the config's bank
/// brick under the sampled process — for yield curves that don't need a
/// full flow run per chip.
std::function<double(const tech::Process&)> estimator_fmax(
    const SramConfig& cfg);

/// Full defect + parametric yield analysis: per chip, samples process
/// variation (f_max via `measure_fmax`; pass nullptr for the estimator
/// proxy) and a defect population, plans repair with the config's spare
/// rows and ECC, and bins the results at 80%..110% of the mean f_max.
/// Deterministic given the seed.
FullYieldResult analyze_yield_full(
    const SramConfig& cfg, const tech::Process& nominal,
    const FullYieldOptions& options = {},
    const std::function<double(const tech::Process&)>& measure_fmax = {});

}  // namespace limsynth::lim
