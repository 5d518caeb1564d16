// Stratified soft-error injection campaigns.
//
// A campaign draws N injection samples over the design's three site
// strata — macro array bits, flops, SET-able gate outputs — allocated
// proportionally to stratum size (largest-remainder rounding), runs each
// against one shared golden replay, and aggregates the outcome taxonomy
// into per-stratum AVFs, Wilson confidence intervals, and the derated
// FIT/MTBF from the tech model's raw upset rates (fault/soft.hpp).
//
// Determinism contract: sample i's site, cycle and SET shape derive from
// Rng(mix(seed, i)) alone, and the report is computed from the records
// ordered by sample index — so the bytes of the report are identical for
// any --workers value and any completed/resumed split.
//
// A campaign runs on the one journaled executor (util/jsonl.hpp), like a
// DSE sweep (lim/checkpoint.hpp): one JSON line per completed sample,
// appended in sample order and keyed by a campaign fingerprint covering
// everything that affects per-sample results, so the journal bytes are
// identical for any --workers value too. Resuming tolerates torn trailing
// lines (a SIGKILL mid-write) and skips entries from a different campaign.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fault/soft.hpp"
#include "seu/seu.hpp"
#include "util/jsonl.hpp"
#include "util/stats.hpp"

namespace limsynth::seu {

/// Macro-bit and flop samples are classified on the bit-plane batch kernel
/// (seu/batch.hpp), 63 per pass against a resident golden lane. SET
/// samples (120 ps pulses, strike-to-edge lead drawn from [50, 600) ps),
/// groups the kernel bails on and every sample of a design it cannot bind
/// run on the scalar event engine. Both give the same classification.
struct CampaignOptions {
  int samples = 1000;
  std::uint64_t seed = 1;
  /// Adjacent macro bits flipped per SEU (1 = single-bit, >1 = MCU burst).
  int burst = 1;
  /// Journal, resume, whole-campaign budget, cancellation and worker
  /// threads (`run.jobs`; each run owns a private EventSimulator). A
  /// stopped campaign leaves the journal holding every sample of its
  /// result, so --resume can finish the rest.
  jsonl::RunOptions run;
};

struct SampleRecord {
  int sample = -1;  // -1 = not yet computed (timed-out campaign)
  SiteKind kind = SiteKind::kMacroBit;
  std::string site;
  std::uint64_t cycle = 0;
  Outcome outcome = Outcome::kMasked;
  bool latent = false;
  std::string detail;
};

struct StratumStats {
  std::uint64_t sites = 0;    // injectable locations in the design
  std::uint64_t samples = 0;  // completed injections drawn here
  std::uint64_t counts[kOutcomes] = {};

  /// Architectural vulnerability factor: the fraction of raw upsets that
  /// become architecturally visible (SDC, DUE or hang). Corrected and
  /// masked upsets are invisible to the architecture.
  double avf() const;
  /// Per-outcome derating factor for this stratum.
  double rate(Outcome o) const;
};

struct CampaignResult {
  std::string key;        // campaign fingerprint (hex)
  int samples = 0;        // requested
  int completed = 0;      // records with sample >= 0
  int batched = 0;        // computed samples classified by the batch kernel
  /// Kernel-choice provenance ("bitplane", or "scalar (<reason>)").
  /// Excluded from the report for the same reason `provenance` is.
  std::string kernel;
  jsonl::Provenance provenance;

  std::vector<SampleRecord> records;  // indexed by sample
  StratumStats strata[kSiteKinds];
  std::uint64_t counts[kOutcomes] = {};
  std::uint64_t latent = 0;

  fault::SoftErrorBudget budget;  // raw upset rates from the tech model
  double fit_sdc = 0.0;           // per-stratum derated, summed
  double fit_due = 0.0;
  double fit_hang = 0.0;

  double rate(Outcome o) const;
  /// 95% Wilson score interval on an outcome's rate over all completed
  /// samples.
  WilsonInterval interval(Outcome o) const;
  double fit_visible() const { return fit_sdc + fit_due + fit_hang; }
  double mtbf_hours() const;
};

/// Enumerated injection sites, exposed for tests and the planner.
struct SitePlan {
  std::uint64_t macro_bits = 0;
  std::vector<netlist::InstId> flops;
  std::vector<netlist::NetId> set_nets;
  std::uint64_t sites(SiteKind kind) const;
  std::uint64_t total() const;
};

SitePlan enumerate_sites(const SeuRig& rig);

/// The deterministic sample plan: spec for sample `index` of `samples`
/// under `seed`. Exposed so tests can assert worker-independence.
InjectionSpec plan_sample(const SeuRig& rig, const SitePlan& plan,
                          const CampaignOptions& opt, int index);

/// Runs (or resumes) a campaign. Throws kInvalidConfig for impossible
/// options (no sites, zero samples, no trace); engine failures inside a
/// run classify as kHang and never abort the campaign.
CampaignResult run_campaign(const SeuRig& rig, const tech::Process& process,
                            const CampaignOptions& opt);

/// Deterministic human-readable report (see determinism contract above).
std::string format_campaign_report(const CampaignResult& res,
                                   const lim::SramConfig& cfg);

}  // namespace limsynth::seu
