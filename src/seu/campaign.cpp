#include "seu/campaign.hpp"

#include <cmath>
#include <cstdio>
#include <memory>
#include <sstream>
#include <utility>

#include "seu/batch.hpp"
#include "util/error.hpp"
#include "util/jsonl.hpp"
#include "util/rng.hpp"

namespace limsynth::seu {

namespace {

/// SET pulse width (deposited-charge duration) and the window its
/// strike-to-edge lead is drawn from, uniformly in [min, max).
constexpr double kSetWidth = 120e-12;    // s
constexpr double kSetLeadMin = 50e-12;   // s
constexpr double kSetLeadMax = 600e-12;  // s

/// splitmix64 finalizer over (seed, index): every sample draws from an
/// independent, reproducible stream regardless of which worker runs it.
std::uint64_t mix64(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Largest-remainder proportional allocation of `samples` over the
/// stratum sizes (ties broken by stratum order). Empty strata get zero.
void allocate_strata(int samples, const std::uint64_t sites[kSiteKinds],
                     int out[kSiteKinds]) {
  std::uint64_t total = 0;
  for (int k = 0; k < kSiteKinds; ++k) total += sites[k];
  LIMS_CHECK_MSG(total > 0, "design exposes no injectable fault sites");
  int assigned = 0;
  double frac[kSiteKinds];
  for (int k = 0; k < kSiteKinds; ++k) {
    const double exact = static_cast<double>(samples) *
                         static_cast<double>(sites[k]) /
                         static_cast<double>(total);
    out[k] = static_cast<int>(exact);
    frac[k] = exact - static_cast<double>(out[k]);
    assigned += out[k];
  }
  while (assigned < samples) {
    int best = -1;
    for (int k = 0; k < kSiteKinds; ++k) {
      if (sites[k] == 0) continue;
      if (best < 0 || frac[k] > frac[best]) best = k;
    }
    LIMS_CHECK(best >= 0);
    ++out[best];
    frac[best] = -1.0;
    ++assigned;
  }
}

/// Fingerprint of everything that affects per-sample results: the design
/// shape, the stimulus bytes, and the sampling parameters. Workers,
/// journaling and timeouts are deliberately excluded.
std::string campaign_key(const SeuRig& rig, const SitePlan& plan,
                         const CampaignOptions& opt) {
  std::ostringstream os;
  os << "cfg=" << rig.design->config.name()
     << ";ecc=" << rig.design->config.ecc
     << ";spare=" << rig.design->config.spare_rows
     << ";macro_bits=" << plan.macro_bits << ";flops=" << plan.flops.size()
     << ";set_nets=" << plan.set_nets.size()
     << ";samples=" << opt.samples << ";seed=" << opt.seed
     << ";burst=" << opt.burst
     << ";set_width=" << jsonl::format_g17(kSetWidth)
     << ";set_lead=[" << jsonl::format_g17(kSetLeadMin) << ","
     << jsonl::format_g17(kSetLeadMax) << ")"
     << ";trace=";
  std::ostringstream tr;
  for (std::size_t c = 0; c < rig.trace->size(); ++c)
    for (const auto& ch : rig.trace->cycles[c])
      tr << c << ":" << ch.net << "=" << ch.value << ";";
  os << jsonl::to_hex(jsonl::fnv1a(tr.str()));
  return jsonl::to_hex(jsonl::fnv1a(os.str()));
}

std::string journal_line(const std::string& key, const SampleRecord& rec) {
  std::ostringstream os;
  os << "{\"campaign\":\"" << key << "\",\"sample\":" << rec.sample
     << ",\"kind\":\"" << site_kind_name(rec.kind) << "\",\"site\":\""
     << jsonl::json_escape(rec.site) << "\",\"cycle\":" << rec.cycle
     << ",\"outcome\":\"" << outcome_name(rec.outcome)
     << "\",\"latent\":" << (rec.latent ? "true" : "false")
     << ",\"detail\":\"" << jsonl::json_escape(rec.detail) << "\"}\n";
  return os.str();
}

/// Executor key of one sample: the campaign fingerprint and the index.
std::string sample_key(const std::string& campaign, std::uint64_t sample) {
  return campaign + ":" + std::to_string(sample);
}

bool parse_kind(const std::string& name, SiteKind* out) {
  for (int k = 0; k < kSiteKinds; ++k) {
    const auto kind = static_cast<SiteKind>(k);
    if (name == site_kind_name(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

/// Parses one journal line into its executor key and record. Returns
/// false on any torn or malformed field; a line from a different campaign
/// parses fine and simply names no slot.
bool parse_journal_line(const std::string& line, std::string* key,
                        SampleRecord* rec) {
  if (line.empty() || line.front() != '{' || line.back() != '}') return false;

  std::size_t pos = jsonl::find_field(line, "campaign");
  std::string line_key;
  if (pos == std::string::npos || !jsonl::read_string(line, pos, &line_key))
    return false;

  pos = jsonl::find_field(line, "sample");
  std::uint64_t sample = 0;
  if (pos == std::string::npos || !jsonl::read_u64(line, pos, &sample))
    return false;

  pos = jsonl::find_field(line, "kind");
  std::string kind_name;
  if (pos == std::string::npos || !jsonl::read_string(line, pos, &kind_name))
    return false;
  if (!parse_kind(kind_name, &rec->kind)) return false;

  pos = jsonl::find_field(line, "site");
  if (pos == std::string::npos || !jsonl::read_string(line, pos, &rec->site))
    return false;

  pos = jsonl::find_field(line, "cycle");
  if (pos == std::string::npos || !jsonl::read_u64(line, pos, &rec->cycle))
    return false;

  pos = jsonl::find_field(line, "outcome");
  std::string outcome;
  if (pos == std::string::npos || !jsonl::read_string(line, pos, &outcome))
    return false;
  if (!parse_outcome(outcome, &rec->outcome)) return false;

  pos = jsonl::find_field(line, "latent");
  if (pos == std::string::npos || !jsonl::read_bool(line, pos, &rec->latent))
    return false;

  pos = jsonl::find_field(line, "detail");
  if (pos == std::string::npos || !jsonl::read_string(line, pos, &rec->detail))
    return false;

  *key = sample_key(line_key, sample);
  rec->sample = static_cast<int>(sample);  // used only when the key matches
  return true;
}

std::string fmt(const char* spec, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, spec, v);
  return buf;
}

}  // namespace

double StratumStats::avf() const {
  if (samples == 0) return 0.0;
  const std::uint64_t visible = counts[static_cast<int>(Outcome::kSdc)] +
                                counts[static_cast<int>(Outcome::kDetectedUncorrectable)] +
                                counts[static_cast<int>(Outcome::kHang)];
  return static_cast<double>(visible) / static_cast<double>(samples);
}

double StratumStats::rate(Outcome o) const {
  if (samples == 0) return 0.0;
  return static_cast<double>(counts[static_cast<int>(o)]) /
         static_cast<double>(samples);
}

double CampaignResult::rate(Outcome o) const {
  if (completed == 0) return 0.0;
  return static_cast<double>(counts[static_cast<int>(o)]) /
         static_cast<double>(completed);
}

WilsonInterval CampaignResult::interval(Outcome o) const {
  return wilson_interval(counts[static_cast<int>(o)],
                         static_cast<std::uint64_t>(completed));
}

double CampaignResult::mtbf_hours() const {
  return fault::fit_to_mtbf_hours(fit_visible());
}

std::uint64_t SitePlan::sites(SiteKind kind) const {
  switch (kind) {
    case SiteKind::kMacroBit: return macro_bits;
    case SiteKind::kFlop: return flops.size();
    case SiteKind::kSetPulse: return set_nets.size();
  }
  return 0;
}

std::uint64_t SitePlan::total() const {
  return macro_bits + flops.size() + set_nets.size();
}

SitePlan enumerate_sites(const SeuRig& rig) {
  SitePlan plan;
  const lim::SramConfig& cfg = rig.design->config;
  plan.macro_bits = static_cast<std::uint64_t>(cfg.banks) *
                    static_cast<std::uint64_t>(cfg.rows_per_bank()) *
                    static_cast<std::uint64_t>(cfg.code_bits());
  for (const auto& fi : rig.ann->flops) plan.flops.push_back(fi.inst);
  for (const auto& gi : rig.ann->gates) plan.set_nets.push_back(gi.out);
  return plan;
}

InjectionSpec plan_sample(const SeuRig& rig, const SitePlan& plan,
                          const CampaignOptions& opt, int index) {
  LIMS_CHECK_MSG(index >= 0 && index < opt.samples,
                 "sample index " << index << " outside the campaign");
  const std::uint64_t sites[kSiteKinds] = {
      plan.macro_bits, plan.flops.size(), plan.set_nets.size()};
  int alloc[kSiteKinds];
  allocate_strata(opt.samples, sites, alloc);

  SiteKind kind = SiteKind::kSetPulse;
  int base = 0;
  for (int k = 0; k < kSiteKinds; ++k) {
    if (index < base + alloc[k]) {
      kind = static_cast<SiteKind>(k);
      break;
    }
    base += alloc[k];
  }

  Rng rng(mix64(opt.seed, static_cast<std::uint64_t>(index)));
  InjectionSpec spec;
  spec.cycle = rng.below(rig.trace->size());
  spec.burst = opt.burst;
  spec.site.kind = kind;
  switch (kind) {
    case SiteKind::kMacroBit: {
      const lim::SramConfig& cfg = rig.design->config;
      const std::uint64_t s = rng.below(plan.macro_bits);
      const auto code_bits = static_cast<std::uint64_t>(cfg.code_bits());
      const auto rows = static_cast<std::uint64_t>(cfg.rows_per_bank());
      spec.site.bit = static_cast<int>(s % code_bits);
      spec.site.row = static_cast<int>((s / code_bits) % rows);
      spec.site.bank = static_cast<int>(s / (code_bits * rows));
      break;
    }
    case SiteKind::kFlop:
      spec.site.flop = plan.flops[rng.below(plan.flops.size())];
      break;
    case SiteKind::kSetPulse:
      spec.site.net = plan.set_nets[rng.below(plan.set_nets.size())];
      spec.set_width_fs = evsim::to_fs(kSetWidth);
      spec.set_lead_fs = evsim::to_fs(rng.uniform(kSetLeadMin, kSetLeadMax));
      break;
  }
  return spec;
}

CampaignResult run_campaign(const SeuRig& rig, const tech::Process& process,
                            const CampaignOptions& opt) {
  DIAG_CONTEXT("seu campaign");
  LIMS_CHECK_MSG(opt.samples > 0, "campaign needs at least one sample");
  LIMS_CHECK_MSG(opt.burst > 0, "burst must flip at least one bit");
  LIMS_CHECK_MSG(rig.trace != nullptr && rig.trace->size() > 0,
                 "campaign needs a non-empty stimulus trace");
  LIMS_CHECK_MSG(rig.bound != nullptr &&
                     &rig.bound->netlist() == &rig.design->nl,
                 "campaign needs the binding of its design's netlist");

  CampaignResult res;
  res.samples = opt.samples;
  const SitePlan plan = enumerate_sites(rig);
  LIMS_CHECK_MSG(plan.total() > 0, "design exposes no injectable sites");
  res.key = campaign_key(rig, plan, opt);
  res.records.assign(static_cast<std::size_t>(opt.samples), SampleRecord{});

  GoldenRun golden;
  std::unique_ptr<bitsim::BatchProgram> program;

  const auto n = static_cast<std::size_t>(opt.samples);
  std::vector<std::string> keys;
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) keys.push_back(sample_key(res.key, i));
  std::vector<InjectionSpec> specs(n);
  std::vector<char> batched(n, 0);  // per slot; each unit writes its own
  const auto batchable = [&](std::size_t i) {
    return program != nullptr && specs[i].site.kind != SiteKind::kSetPulse;
  };

  // Work units: macro-bit and flop samples group kBatchSamples to a
  // bit-plane pass (strata are contiguous in sample order, so groups stay
  // dense); SET samples — pulse-width physics — and kernel-less campaigns
  // run as scalar singletons. Workers claim whole units; the executor
  // still journals their samples in sample order. The executor plans only
  // after it has opened the journal, so the golden replay and the kernel
  // build below never run for a journal that cannot be written.
  const auto plan_units = [&](const std::vector<std::size_t>& todo) {
    golden = run_golden(rig);
    // Batch kernel: levelize the rig's binding once, share const across
    // workers. Designs the bit-plane kernel cannot express leave every
    // sample on the scalar event engine; the choice is recorded as
    // provenance only and never fingerprinted, so reports and journals
    // stay interoperable.
    try {
      program = std::make_unique<bitsim::BatchProgram>(*rig.bound, *rig.cells);
      res.kernel = "bitplane";
    } catch (const Error& e) {
      res.kernel = std::string("scalar (") + error_code_name(e.code()) + ")";
    }
    std::vector<std::vector<std::size_t>> units;
    std::vector<std::size_t> group;
    for (const std::size_t i : todo) {
      specs[i] = plan_sample(rig, plan, opt, static_cast<int>(i));
      if (!batchable(i)) {
        units.push_back({i});
        continue;
      }
      group.push_back(i);
      if (static_cast<int>(group.size()) == kBatchSamples)
        units.push_back(std::exchange(group, {}));
    }
    if (!group.empty()) units.push_back(std::move(group));
    return units;
  };
  const auto run_unit = [&](const std::vector<std::size_t>& unit) {
    std::vector<InjectionSpec> unit_specs;
    for (const std::size_t i : unit) unit_specs.push_back(specs[i]);
    std::vector<InjectionResult> runs;
    bool via_batch = false;
    if (batchable(unit.front())) {
      try {
        runs = run_batch(rig, *program, golden, unit_specs);
        via_batch = true;
      } catch (const Error&) {
        // The kernel bailed (engine error, watchdog expiry, golden
        // divergence): replay the group on the scalar engine, where
        // per-sample failures classify as kHang.
      }
    }
    if (!via_batch) {
      runs.reserve(unit_specs.size());
      for (const InjectionSpec& spec : unit_specs)
        runs.push_back(run_injection(rig, golden, spec));
    }
    std::vector<SampleRecord> recs(unit.size());
    for (std::size_t s = 0; s < unit.size(); ++s) {
      recs[s].sample = static_cast<int>(unit[s]);
      recs[s].kind = unit_specs[s].site.kind;
      recs[s].site = unit_specs[s].site.describe(rig.design->nl);
      recs[s].cycle = unit_specs[s].cycle;
      recs[s].outcome = runs[s].outcome;
      recs[s].latent = runs[s].latent;
      recs[s].detail = runs[s].detail;
      batched[unit[s]] = via_batch;
    }
    return recs;
  };
  const auto format = [&](const std::string&, const SampleRecord& rec) {
    return journal_line(res.key, rec);
  };
  jsonl::Journaled<SampleRecord> run = jsonl::run_journaled<SampleRecord>(
      "SEU", opt.run, keys, parse_journal_line, format, plan_units, run_unit);
  res.provenance = run.provenance;
  for (std::size_t i = 0; i < run.records.size(); ++i) {
    res.batched += batched[i];
    res.records[i] = std::move(run.records[i]);
  }

  // Aggregate from the ordered records alone (determinism contract).
  for (int k = 0; k < kSiteKinds; ++k)
    res.strata[k].sites = plan.sites(static_cast<SiteKind>(k));
  for (const SampleRecord& rec : res.records) {
    if (rec.sample < 0) continue;
    ++res.completed;
    ++res.counts[static_cast<int>(rec.outcome)];
    StratumStats& st = res.strata[static_cast<int>(rec.kind)];
    ++st.samples;
    ++st.counts[static_cast<int>(rec.outcome)];
    if (rec.latent) ++res.latent;
  }

  res.budget = fault::soft_error_budget(
      process, static_cast<double>(plan.macro_bits),
      static_cast<double>(plan.flops.size()),
      static_cast<double>(plan.set_nets.size()));
  const double raw[kSiteKinds] = {res.budget.fit_mem, res.budget.fit_flop,
                                  res.budget.fit_set};
  for (int k = 0; k < kSiteKinds; ++k) {
    res.fit_sdc += raw[k] * res.strata[k].rate(Outcome::kSdc);
    res.fit_due +=
        raw[k] * res.strata[k].rate(Outcome::kDetectedUncorrectable);
    res.fit_hang += raw[k] * res.strata[k].rate(Outcome::kHang);
  }
  return res;
}

std::string format_campaign_report(const CampaignResult& res,
                                   const lim::SramConfig& cfg) {
  std::ostringstream os;
  os << "SEU/SET injection campaign\n"
     << "  design    : " << cfg.name() << " (ecc "
     << (cfg.ecc ? "on" : "off") << ")\n"
     << "  campaign  : " << res.key << "\n"
     << "  samples   : " << res.samples << " requested, " << res.completed
     << " completed\n";
  // Run provenance (computed/resumed split, journal skip counts) is
  // deliberately absent: a killed-and-resumed campaign must render the
  // byte-identical report an uninterrupted run renders. The CLI prints
  // provenance separately.
  if (res.provenance.timed_out)
    os << "  TIMED OUT with " << (res.samples - res.completed)
       << " sample(s) missing; rerun with --resume to finish\n";

  os << "\n  outcome      count     rate    95% Wilson CI\n";
  for (int o = 0; o < kOutcomes; ++o) {
    const auto outcome = static_cast<Outcome>(o);
    const WilsonInterval ci = res.interval(outcome);
    char line[128];
    std::snprintf(line, sizeof line,
                  "  %-10s %7llu   %.4f   [%.4f, %.4f]\n",
                  outcome_name(outcome),
                  static_cast<unsigned long long>(
                      res.counts[o]),
                  res.rate(outcome), ci.lo, ci.hi);
    os << line;
  }
  os << "  latent     " << res.latent
     << "  (masked runs leaving corrupted standing state)\n";

  os << "\n  stratum      sites  samples  masked  corr   sdc   due  hang    AVF\n";
  for (int k = 0; k < kSiteKinds; ++k) {
    const StratumStats& st = res.strata[k];
    char line[160];
    std::snprintf(line, sizeof line,
                  "  %-10s %7llu  %7llu  %6llu %5llu %5llu %5llu %5llu  %.4f\n",
                  site_kind_name(static_cast<SiteKind>(k)),
                  static_cast<unsigned long long>(st.sites),
                  static_cast<unsigned long long>(st.samples),
                  static_cast<unsigned long long>(st.counts[0]),
                  static_cast<unsigned long long>(st.counts[1]),
                  static_cast<unsigned long long>(st.counts[2]),
                  static_cast<unsigned long long>(st.counts[3]),
                  static_cast<unsigned long long>(st.counts[4]),
                  st.avf());
    os << line;
  }

  os << "\n  raw upsets : mem " << fmt("%.4g", res.budget.fit_mem)
     << " FIT, flops " << fmt("%.4g", res.budget.fit_flop) << " FIT, SET "
     << fmt("%.4g", res.budget.fit_set) << " FIT\n"
     << "  derated    : SDC " << fmt("%.4g", res.fit_sdc) << " FIT, DUE "
     << fmt("%.4g", res.fit_due) << " FIT, hang "
     << fmt("%.4g", res.fit_hang) << " FIT\n"
     << "  visible    : " << fmt("%.4g", res.fit_visible()) << " FIT (MTBF "
     << fmt("%.4g", res.mtbf_hours()) << " h)\n";
  return os.str();
}

}  // namespace limsynth::seu
