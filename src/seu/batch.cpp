#include "seu/batch.hpp"

#include "bitsim/banks.hpp"
#include "util/error.hpp"
#include "util/watchdog.hpp"

namespace limsynth::seu {

std::vector<InjectionResult> run_batch(
    const SeuRig& rig, const bitsim::BatchProgram& program,
    const GoldenRun& golden, const std::vector<InjectionSpec>& specs) {
  const lim::SramDesign& d = *rig.design;
  const std::size_t cycles = rig.trace->size();
  LIMS_CHECK_MSG(golden.rdata.size() == cycles,
                 "golden run does not match the stimulus trace");
  LIMS_CHECK_MSG(!specs.empty() &&
                     specs.size() <= static_cast<std::size_t>(kBatchSamples),
                 "batch holds 1.." << kBatchSamples << " specs, got "
                                   << specs.size());
  for (const InjectionSpec& s : specs) {
    LIMS_CHECK_MSG(s.site.kind != SiteKind::kSetPulse,
                   "SET pulses need the timed event engine");
    LIMS_CHECK_MSG(s.cycle < cycles,
                   "injection cycle " << s.cycle << " beyond the trace");
  }

  bitsim::BatchSim sim(program);
  std::vector<std::shared_ptr<bitsim::BatchSramBank>> banks;
  banks.reserve(d.banks.size());
  for (const netlist::InstId b : d.banks) {
    auto m = std::make_shared<bitsim::BatchSramBank>(
        program, b, d.config.rows_per_bank(), d.config.code_bits(),
        d.config.ecc ? d.config.bits : 0);
    sim.attach(b, m);
    banks.push_back(std::move(m));
  }

  // One watchdog budget for the whole pass: expiry throws, the caller
  // falls back to run_injection where each sample gets its own budget and
  // an overrun classifies as kHang.
  const Watchdog wd("seu batch run", rig.run_timeout_seconds);

  std::uint64_t mismatch_mask = 0;
  std::uint64_t first_cycle[bitsim::kLanes] = {};
  for (std::size_t c = 0; c < cycles; ++c) {
    wd.check();
    for (const auto& ch : rig.trace->cycles[c]) sim.set_input(ch.net, ch.value);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const InjectionSpec& spec = specs[i];
      if (spec.cycle != c) continue;
      const int lane = static_cast<int>(i) + 1;
      const FaultSite& s = spec.site;
      if (s.kind == SiteKind::kMacroBit) {
        LIMS_CHECK_MSG(s.bank >= 0 &&
                           s.bank < static_cast<int>(d.banks.size()),
                       "SEU bank " << s.bank << " outside the design");
        bitsim::BatchSramBank& m = *banks[static_cast<std::size_t>(s.bank)];
        const std::uint64_t mask =
            burst_mask(s.bit, spec.burst, m.state_bits());
        LIMS_CHECK_MSG(mask != 0, "SEU bit " << s.bit << " outside the word");
        m.flip_state_bits(lane, s.row, mask);
      } else {
        sim.flip_flop(s.flop, std::uint64_t{1} << lane);
      }
    }
    sim.settle();
    sim.clock_edge();
    // Read-port divergence: XOR each rdata bit's plane against the
    // recorded golden bit, broadcast. Lane 0 must agree exactly — it ran
    // injection-free, so any disagreement means the kernel's semantics
    // diverged from the event engine on this design; bail to scalar.
    std::uint64_t diff = 0;
    for (std::size_t j = 0; j < d.rdata.size(); ++j) {
      const std::uint64_t g =
          ((golden.rdata[c] >> j) & 1) ? bitsim::kAllLanes : 0;
      diff |= sim.plane(d.rdata[j]) ^ g;
    }
    if (diff & 1)
      LIMS_FAIL(ErrorCode::kInternal,
                "bitsim golden lane diverged from the event engine at cycle "
                    << c);
    std::uint64_t fresh = diff & ~mismatch_mask;
    mismatch_mask |= diff;
    while (fresh != 0) {
      const int lane = __builtin_ctzll(fresh);
      fresh &= fresh - 1;
      first_cycle[lane] = c;
    }
  }

  // Final array image: golden-XOR per stored cell plane, plus the sticky
  // SECDED observation masks.
  std::uint64_t state_diff = 0;
  std::uint64_t corrected = 0;
  std::uint64_t due = 0;
  for (std::size_t b = 0; b < banks.size(); ++b) {
    const bitsim::BatchSramBank& m = *banks[b];
    for (int r = 0; r < m.state_rows(); ++r) {
      const std::uint64_t gw = golden.mem[b][static_cast<std::size_t>(r)];
      for (int j = 0; j < m.state_bits(); ++j) {
        const std::uint64_t g =
            ((gw >> j) & 1) ? bitsim::kAllLanes : 0;
        state_diff |= m.mem_plane(r, j) ^ g;
      }
    }
    corrected |= m.corrected_lanes();
    due |= m.due_lanes();
  }
  if (state_diff & 1)
    LIMS_FAIL(ErrorCode::kInternal,
              "bitsim golden lane's final array image diverged from the "
              "event engine");

  std::vector<InjectionResult> results(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const int lane = static_cast<int>(i) + 1;
    const bool mismatch = (mismatch_mask >> lane) & 1;
    InjectionResult& res = results[i];
    res.latent = ((state_diff >> lane) & 1) && !mismatch;
    if ((due >> lane) & 1)
      res.outcome = Outcome::kDetectedUncorrectable;
    else if (mismatch)
      res.outcome = Outcome::kSdc;
    else if ((corrected >> lane) & 1)
      res.outcome = Outcome::kCorrectedSecded;
    else
      res.outcome = Outcome::kMasked;
    if (mismatch) res.first_mismatch_cycle = first_cycle[lane];
  }
  return results;
}

}  // namespace limsynth::seu
