#include "seu/seu.hpp"

#include <string>

#include "fault/repair.hpp"
#include "util/error.hpp"
#include "util/watchdog.hpp"

namespace limsynth::seu {

namespace {

using evsim::EventSimulator;
using evsim::EvsimOptions;

EvsimOptions golden_equivalent_options() {
  EvsimOptions opt;
  opt.period = 0.0;   // quiesce: deterministic settle-equivalent states
  opt.x_init = false; // zero power-up, so golden and faulty start equal
  return opt;
}

void inject(EventSimulator& ev, const lim::SramDesign& d,
            const InjectionSpec& spec) {
  const FaultSite& s = spec.site;
  switch (s.kind) {
    case SiteKind::kMacroBit: {
      LIMS_CHECK_MSG(s.bank >= 0 &&
                         s.bank < static_cast<int>(d.banks.size()),
                     "SEU bank " << s.bank << " outside the design");
      netlist::MacroModel* m = ev.model(d.banks[static_cast<std::size_t>(s.bank)]);
      LIMS_CHECK_MSG(m != nullptr, "no model attached to bank " << s.bank);
      const std::uint64_t mask =
          burst_mask(s.bit, spec.burst, m->state_bits());
      LIMS_CHECK_MSG(mask != 0, "SEU bit " << s.bit << " outside the word");
      m->flip_state_bits(s.row, mask);
      return;
    }
    case SiteKind::kFlop:
      ev.flip_flop(s.flop);
      return;
    case SiteKind::kSetPulse:
      ev.arm_set_pulse(s.net, spec.set_width_fs, spec.set_lead_fs);
      return;
  }
  LIMS_FAIL(ErrorCode::kInternal, "unreachable fault site kind");
}

}  // namespace

std::uint64_t burst_mask(int bit, int burst, int width) {
  std::uint64_t mask = 0;
  for (int j = bit; j < bit + burst && j < width; ++j)
    mask |= std::uint64_t{1} << j;
  return mask;
}

const char* site_kind_name(SiteKind kind) {
  switch (kind) {
    case SiteKind::kMacroBit: return "macro_bit";
    case SiteKind::kFlop: return "flop";
    case SiteKind::kSetPulse: return "set_pulse";
  }
  return "?";
}

const char* outcome_name(Outcome o) {
  switch (o) {
    case Outcome::kMasked: return "masked";
    case Outcome::kCorrectedSecded: return "corrected";
    case Outcome::kSdc: return "sdc";
    case Outcome::kDetectedUncorrectable: return "due";
    case Outcome::kHang: return "hang";
  }
  return "?";
}

bool parse_outcome(const std::string& name, Outcome* out) {
  for (int i = 0; i < kOutcomes; ++i) {
    const auto o = static_cast<Outcome>(i);
    if (name == outcome_name(o)) {
      *out = o;
      return true;
    }
  }
  return false;
}

std::string FaultSite::describe(const netlist::Netlist& nl) const {
  switch (kind) {
    case SiteKind::kMacroBit:
      return "bank" + std::to_string(bank) + ".row" + std::to_string(row) +
             ".bit" + std::to_string(bit);
    case SiteKind::kFlop:
      return "flop:" + nl.instance(flop).name;
    case SiteKind::kSetPulse:
      return "net:" + nl.net_name(net);
  }
  return "?";
}

void ObservedSramBank::on_clock(netlist::Simulator& sim,
                                netlist::InstId inst) {
  // Let the base model service the cycle first (write, then read), then
  // reconstruct the word the periphery decoder saw: the AND of every row
  // selected for read — post-write state, so a read-after-write sees the
  // fresh codeword, and a decoder transient holding several wordlines
  // hot decodes the (garbage) composite exactly like the real datapath.
  SramBankModel::on_clock(sim, inst);
  if (data_bits_ > 0) {
    bool read = false;
    std::uint64_t composite = ~std::uint64_t{0};
    for (int r = 0; r < state_rows(); ++r) {
      if (!sim.pin_value(inst, "RWL[" + std::to_string(r) + "]")) continue;
      composite &= peek(r);
      read = true;
    }
    if (read) {
      const fault::SecdedDecode d = fault::secded_decode(composite, data_bits_);
      corrected_seen_ = corrected_seen_ || d.corrected;
      due_seen_ = due_seen_ || d.uncorrectable;
    }
  }
}

evsim::StimulusTrace random_trace(const lim::SramDesign& design, int cycles,
                                  std::uint64_t seed) {
  evsim::StimulusTrace trace;
  int c = 0;
  for (const lim::SramCycle& t : lim::random_cycles(design, cycles, seed)) {
    trace.set_bus(c, design.raddr, t.raddr);
    trace.set_bus(c, design.waddr, t.waddr);
    trace.set_bus(c, design.wdata, t.wdata);
    trace.set(c++, design.wen, t.wen);
  }
  return trace;
}

GoldenRun run_golden(const SeuRig& rig) {
  const lim::SramDesign& d = *rig.design;
  EventSimulator ev(d.nl, *rig.cells, *rig.ann, golden_equivalent_options());
  std::vector<std::shared_ptr<lim::SramBankModel>> banks;
  for (const netlist::InstId b : d.banks) {
    auto m = std::make_shared<lim::SramBankModel>(d.config.rows_per_bank(),
                                                  d.config.code_bits());
    ev.attach(b, m);
    banks.push_back(std::move(m));
  }
  GoldenRun golden;
  golden.rdata.reserve(rig.trace->size());
  for (std::size_t c = 0; c < rig.trace->size(); ++c) {
    for (const auto& ch : rig.trace->cycles[c]) ev.set_input(ch.net, ch.value);
    ev.cycle();
    golden.rdata.push_back(ev.bus_value(d.rdata));
  }
  for (const auto& bank : banks) {
    std::vector<std::uint64_t> rows;
    rows.reserve(static_cast<std::size_t>(bank->state_rows()));
    for (int r = 0; r < bank->state_rows(); ++r) rows.push_back(bank->peek(r));
    golden.mem.push_back(std::move(rows));
  }
  return golden;
}

InjectionResult run_injection(const SeuRig& rig, const GoldenRun& golden,
                              const InjectionSpec& spec) {
  const lim::SramDesign& d = *rig.design;
  LIMS_CHECK_MSG(golden.rdata.size() == rig.trace->size(),
                 "golden run does not match the stimulus trace");
  LIMS_CHECK_MSG(spec.cycle < rig.trace->size(),
                 "injection cycle " << spec.cycle << " beyond the trace");

  InjectionResult res;
  EventSimulator ev(d.nl, *rig.cells, *rig.ann, golden_equivalent_options());
  std::vector<std::shared_ptr<ObservedSramBank>> banks;
  for (const netlist::InstId b : d.banks) {
    auto m = std::make_shared<ObservedSramBank>(d.config.rows_per_bank(),
                                                d.config.code_bits(),
                                                d.config.ecc ? d.config.bits
                                                             : 0);
    ev.attach(b, m);
    banks.push_back(std::move(m));
  }

  const Watchdog wd("seu injection run", rig.run_timeout_seconds);
  bool mismatch = false;
  try {
    for (std::size_t c = 0; c < rig.trace->size(); ++c) {
      wd.check();
      for (const auto& ch : rig.trace->cycles[c])
        ev.set_input(ch.net, ch.value);
      if (c == spec.cycle) inject(ev, d, spec);
      ev.cycle();
      const bool bad = ev.bus_has_x(d.rdata) ||
                       ev.bus_value(d.rdata) != golden.rdata[c];
      if (bad && !mismatch) {
        mismatch = true;
        res.first_mismatch_cycle = c;
      }
    }
  } catch (const Error& e) {
    // The faulty run died (event budget, watchdog, engine invariant):
    // that *is* an outcome of the fault, not a campaign failure.
    res.outcome = Outcome::kHang;
    res.detail = e.what();
    return res;
  }

  bool corrected = false;
  bool due = false;
  bool state_differs = false;
  for (std::size_t b = 0; b < banks.size(); ++b) {
    corrected = corrected || banks[b]->corrected_seen();
    due = due || banks[b]->due_seen();
    for (int r = 0; r < banks[b]->state_rows(); ++r)
      state_differs = state_differs ||
                      banks[b]->peek(r) != golden.mem[b][static_cast<std::size_t>(r)];
  }
  res.latent = state_differs && !mismatch;
  if (due)
    res.outcome = Outcome::kDetectedUncorrectable;
  else if (mismatch)
    res.outcome = Outcome::kSdc;
  else if (corrected)
    res.outcome = Outcome::kCorrectedSecded;
  else
    res.outcome = Outcome::kMasked;
  return res;
}

}  // namespace limsynth::seu
