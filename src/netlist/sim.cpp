#include "netlist/sim.hpp"

#include <algorithm>
#include <sstream>

#include "util/watchdog.hpp"

namespace limsynth::netlist {

namespace {

// Input pin order shared with evsim::annotate and eval_gate.
constexpr const char* kInputPins[4] = {"A", "B", "C", "D"};

}  // namespace

std::uint64_t MacroModel::peek(int row) const {
  LIMS_FAIL(ErrorCode::kInvalidConfig,
            "macro model exposes no inspectable state (peek row " << row
                                                                  << ")");
}

void MacroModel::poke(int row, std::uint64_t value) {
  (void)value;
  LIMS_FAIL(ErrorCode::kInvalidConfig,
            "macro model exposes no inspectable state (poke row " << row
                                                                  << ")");
}

Simulator::Simulator(const Netlist& nl, const tech::StdCellLib& cells)
    : nl_(nl) {
  values_.assign(nl.nets().size(), false);
  toggle_counts_.assign(nl.nets().size(), 0);
  ff_state_.assign(nl.instance_storage_size(), false);

  // Bind once: resolve each live instance's cell function and pin nets so
  // the settle/clock hot loops never touch a string again. Unknown cells
  // (macros awaiting attach) and missing pins are recorded, not thrown —
  // the error surfaces at first evaluation, preserving the lazy contract.
  gates_.assign(nl.instance_storage_size(), GateBinding{});
  for (std::size_t i = 0; i < gates_.size(); ++i) {
    const auto id = static_cast<InstId>(i);
    if (!nl.is_live(id)) continue;
    const Instance& inst = nl.instance(id);
    const tech::StdCell* cell = cells.find(inst.cell);
    if (cell == nullptr) continue;  // known=false: macro or error
    GateBinding& gb = gates_[i];
    gb.known = true;
    gb.func = cell->func;
    gb.sequential = tech::cell_func_sequential(gb.func);
    if (gb.sequential) {
      if (const NetId* d = inst.find_pin("D")) gb.d = *d;
      if (const NetId* q = inst.find_pin("Q")) gb.q = *q;
      if (const NetId* en = inst.find_pin("EN")) gb.en = *en;
      continue;
    }
    gb.nin = tech::cell_func_inputs(gb.func);
    for (int k = 0; k < gb.nin; ++k) {
      if (const NetId* in = inst.find_pin(kInputPins[k])) {
        gb.in[k] = *in;
      } else if (gb.missing_input < 0) {
        gb.missing_input = static_cast<std::int8_t>(k);
      }
    }
    if (const NetId* out = inst.find_pin("Y")) gb.out = *out;
  }
}

void Simulator::attach(InstId inst, std::shared_ptr<MacroModel> model) {
  macros_.attach(inst, std::move(model));
}

void Simulator::set_input(NetId net, bool value) {
  set_net(net, value, true);
}

void Simulator::set_bus(const std::vector<NetId>& bus, std::uint64_t value) {
  LIMS_CHECK(bus.size() <= 64);
  for (std::size_t i = 0; i < bus.size(); ++i)
    set_net(bus[i], (value >> i) & 1, true);
}

void Simulator::force_net(NetId net, bool value) {
  const auto n = static_cast<std::size_t>(net);
  LIMS_CHECK(n < values_.size());
  forced_[net] = value;
  values_[n] = value;
}

void Simulator::release_net(NetId net) { forced_.erase(net); }

void Simulator::set_net(NetId net, bool value, bool count_toggle) {
  const auto n = static_cast<std::size_t>(net);
  LIMS_CHECK(n < values_.size());
  if (!forced_.empty()) {
    const auto it = forced_.find(net);
    if (it != forced_.end()) value = it->second;  // stuck net wins
  }
  if (values_[n] != value) {
    values_[n] = value;
    if (count_toggle) ++toggle_counts_[n];
  }
}

bool Simulator::value(NetId net) const {
  return values_[static_cast<std::size_t>(net)];
}

std::uint64_t Simulator::bus_value(const std::vector<NetId>& bus) const {
  LIMS_CHECK(bus.size() <= 64);
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < bus.size(); ++i)
    if (value(bus[i])) v |= (std::uint64_t{1} << i);
  return v;
}

bool Simulator::pin_value(InstId inst, const std::string& pin) const {
  const NetId net = macros_.pin_net(nl_, inst, pin);
  LIMS_CHECK_MSG(net != kNoNet, "instance " << nl_.instance(inst).name
                                            << " has no pin " << pin);
  return value(net);
}

void Simulator::drive_pin(InstId inst, const std::string& pin, bool v) {
  const NetId net = macros_.pin_net(nl_, inst, pin);
  LIMS_CHECK_MSG(net != kNoNet, "instance " << nl_.instance(inst).name
                                            << " has no pin " << pin);
  set_net(net, v, true);
}

bool Simulator::eval_gate(InstId id, const GateBinding& gb) const {
  LIMS_CHECK_MSG(gb.missing_input < 0,
                 "cell " << nl_.instance(id).name << " missing pin "
                         << kInputPins[static_cast<int>(gb.missing_input)]);
  auto in = [&](int k) { return values_[static_cast<std::size_t>(gb.in[k])]; };
  using tech::CellFunc;
  switch (gb.func) {
    case CellFunc::kInv: return !in(0);
    case CellFunc::kBuf: return in(0);
    case CellFunc::kNand2: return !(in(0) && in(1));
    case CellFunc::kNand3: return !(in(0) && in(1) && in(2));
    case CellFunc::kNand4: return !(in(0) && in(1) && in(2) && in(3));
    case CellFunc::kNor2: return !(in(0) || in(1));
    case CellFunc::kNor3: return !(in(0) || in(1) || in(2));
    case CellFunc::kAnd2: return in(0) && in(1);
    case CellFunc::kOr2: return in(0) || in(1);
    case CellFunc::kXor2: return in(0) != in(1);
    case CellFunc::kXnor2: return in(0) == in(1);
    case CellFunc::kMux2: return in(2) ? in(1) : in(0);
    case CellFunc::kAoi21: return !((in(0) && in(1)) || in(2));
    case CellFunc::kOai21: return !((in(0) || in(1)) && in(2));
    case CellFunc::kTie0: return false;
    case CellFunc::kTie1: return true;
    default:
      LIMS_UNREACHABLE("sequential cell in combinational eval");
  }
}

void Simulator::settle() {
  const std::size_t n_inst = nl_.instance_storage_size();
  // Bounded fixpoint iteration: each pass evaluates every combinational
  // gate; netlists are acyclic so this converges within depth passes.
  const std::size_t max_passes =
      budget_.max_passes > 0 ? budget_.max_passes : n_inst + 2;
  const Watchdog watchdog("netlist settle", budget_.wall_seconds);
  // Nets that changed during the most recent pass: on non-convergence
  // these are the oscillating nets, and naming them turns "combinational
  // loop?" into an actionable diagnostic.
  std::vector<NetId> last_changed;
  for (std::size_t pass = 0; pass < max_passes; ++pass) {
    watchdog.check();
    last_changed.clear();
    bool changed = false;
    for (std::size_t i = 0; i < n_inst; ++i) {
      const auto id = static_cast<InstId>(i);
      if (!nl_.is_live(id)) continue;
      if (macros_.attached(id)) continue;
      const GateBinding& gb = gates_[i];
      LIMS_CHECK_MSG(gb.known, "unknown cell " << nl_.instance(id).cell);
      if (gb.sequential) continue;
      bool v = eval_gate(id, gb);
      LIMS_CHECK_MSG(gb.out != kNoNet,
                     "cell " << nl_.instance(id).name << " missing pin Y");
      if (!forced_.empty()) {
        // A stuck net never follows its driver; compare against the forced
        // value so the fixpoint still converges.
        const auto it = forced_.find(gb.out);
        if (it != forced_.end()) v = it->second;
      }
      if (value(gb.out) != v) {
        set_net(gb.out, v, true);
        changed = true;
        last_changed.push_back(gb.out);
      }
    }
    if (!changed) return;
  }
  std::ostringstream os;
  os << "netlist simulation did not settle after " << max_passes
     << " passes (combinational loop?); still-oscillating nets:";
  const std::size_t show = std::min<std::size_t>(last_changed.size(), 10);
  for (std::size_t i = 0; i < show; ++i)
    os << ' ' << nl_.net_name(last_changed[i]);
  if (last_changed.size() > show)
    os << " (+" << last_changed.size() - show << " more)";
  throw Error(ErrorCode::kNonConvergence, os.str());
}

void Simulator::clock_edge() {
  ++cycles_;
  // Sample all flop D inputs first (old values), then commit.
  struct Capture {
    InstId inst;
    bool d;
  };
  std::vector<Capture> captures;
  const std::size_t n_inst = nl_.instance_storage_size();
  for (std::size_t i = 0; i < n_inst; ++i) {
    const auto id = static_cast<InstId>(i);
    if (!nl_.is_live(id) || macros_.attached(id)) continue;
    const GateBinding& gb = gates_[i];
    if (!gb.known || !gb.sequential) continue;
    bool d = ff_state_[i];
    if (gb.func == tech::CellFunc::kDff) {
      LIMS_CHECK_MSG(gb.d != kNoNet,
                     "flop " << nl_.instance(id).name << " missing pin D");
      d = values_[static_cast<std::size_t>(gb.d)];
    } else if (gb.func == tech::CellFunc::kDffEn) {
      LIMS_CHECK_MSG(gb.d != kNoNet && gb.en != kNoNet,
                     "DFFE " << nl_.instance(id).name << " missing D/EN pins");
      if (values_[static_cast<std::size_t>(gb.en)])
        d = values_[static_cast<std::size_t>(gb.d)];
    }
    captures.push_back({id, d});
  }
  // Macro models fire on pre-edge pin values (like the flop D sampling
  // above), then flop outputs commit, then logic resettles.
  for (const auto& [inst, model] : macros_.models())
    model->on_clock(*this, inst);
  for (const auto& c : captures) {
    ff_state_[static_cast<std::size_t>(c.inst)] = c.d;
    const GateBinding& gb = gates_[static_cast<std::size_t>(c.inst)];
    LIMS_CHECK_MSG(gb.q != kNoNet,
                   "flop " << nl_.instance(c.inst).name << " missing pin Q");
    set_net(gb.q, c.d, true);
  }
  settle();
}

std::uint64_t Simulator::toggles(NetId net) const {
  return toggle_counts_[static_cast<std::size_t>(net)];
}

std::uint64_t Simulator::macro_accesses(InstId inst) const {
  return macros_.accesses(inst);
}

void Simulator::note_macro_access(InstId inst) {
  macros_.note_access(inst);
}

}  // namespace limsynth::netlist
