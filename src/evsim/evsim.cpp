#include "evsim/evsim.hpp"

#include <algorithm>
#include <sstream>

#include "util/error.hpp"

namespace limsynth::evsim {

namespace {

using netlist::InstId;
using netlist::NetId;

/// Slack added to setup windows before flagging a violation, absorbing
/// the <=0.5 fs/arc integer rounding of the annotation (s).
constexpr double kSetupGuard = 64e-15;

/// Presents the event engine to unmodified netlist::MacroModels through
/// the Simulator macro-port surface. The base class is constructed but
/// never stepped; only the three virtual port methods are live.
class MacroPortAdapter final : public netlist::Simulator {
 public:
  MacroPortAdapter(EventSimulator& ev, const netlist::Netlist& nl,
                   const tech::StdCellLib& cells)
      : netlist::Simulator(nl, cells), ev_(ev) {}

  bool pin_value(InstId inst, const std::string& pin) const override {
    return to_bool(ev_.pin_logic(inst, pin));
  }
  void drive_pin(InstId inst, const std::string& pin, bool v) override {
    ev_.macro_drive(inst, pin, v);
  }
  void note_macro_access(InstId inst) override {
    ev_.note_macro_access(inst);
  }

 private:
  EventSimulator& ev_;
};

}  // namespace

EventSimulator::EventSimulator(const netlist::Netlist& nl,
                               const tech::StdCellLib& cells,
                               TimingAnnotation annotation,
                               const EvsimOptions& options)
    : nl_(nl), ann_(std::move(annotation)), opt_(options) {
  LIMS_CHECK_MSG(opt_.period >= 0.0, "negative clock period");
  timed_ = opt_.period > 0.0;
  // Quiesce mode still needs a nominal edge spacing for the waveform.
  period_fs_ = timed_ ? to_fs(opt_.period) : TimeFs{1'000'000};
  LIMS_CHECK_MSG(period_fs_ > 0, "clock period rounds to zero fs");

  const std::size_t n_nets = nl.nets().size();
  const Logic init = opt_.x_init ? Logic::kX : Logic::k0;
  values_.assign(n_nets, init);
  pending_.assign(n_nets, EventWheel::kNoHandle);
  toggle_counts_.assign(n_nets, 0);
  glitch_counts_.assign(n_nets, 0);
  cycle_transitions_.assign(n_nets, 0);
  cycle_start_value_.assign(n_nets, init);
  last_change_.assign(n_nets, 0);

  fanout_.resize(n_nets);
  for (std::size_t g = 0; g < ann_.gates.size(); ++g) {
    const GateInfo& gi = ann_.gates[g];
    for (int k = 0; k < gi.nin; ++k)
      fanout_[static_cast<std::size_t>(gi.in[k])].push_back(
          {static_cast<std::uint32_t>(g), static_cast<std::uint8_t>(k)});
  }

  flop_state_.assign(ann_.flops.size(), init);
  for (std::size_t f = 0; f < ann_.flops.size(); ++f)
    flop_index_[ann_.flops[f].inst] = f;

  macro_pin_index_.resize(ann_.macros.size());
  for (std::size_t m = 0; m < ann_.macros.size(); ++m) {
    macro_index_[ann_.macros[m].inst] = m;
    for (std::size_t o = 0; o < ann_.macros[m].outputs.size(); ++o)
      macro_pin_index_[m][ann_.macros[m].outputs[o].pin] = o;
  }

  endpoints_on_net_.resize(n_nets);
  for (std::size_t e = 0; e < ann_.endpoints.size(); ++e)
    endpoints_on_net_[static_cast<std::size_t>(ann_.endpoints[e].net)]
        .push_back(e);
  endpoint_violations_.assign(ann_.endpoints.size(), 0);

  event_budget_ = 1000 * (ann_.gates.size() + ann_.flops.size() + 64);

  adapter_ = std::make_unique<MacroPortAdapter>(*this, nl, cells);
  next_edge_ = period_fs_;
  prime();
}

EventSimulator::~EventSimulator() = default;

void EventSimulator::prime() {
  // Power-up evaluation: every gate whose function of the initial values
  // disagrees with its (initial) output schedules a change — the event
  // analogue of the settle engine's first settle() pass. With X init most
  // gates stay X; tie cells and gates with controlling constants resolve.
  for (std::size_t g = 0; g < ann_.gates.size(); ++g) {
    const GateInfo& gi = ann_.gates[g];
    Logic in[4];
    for (int k = 0; k < gi.nin; ++k)
      in[k] = values_[static_cast<std::size_t>(gi.in[k])];
    const Logic v = eval_func(gi.func, in, gi.nin);
    TimeFs delay = 0;
    for (int k = 0; k < gi.nin; ++k) delay = std::max(delay, gi.delay_fs[k]);
    schedule_output(gi.out, v, delay);
  }
}

void EventSimulator::attach(InstId inst,
                            std::shared_ptr<netlist::MacroModel> model) {
  LIMS_CHECK_MSG(macro_index_.count(inst) != 0,
                 "attach on non-macro instance " << nl_.instance(inst).name);
  macros_.attach(inst, std::move(model));
}

netlist::MacroModel* EventSimulator::model(InstId inst) const {
  return macros_.model(inst);
}

void EventSimulator::flip_flop(InstId inst) {
  const auto it = flop_index_.find(inst);
  LIMS_CHECK_MSG(it != flop_index_.end(),
                 "not a flop: " << nl_.instance(inst).name);
  const std::size_t f = it->second;
  const Logic flipped = flop_state_[f] == Logic::k1 ? Logic::k0 : Logic::k1;
  flop_state_[f] = flipped;
  // The corrupted value leaves the cell through the normal CK->Q arc, as
  // if the storage node flipped right now.
  schedule_output(ann_.flops[f].q, flipped, t_now_ + ann_.flops[f].clk_to_q_fs);
}

void EventSimulator::arm_set_pulse(NetId net, TimeFs width_fs,
                                   TimeFs lead_fs) {
  LIMS_CHECK_MSG(static_cast<std::size_t>(net) < values_.size(),
                 "SET pulse on unknown net " << net);
  LIMS_CHECK_MSG(net != nl_.clock(), "SET pulse on the clock net");
  LIMS_CHECK_MSG(width_fs > 0, "SET pulse needs a positive width");
  LIMS_CHECK_MSG(!set_armed_, "a SET pulse is already armed");
  set_armed_ = true;
  set_net_ = net;
  set_width_fs_ = width_fs;
  set_lead_fs_ = lead_fs;
}

void EventSimulator::fire_set(TimeFs t_pulse) {
  set_armed_ = false;
  const auto n = static_cast<std::size_t>(set_net_);
  const Logic v = values_[n];
  const Logic hit = v == Logic::k1 ? Logic::k0 : Logic::k1;  // X upsets to 1
  t_now_ = std::max(t_now_, t_pulse);
  // The particle strike overrides the driver instantly...
  apply_change(set_net_, hit, t_now_);
  // ...and the driving gate restores the functional value once the
  // deposited charge dissipates (the pulse's trailing edge).
  schedule_output(set_net_, v, t_now_ + set_width_fs_);
}

void EventSimulator::set_input(NetId net, bool value) {
  apply_change(net, from_bool(value), t_now_);
}

void EventSimulator::set_bus(const std::vector<NetId>& bus,
                             std::uint64_t value) {
  LIMS_CHECK(bus.size() <= 64);
  for (std::size_t i = 0; i < bus.size(); ++i)
    set_input(bus[i], (value >> i) & 1);
}

std::uint64_t EventSimulator::bus_value(const std::vector<NetId>& bus) const {
  LIMS_CHECK(bus.size() <= 64);
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < bus.size(); ++i)
    if (to_bool(value(bus[i]))) v |= (std::uint64_t{1} << i);
  return v;
}

bool EventSimulator::bus_has_x(const std::vector<NetId>& bus) const {
  for (NetId n : bus)
    if (is_x(value(n))) return true;
  return false;
}

Logic EventSimulator::flop_state(InstId inst) const {
  const auto it = flop_index_.find(inst);
  LIMS_CHECK_MSG(it != flop_index_.end(),
                 "not a flop: " << nl_.instance(inst).name);
  return flop_state_[it->second];
}

void EventSimulator::touch_net(NetId net) {
  const auto n = static_cast<std::size_t>(net);
  if (cycle_transitions_[n] == 0) touched_.push_back(net);
  ++cycle_transitions_[n];
}

void EventSimulator::apply_change(NetId net, Logic v, TimeFs t) {
  const auto n = static_cast<std::size_t>(net);
  LIMS_CHECK(n < values_.size());
  if (values_[n] == v) return;
  values_[n] = v;
  last_change_[n] = t;
  if (net != nl_.clock()) {
    ++toggle_counts_[n];
    touch_net(net);
  }
  if (vcd_) vcd_->change(t, net, v);
  for (const Fanin& f : fanout_[n]) eval_and_schedule(f.gate, f.input, t);
}

void EventSimulator::eval_and_schedule(std::uint32_t gate, std::uint8_t input,
                                       TimeFs t_cause) {
  const GateInfo& gi = ann_.gates[gate];
  Logic in[4];
  for (int k = 0; k < gi.nin; ++k)
    in[k] = values_[static_cast<std::size_t>(gi.in[k])];
  const Logic v = eval_func(gi.func, in, gi.nin);
  // Delay through the arc of the input that just changed (wire delay of
  // the input net folded in at annotation time).
  schedule_output(gi.out, v, t_cause + gi.delay_fs[input]);
}

void EventSimulator::schedule_output(NetId net, Logic v, TimeFs te) {
  const auto n = static_cast<std::size_t>(net);
  const EventWheel::Handle p = pending_[n];
  if (p != EventWheel::kNoHandle) {
    const Logic pv = wheel_.scheduled_value(p);
    if (v == pv) {
      // Re-affirmed target: the transition happens at the earliest
      // sufficient cause.
      if (te < wheel_.scheduled_time(p)) {
        wheel_.cancel(p);
        pending_[n] = wheel_.schedule(te, net, v);
      }
      return;
    }
    // Preempted before it could land: an inertially filtered pulse.
    wheel_.cancel(p);
    pending_[n] = EventWheel::kNoHandle;
    if (net != nl_.clock()) ++glitch_.filtered;
    if (v == values_[n]) return;  // swallowed entirely
  } else if (v == values_[n]) {
    return;
  }
  pending_[n] = wheel_.schedule(te, net, v);
}

void EventSimulator::drain(TimeFs horizon, bool bounded) {
  while (!wheel_.empty() && (!bounded || wheel_.next_time() < horizon)) {
    const EventWheel::Popped ev = wheel_.pop();
    const auto n = static_cast<std::size_t>(ev.net);
    pending_[n] = EventWheel::kNoHandle;
    t_now_ = ev.time;
    ++events_processed_;
    if (++cycle_events_ > event_budget_) {
      std::ostringstream os;
      os << "evsim event budget (" << event_budget_ << ") exceeded in cycle "
         << cycles_ << "; last event on net " << nl_.net_name(ev.net)
         << " (oscillating loop through a macro model?)";
      throw Error(ErrorCode::kResourceExhausted, os.str());
    }
    apply_change(ev.net, ev.value, ev.time);
  }
}

void EventSimulator::check_setup(TimeFs t_edge) {
  const TimeFs guard = to_fs(kSetupGuard);
  for (std::size_t e = 0; e < ann_.endpoints.size(); ++e) {
    const EndpointInfo& ep = ann_.endpoints[e];
    const auto n = static_cast<std::size_t>(ep.net);
    // Late data: still in flight at the capture edge, or settled inside
    // the setup window. The guard absorbs annotation rounding so a design
    // run exactly at STA's min_period reports clean.
    const bool in_flight = pending_[n] != EventWheel::kNoHandle;
    const bool in_window = last_change_[n] + ep.window_fs > t_edge + guard;
    if (in_flight || in_window) {
      ++endpoint_violations_[e];
      ++total_violations_;
    }
  }
}

void EventSimulator::edge(TimeFs t_edge) {
  edge_time_ = t_edge;
  // Sample every flop's D (pre-edge values) before any commit, exactly
  // like the settle engine's two-phase clock_edge.
  std::vector<Logic> next(flop_state_);
  for (std::size_t f = 0; f < ann_.flops.size(); ++f) {
    const FlopInfo& fi = ann_.flops[f];
    const Logic d = values_[static_cast<std::size_t>(fi.d)];
    if (fi.en == netlist::kNoNet) {
      next[f] = d;
    } else {
      const Logic en = values_[static_cast<std::size_t>(fi.en)];
      if (en == Logic::k1)
        next[f] = d;
      else if (en == Logic::kX && d != flop_state_[f])
        next[f] = Logic::kX;
    }
  }
  // Macro models fire on pre-edge pin values; their drives land at the
  // annotated CK->pin delay.
  for (const auto& [inst, model] : macros_.models())
    model->on_clock(*adapter_, inst);
  // Commit: Q transitions launch at the annotated CK->Q delay.
  for (std::size_t f = 0; f < ann_.flops.size(); ++f) {
    const FlopInfo& fi = ann_.flops[f];
    if (flop_state_[f] == next[f]) continue;
    flop_state_[f] = next[f];
    schedule_output(fi.q, next[f], t_edge + fi.clk_to_q_fs);
  }
  // Clock pulse: rise now, fall scheduled mid-period through the wheel.
  // The clock net is excluded from toggle/glitch statistics (its energy
  // is priced by the clock-tree power model, not by activity).
  if (nl_.clock() != netlist::kNoNet) {
    apply_change(nl_.clock(), Logic::k1, t_edge);
    schedule_output(nl_.clock(), Logic::k0, t_edge + period_fs_ / 2);
  }
}

void EventSimulator::finalize_cycle_glitches() {
  for (NetId net : touched_) {
    const auto n = static_cast<std::size_t>(net);
    const std::uint32_t k = cycle_transitions_[n];
    const std::uint32_t functional =
        cycle_start_value_[n] != values_[n] ? 1 : 0;
    const std::uint32_t extra = k - functional;
    glitch_counts_[n] += extra;
    glitch_.propagated += extra;
    cycle_transitions_[n] = 0;
    cycle_start_value_[n] = values_[n];
  }
  touched_.clear();
}

void EventSimulator::cycle() {
  cycle_events_ = 0;
  if (timed_) {
    const TimeFs t_edge = next_edge_;
    if (set_armed_) {
      const TimeFs t_pulse =
          t_edge > set_lead_fs_ ? t_edge - set_lead_fs_ : TimeFs{0};
      drain(std::max(t_now_, t_pulse), /*bounded=*/true);
      fire_set(t_pulse);
    }
    drain(t_edge, /*bounded=*/true);
    check_setup(t_edge);
    edge(t_edge);
    t_now_ = t_edge;
  } else {
    // Quiesce: settle-equivalent end-of-cycle state. Drain everything,
    // clock the state, drain the consequences.
    drain(0, /*bounded=*/false);
    TimeFs t_edge = std::max(next_edge_, t_now_ + 1);
    if (set_armed_) {
      // A quiesce cycle has no real clock, so pin the strike exactly
      // `lead` before the edge (pushing the edge out if the cycle has
      // already settled closer than that). Capture then follows the same
      // physics as timed mode: a corrupted front whose path delay p
      // satisfies lead - width < p <= lead is still live at the edge;
      // everything else reconverges or arrives too late.
      t_edge = std::max(t_edge, t_now_ + set_lead_fs_);
      fire_set(t_edge - set_lead_fs_);
      drain(t_edge, /*bounded=*/true);
    }
    edge(t_edge);
    t_now_ = t_edge;
    drain(0, /*bounded=*/false);
  }
  finalize_cycle_glitches();
  ++cycles_;
  next_edge_ = std::max(t_now_ + 1, (timed_ ? next_edge_ : t_now_) + period_fs_);
}

std::vector<SetupViolation> EventSimulator::violations_by_endpoint() const {
  std::vector<SetupViolation> out;
  for (std::size_t e = 0; e < ann_.endpoints.size(); ++e) {
    if (endpoint_violations_[e] == 0) continue;
    out.push_back({ann_.endpoints[e].name, endpoint_violations_[e]});
  }
  std::sort(out.begin(), out.end(),
            [](const SetupViolation& a, const SetupViolation& b) {
              if (a.count != b.count) return a.count > b.count;
              return a.endpoint < b.endpoint;
            });
  return out;
}

netlist::Activity EventSimulator::activity() const {
  netlist::Activity act;
  act.cycles = cycles_;
  act.toggles = toggle_counts_;
  act.glitch_toggles = glitch_counts_;
  act.macro_accesses = macros_.access_counts();
  return act;
}

void EventSimulator::stream_vcd(std::ostream& os) {
  LIMS_CHECK_MSG(cycles_ == 0 && !vcd_,
                 "stream_vcd must be called once, before the first cycle");
  vcd_ = std::make_unique<VcdWriter>(os, nl_);
  vcd_->write_header(values_);
}

void EventSimulator::finish_vcd() {
  if (vcd_) vcd_->finish(t_now_);
}

Logic EventSimulator::pin_logic(InstId inst, const std::string& pin) const {
  // Cached per-instance pin resolution (one hash lookup per model call,
  // no linear pin scan).
  const NetId net = macros_.pin_net(nl_, inst, pin);
  LIMS_CHECK_MSG(net != netlist::kNoNet,
                 "instance " << nl_.instance(inst).name << " has no pin "
                             << pin);
  return value(net);
}

void EventSimulator::macro_drive(InstId inst, const std::string& pin,
                                 bool v) {
  const auto it = macro_index_.find(inst);
  LIMS_CHECK_MSG(it != macro_index_.end(),
                 "drive_pin on non-macro " << nl_.instance(inst).name);
  const auto& pins = macro_pin_index_[it->second];
  const auto pit = pins.find(pin);
  LIMS_CHECK_MSG(pit != pins.end(), "macro " << nl_.instance(inst).name
                                             << " has no output pin " << pin);
  const MacroOutInfo& out = ann_.macros[it->second].outputs[pit->second];
  schedule_output(out.net, from_bool(v), edge_time_ + out.delay_fs);
}

void EventSimulator::note_macro_access(InstId inst) {
  macros_.note_access(inst);
}

}  // namespace limsynth::evsim
