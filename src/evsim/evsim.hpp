// Event-driven timing simulation over netlist::Netlist.
//
// Where the settle engine answers "what value does this net reach", this
// engine answers "when, and through how many spurious transitions". Nets
// change through timestamped events drained from a calendar-queue wheel;
// every gate arc carries its back-annotated NLDM delay (see annotate.hpp),
// so unequal path depths produce real hazard pulses. Inertial filtering
// models what silicon does to pulses shorter than a gate's response:
// a pending output event preempted by a newer evaluation is a *filtered*
// glitch (it never reaches the net); extra transitions that do land on a
// net beyond its one functional change per cycle are *propagated* glitches
// and feed the glitch component of power analysis.
//
// Two clocking modes:
//  - quiesce (period = 0): every cycle drains the wheel to empty before
//    and after the edge. Timing-accurate event order, settle-equivalent
//    end-of-cycle state — the mode cross_check() uses.
//  - timed (period > 0): the edge cuts the event stream at t = k*period.
//    Late arrivals are *missed* by captures, which is what makes the STA
//    min_period claim checkable dynamically (see crosscheck.hpp).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "evsim/annotate.hpp"
#include "evsim/logic.hpp"
#include "evsim/vcd.hpp"
#include "evsim/wheel.hpp"
#include "netlist/activity.hpp"
#include "netlist/bound.hpp"
#include "netlist/netlist.hpp"
#include "netlist/sim.hpp"

namespace limsynth::evsim {

/// Delays are inertial: a gate output re-evaluation preempts its own
/// pending event (short pulses are swallowed and counted as filtered
/// glitches). A cycle may drain at most 1000 * (gates + flops + 64)
/// events; exceeding that throws Error(kResourceExhausted) naming the net
/// of the last event.
struct EvsimOptions {
  /// Clock period in seconds; 0 selects quiesce mode (see header).
  double period = 0.0;
  /// Power-up state: X (hardware-honest) or 0 (settle-engine-equivalent,
  /// required by cross_check).
  bool x_init = true;
};

struct GlitchStats {
  /// Pulses swallowed by inertial filtering (never reached a net).
  std::uint64_t filtered = 0;
  /// Hazard transitions that landed on nets beyond the one functional
  /// change per cycle (these cost real energy).
  std::uint64_t propagated = 0;
};

struct SetupViolation {
  std::string endpoint;  // sta::StaResult::critical_endpoint formatting
  std::uint64_t count = 0;
};

class EventSimulator {
 public:
  EventSimulator(const netlist::Netlist& nl, const tech::StdCellLib& cells,
                 TimingAnnotation annotation,
                 const EvsimOptions& options = {});
  ~EventSimulator();

  /// Attaches an unmodified netlist::MacroModel; it sees this engine
  /// through the Simulator macro-port adapter.
  void attach(netlist::InstId inst, std::shared_ptr<netlist::MacroModel> model);
  /// The model attached to `inst`, or nullptr. Fault injectors use this to
  /// reach the MacroModel peek/poke state surface of a live run.
  netlist::MacroModel* model(netlist::InstId inst) const;

  /// Applies a primary-input change at the current time (takes effect in
  /// the upcoming cycle, like Simulator::set_input before settle()).
  void set_input(netlist::NetId net, bool value);
  void set_bus(const std::vector<netlist::NetId>& bus, std::uint64_t value);

  /// Advances one clock cycle (events, rising edge, captures).
  void cycle();

  Logic value(netlist::NetId net) const {
    return values_[static_cast<std::size_t>(net)];
  }
  /// Bus value; X bits read as 0 (check bus_has_x when it matters).
  std::uint64_t bus_value(const std::vector<netlist::NetId>& bus) const;
  bool bus_has_x(const std::vector<netlist::NetId>& bus) const;
  Logic flop_state(netlist::InstId inst) const;

  std::uint64_t cycles() const { return cycles_; }
  TimeFs now_fs() const { return t_now_; }
  std::uint64_t events_processed() const { return events_processed_; }

  const GlitchStats& glitch_stats() const { return glitch_; }
  std::uint64_t toggles(netlist::NetId net) const {
    return toggle_counts_[static_cast<std::size_t>(net)];
  }
  std::uint64_t glitch_toggles(netlist::NetId net) const {
    return glitch_counts_[static_cast<std::size_t>(net)];
  }

  /// Setup checks run in timed mode only (quiesce mode has no deadline).
  std::uint64_t setup_violations() const { return total_violations_; }
  /// Per-endpoint violation counts, most-violated first.
  std::vector<SetupViolation> violations_by_endpoint() const;

  /// Switching activity in the engine-independent record consumed by
  /// power::analyze_power (includes glitch transitions).
  netlist::Activity activity() const;

  /// Streams value changes as VCD to `os` (which must outlive the
  /// simulator). Call before the first cycle(); the header dumps the
  /// current (power-up) state.
  void stream_vcd(std::ostream& os);
  /// Emits the closing timestamp and flushes (no-op without stream_vcd).
  void finish_vcd();

  const netlist::Netlist& netlist() const { return nl_; }
  /// The annotation this engine replays (fault-site enumeration reads the
  /// gate and flop tables from here).
  const TimingAnnotation& annotation() const { return ann_; }

  // --- transient-fault surface (src/seu) ---

  /// Single-event upset in a sequential element: inverts the stored state
  /// and launches the corrupted Q at the clock-to-Q arc delay, as if the
  /// storage node flipped at the current time. X state upsets to 1.
  void flip_flop(netlist::InstId inst);

  /// Arms one single-event transient: during the next cycle(), `net` is
  /// inverted `lead_fs` before the capture edge and re-driven to its
  /// functional value `width_fs` later. The pulse propagates through real
  /// arc delays, so inertial filtering can swallow it and the capture
  /// window decides whether it is latched — exactly the masking physics a
  /// SET campaign wants to measure. One pulse may be armed at a time.
  void arm_set_pulse(netlist::NetId net, TimeFs width_fs, TimeFs lead_fs);

  // Macro-port surface used by the adapter (public for the adapter, not
  // meant for testbenches).
  Logic pin_logic(netlist::InstId inst, const std::string& pin) const;
  void macro_drive(netlist::InstId inst, const std::string& pin, bool value);
  void note_macro_access(netlist::InstId inst);

 private:
  struct Fanin {
    std::uint32_t gate;  // index into ann_.gates
    std::uint8_t input;  // input position on that gate
  };

  void prime();
  void apply_change(netlist::NetId net, Logic v, TimeFs t);
  void eval_and_schedule(std::uint32_t gate, std::uint8_t input,
                         TimeFs t_cause);
  void schedule_output(netlist::NetId net, Logic v, TimeFs te);
  void drain(TimeFs horizon, bool bounded);
  void fire_set(TimeFs t_pulse);
  void edge(TimeFs t_edge);
  void check_setup(TimeFs t_edge);
  void finalize_cycle_glitches();
  void touch_net(netlist::NetId net);

  const netlist::Netlist& nl_;
  TimingAnnotation ann_;
  EvsimOptions opt_;
  bool timed_ = false;
  TimeFs period_fs_ = 0;

  EventWheel wheel_;
  std::vector<Logic> values_;
  std::vector<std::vector<Fanin>> fanout_;  // net -> gate inputs it feeds
  std::vector<EventWheel::Handle> pending_;  // at most 1 event per net

  std::vector<Logic> flop_state_;            // parallel to ann_.flops
  std::map<netlist::InstId, std::size_t> flop_index_;
  std::map<netlist::InstId, std::size_t> macro_index_;
  /// Shared macro binding table (same machinery as netlist::Simulator).
  netlist::MacroBindings macros_;
  std::unique_ptr<netlist::Simulator> adapter_;
  std::vector<std::unordered_map<std::string, std::size_t>> macro_pin_index_;

  std::vector<std::vector<std::size_t>> endpoints_on_net_;
  std::vector<std::uint64_t> endpoint_violations_;
  std::uint64_t total_violations_ = 0;

  std::vector<std::uint64_t> toggle_counts_;
  std::vector<std::uint64_t> glitch_counts_;
  std::vector<std::uint32_t> cycle_transitions_;
  std::vector<Logic> cycle_start_value_;
  std::vector<netlist::NetId> touched_;
  std::vector<TimeFs> last_change_;

  // Armed single-event transient (applied by the next cycle()).
  bool set_armed_ = false;
  netlist::NetId set_net_ = netlist::kNoNet;
  TimeFs set_width_fs_ = 0;
  TimeFs set_lead_fs_ = 0;

  GlitchStats glitch_;
  std::uint64_t cycles_ = 0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t cycle_events_ = 0;
  std::uint64_t event_budget_ = 0;
  TimeFs t_now_ = 0;
  TimeFs next_edge_ = 0;
  TimeFs edge_time_ = 0;  // during edge(): when macro drives launch

  std::unique_ptr<VcdWriter> vcd_;
};

}  // namespace limsynth::evsim
