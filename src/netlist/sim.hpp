// Gate-level two-phase logic simulation.
//
// Plays the role Modelsim plays in the paper's flow: functional
// verification of the elaborated netlists and generation of switching
// activity (.saif substitute) for power analysis. Memory-brick macros are
// attached as behavioral models through the MacroModel interface.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "netlist/bound.hpp"
#include "netlist/netlist.hpp"
#include "tech/stdcell.hpp"

namespace limsynth::netlist {

class Simulator;

/// Behavioral model for a macro instance (e.g. a memory brick bank).
/// Called on every clock edge with read access to current net values and
/// the ability to schedule its output values for the new cycle.
///
/// Models must confine themselves to the virtual macro-port surface of
/// Simulator (pin_value / drive_pin / note_macro_access) so the same
/// model runs unmodified on the event-driven engine through its adapter.
class MacroModel {
 public:
  virtual ~MacroModel() = default;
  /// Invoked at the clock edge, before combinational resettling. Read pin
  /// values with sim.pin_value(inst, "NAME[i]") and drive outputs with
  /// sim.drive_pin(inst, "DO[j]", v).
  virtual void on_clock(Simulator& sim, InstId inst) = 0;

  // State mutation surface: models with internal storage expose it as
  // state_rows() words of state_bits() bits each, so fault injectors
  // (SEU campaigns) and checkpointers can read and corrupt live state
  // without knowing the concrete model type. The default is a model with
  // no inspectable state; peek/poke on it throw Error(kInvalidConfig).
  virtual int state_rows() const { return 0; }
  virtual int state_bits() const { return 0; }
  /// Reads stored word `row`. Throws Error(kInvalidConfig) when the row is
  /// out of range or the model exposes no state.
  virtual std::uint64_t peek(int row) const;
  /// Overwrites stored word `row` (value is masked to state_bits()). Same
  /// error contract as peek. Side-band state (e.g. CAM validity flags) is
  /// left untouched — a poke models corrupted storage, not a write access.
  virtual void poke(int row, std::uint64_t value);
  /// Single-event upset helper: XORs `mask` into stored word `row`.
  void flip_state_bits(int row, std::uint64_t mask) {
    poke(row, peek(row) ^ mask);
  }
};

/// Watchdog budgets for the settle fixpoint. Zero fields mean "automatic":
/// max_passes defaults to instance count + 2 (enough for any acyclic
/// netlist) and wall_seconds to unlimited.
struct SettleBudget {
  std::size_t max_passes = 0;
  double wall_seconds = 0.0;
};

class Simulator {
 public:
  Simulator(const Netlist& nl, const tech::StdCellLib& cells);
  virtual ~Simulator() = default;

  /// Attaches a behavioral model to a macro instance.
  void attach(InstId inst, std::shared_ptr<MacroModel> model);

  /// Sets a primary input (call settle() afterwards).
  void set_input(NetId net, bool value);
  void set_bus(const std::vector<NetId>& bus, std::uint64_t value);

  /// Propagates combinational logic to a fixpoint. Throws
  /// Error(kNonConvergence) naming the still-oscillating nets when the
  /// pass budget runs out (combinational loop), and
  /// Error(kResourceExhausted) when the wall-clock budget does.
  void settle();

  /// Overrides the settle watchdog budgets (see SettleBudget).
  void set_settle_budget(const SettleBudget& budget) { budget_ = budget; }

  /// One rising clock edge: DFFs capture, macro models fire, then logic
  /// resettles. Counts as one cycle for activity statistics.
  void clock_edge();

  bool value(NetId net) const;
  std::uint64_t bus_value(const std::vector<NetId>& bus) const;

  /// Macro-model port (virtual so the event-driven engine can present
  /// itself to unmodified MacroModels through an adapter).
  virtual bool pin_value(InstId inst, const std::string& pin) const;
  virtual void drive_pin(InstId inst, const std::string& pin, bool value);

  /// Fault-injection hook: clamps a net to a fixed value. A forced net
  /// resists every driver (primary inputs, gates, flops, macro models)
  /// until released — the gate-level model of a stuck-at net, e.g. a
  /// defective word line or bank-select wire.
  void force_net(NetId net, bool value);
  void release_net(NetId net);

  /// Activity statistics for power analysis.
  std::uint64_t toggles(NetId net) const;
  std::uint64_t cycles() const { return cycles_; }
  /// Number of clock cycles in which a macro instance was "accessed"
  /// (its model reported activity via note_macro_access).
  std::uint64_t macro_accesses(InstId inst) const;
  virtual void note_macro_access(InstId inst);

  const Netlist& netlist() const { return nl_; }
  /// The shared macro-model binding table (attach/access accounting).
  const MacroBindings& macro_bindings() const { return macros_; }

 private:
  /// Per-instance resolution of cell function and pin nets, computed once
  /// at construction so settle()/clock_edge() run index-only (no string
  /// lookups on the hot path).
  struct GateBinding {
    tech::CellFunc func = tech::CellFunc::kInv;
    bool known = false;       // cell stem found in the StdCellLib
    bool sequential = false;
    int nin = 0;
    NetId out = kNoNet;                          // Y
    NetId in[4] = {kNoNet, kNoNet, kNoNet, kNoNet};  // A, B, C, D
    NetId d = kNoNet, q = kNoNet, en = kNoNet;   // DFF/DFFE pins
    std::int8_t missing_input = -1;  // first unresolved input position
  };

  void set_net(NetId net, bool value, bool count_toggle);
  bool eval_gate(InstId id, const GateBinding& gb) const;

  const Netlist& nl_;
  std::vector<GateBinding> gates_;  // parallel to instance storage
  std::vector<bool> values_;
  std::vector<bool> ff_state_;  // per instance (DFF/DFFE)
  std::vector<std::uint64_t> toggle_counts_;
  std::map<NetId, bool> forced_;  // stuck-at net faults
  MacroBindings macros_;
  std::uint64_t cycles_ = 0;
  SettleBudget budget_;
};

}  // namespace limsynth::netlist
