// Word-wide bit-plane gate-level simulation.
//
// Packs 64 independent two-valued simulations into one pass: every net's
// value is a uint64_t *plane* whose bit L is the net's value in lane L,
// and every gate evaluates all 64 lanes with one bitwise expression
// (NAND2 is `~(a & b)`). Combined with the one-time levelization of the
// bound design (netlist/levelize.hpp), a settle is a single branch-free
// sweep over dense per-level gate arrays instead of the scalar engine's
// per-sample fixpoint — the amortization that makes 64-sample SEU replay
// and Monte-Carlo yield verification cost about one simulation each.
//
// Semantics are exactly netlist::Simulator's two-valued zero-init cycle
// model, per lane: set inputs, settle, then clock_edge() samples flop D
// pins, fires macro models on pre-commit values, commits Q, resettles.
// The evsim quiesce mode (period 0, x_init off) used by the SEU golden
// replay is settle-equivalent (evsim/crosscheck.hpp), so bit-plane lanes
// reproduce event-engine campaign classifications bit for bit. What the
// kernel deliberately does not model: X states, timing (SET pulse-width
// physics), forced nets, and activity accounting — callers fall back to
// the scalar engines for those.
//
// A BatchProgram is the bind-once artifact (levelized gate arrays, flop
// and macro tables); it is immutable and shared const across campaign
// workers. Each BatchSim over it is cheap: two plane vectors and the
// attached macro models.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "netlist/bound.hpp"
#include "netlist/levelize.hpp"
#include "tech/stdcell.hpp"

namespace limsynth::bitsim {

class BatchSim;

/// Number of independent simulations per plane word.
inline constexpr int kLanes = 64;

/// All-lanes mask helper.
inline constexpr std::uint64_t kAllLanes = ~std::uint64_t{0};

/// Broadcasts one lane's bit of `plane` across all 64 lanes (0 or ~0),
/// the divergence-mask primitive: `plane ^ lane_broadcast(plane, g)` has
/// a bit set in every lane that disagrees with lane g.
inline std::uint64_t lane_broadcast(std::uint64_t plane, int lane) {
  return std::uint64_t{0} - ((plane >> lane) & 1);
}

/// Behavioral macro model with per-lane state — the bit-plane counterpart
/// of netlist::MacroModel. The state surface (state_rows/state_bits,
/// peek/poke/flip per lane) mirrors the scalar model's so fault injectors
/// drive both through the same coordinates.
class BatchMacroModel {
 public:
  virtual ~BatchMacroModel() = default;
  /// Invoked at the clock edge on pre-commit pin planes; drive outputs
  /// with sim.drive_net.
  virtual void on_clock(BatchSim& sim, netlist::InstId inst) = 0;

  virtual int state_rows() const { return 0; }
  virtual int state_bits() const { return 0; }
  /// Reads lane `lane`'s stored word `row`; throws Error(kInvalidConfig)
  /// when out of range or the model exposes no state.
  virtual std::uint64_t peek(int lane, int row) const;
  /// Overwrites lane `lane`'s stored word `row` (masked to state_bits()).
  virtual void poke(int lane, int row, std::uint64_t value);
  /// Single-event upset helper: XORs `mask` into one lane's stored word.
  void flip_state_bits(int lane, int row, std::uint64_t mask) {
    poke(lane, row, peek(lane, row) ^ mask);
  }
};

/// The bind-once simulation program: levelized dense gate arrays plus
/// flop and macro tables resolved to NetIds. Construction throws
/// Error(kInvalidConfig) for anything outside the kernel's domain —
/// unknown cell stems, sequential cells other than DFF/DFFE, missing
/// pins — and Error(kNonConvergence) for combinational cycles; callers
/// treat either as "use the scalar engine for this design".
class BatchProgram {
 public:
  BatchProgram(const netlist::BoundDesign& bound,
               const tech::StdCellLib& cells);

  const netlist::BoundDesign& bound() const { return *bound_; }
  std::size_t levels() const { return level_begin_.size() - 1; }
  std::size_t gate_count() const { return gates_.size(); }
  std::size_t flop_count() const { return flops_.size(); }
  std::size_t macro_count() const { return macros_.size(); }
  const std::vector<netlist::InstId>& macros() const { return macros_; }
  /// Dense flop index of an instance, or -1 (not a supported flop).
  int flop_index(netlist::InstId inst) const {
    const auto it = flop_index_.find(inst);
    return it == flop_index_.end() ? -1 : it->second;
  }

 private:
  friend class BatchSim;

  struct Gate {
    tech::CellFunc func = tech::CellFunc::kInv;
    int nin = 0;
    netlist::NetId in[4] = {netlist::kNoNet, netlist::kNoNet,
                            netlist::kNoNet, netlist::kNoNet};
    netlist::NetId out = netlist::kNoNet;
  };
  struct Flop {
    bool has_enable = false;
    netlist::InstId inst = -1;
    netlist::NetId d = netlist::kNoNet;
    netlist::NetId q = netlist::kNoNet;
    netlist::NetId en = netlist::kNoNet;
  };

  const netlist::BoundDesign* bound_;
  std::vector<Gate> gates_;                  // levelized order
  std::vector<std::uint32_t> level_begin_;   // offsets into gates_
  std::vector<Flop> flops_;                  // InstId order
  std::unordered_map<netlist::InstId, int> flop_index_;
  std::vector<netlist::InstId> macros_;      // InstId order
  std::size_t net_count_ = 0;
};

/// 64-lane batch simulator over a BatchProgram. All lanes start at the
/// two-valued zero state (every net 0, every flop 0, macro state per
/// model) — the same power-up the SEU campaign's golden-equivalent evsim
/// options prescribe.
class BatchSim {
 public:
  explicit BatchSim(const BatchProgram& program);

  const BatchProgram& program() const { return *prog_; }

  /// Attaches a macro model; every macro instance in the program must be
  /// attached before the first settle()/clock_edge().
  void attach(netlist::InstId inst, std::shared_ptr<BatchMacroModel> model);

  /// Sets a primary input in every lane (broadcast).
  void set_input(netlist::NetId net, bool value);
  /// Sets a primary input's full 64-lane plane.
  void set_input_lanes(netlist::NetId net, std::uint64_t plane);
  /// Broadcasts a bus value to every lane.
  void set_bus(const std::vector<netlist::NetId>& bus, std::uint64_t value);

  /// One levelized evaluation sweep (the settle — exact, not iterative,
  /// because gates run in topological order).
  void settle();
  /// One rising clock edge with netlist::Simulator's ordering: sample all
  /// flop D planes, fire macro models on pre-commit planes, commit flop
  /// state/Q, then settle.
  void clock_edge();

  std::uint64_t plane(netlist::NetId net) const {
    return planes_[static_cast<std::size_t>(net)];
  }
  bool lane_value(netlist::NetId net, int lane) const {
    return (plane(net) >> lane) & 1;
  }
  std::uint64_t bus_value(const std::vector<netlist::NetId>& bus,
                          int lane) const;

  /// SEU surface: XORs `lane_mask` into a flop's stored state and its Q
  /// net plane — the settle-equivalent of EventSimulator::flip_flop, per
  /// lane. Throws Error(kInvalidConfig) for a non-flop instance.
  void flip_flop(netlist::InstId inst, std::uint64_t lane_mask);

  /// Macro-port surface (net-level; models resolve pins once at bind).
  void drive_net(netlist::NetId net, std::uint64_t value,
                 std::uint64_t lane_mask);

 private:
  const BatchProgram* prog_;
  std::vector<std::uint64_t> planes_;      // per net
  std::vector<std::uint64_t> flop_state_;  // per program flop
  std::map<netlist::InstId, std::shared_ptr<BatchMacroModel>> models_;
  bool models_checked_ = false;
};

}  // namespace limsynth::bitsim
