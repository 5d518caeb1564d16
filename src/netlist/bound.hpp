// Bound (linked) design layer — the bind-once/query-fast split.
//
// Every analysis pass used to re-pay string resolution per instance per
// query: `lib.cell(inst.cell)` map lookups, `find_pin` linear scans, and
// `find_arc` string compares in STA's innermost loop. BoundDesign performs
// that resolution exactly once: each instance's cell name becomes a dense
// LibCellId, each connection's pin name an interned PinId plus a slot index
// into the cell's input/output pin models, and all timing arcs/constraints
// are laid out in per-cell slot-indexed tables. Consumers (sta, power,
// evsim annotate, netlist/sim, place) then run on integers and pointers
// only.
//
// A binding is a snapshot: it captures Netlist::revision() at construction
// and every accessor path starts from check_fresh(), which throws a typed
// Error(kStaleBinding) once the netlist has been edited. Rebinding after an
// edit is cheap and explicit; silently reading dead instances is not
// possible.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "liberty/library.hpp"
#include "netlist/netlist.hpp"

namespace limsynth::netlist {

class MacroModel;

/// Dense library-cell id: position of the cell in Library::cells().
using LibCellId = std::int32_t;
/// Interned pin-name id, unique per BoundDesign.
using PinId = std::int32_t;

inline constexpr LibCellId kNoCell = -1;
inline constexpr PinId kNoPin = -1;

/// Minimal contiguous const view (std::span substitute for C++17).
template <typename T>
class Span {
 public:
  Span() = default;
  Span(const T* data, std::size_t size) : data_(data), size_(size) {}
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  const T* data_ = nullptr;
  std::size_t size_ = 0;
};

/// One resolved connection: the pin string is gone, replaced by the
/// interned PinId (full name, e.g. "DI[3]") and the slot of its base name
/// in the cell's input or output pin-model list. Pin direction comes from
/// that pin model, never from the pin's name.
struct BoundConn {
  NetId net = kNoNet;
  PinId pin = kNoPin;
  /// Index into LibCell::inputs (is_output == false) or LibCell::outputs
  /// (is_output == true). Always valid: pins the cell does not model are
  /// rejected at bind time.
  std::int16_t slot = -1;
  bool is_output = false;
  /// The pin-model is the cell's clock input.
  bool is_clock = false;
  /// Input pin capacitance (F); 0 for outputs.
  double cap = 0.0;
};

/// Immutable bind of a Netlist against a Library — the design's only
/// connectivity index. Const-shareable across threads once constructed.
class BoundDesign {
 public:
  /// Resolves every instance and connection. Throws Error(kInvalidConfig)
  /// when an instance references a cell missing from `lib` or a conn
  /// references a pin the cell does not model. Both `nl` and `lib` must
  /// outlive the binding.
  BoundDesign(const Netlist& nl, const liberty::Library& lib);

  const Netlist& netlist() const { return *nl_; }
  const liberty::Library& library() const { return *lib_; }

  /// Throws Error(kStaleBinding) when the netlist has been structurally
  /// edited (revision changed) since this binding was built. Analysis
  /// passes call it once on entry.
  void check_fresh() const;
  bool fresh() const { return nl_->revision() == bound_revision_; }

  // ------------------------------------------------------- instance views
  /// Instance storage size (dead slots included), as in the netlist.
  std::size_t instance_count() const { return inst_cell_.size(); }
  bool is_live(InstId id) const { return nl_->is_live(id); }
  std::size_t live_instance_count() const { return live_instances_; }

  LibCellId cell_id(InstId id) const {
    return inst_cell_[static_cast<std::size_t>(id)];
  }
  /// The library cell of an instance (dense array deref, no map lookup).
  const liberty::LibCell& cell(InstId id) const {
    return lib_->cells()[static_cast<std::size_t>(cell_id(id))];
  }
  /// Resolved connections of an instance, in netlist conn order.
  Span<BoundConn> conns(InstId id) const {
    const auto& r = inst_conn_range_[static_cast<std::size_t>(id)];
    return {conns_.data() + r.first, r.second - r.first};
  }
  /// Global conn index (into conn_at) of an instance's first connection.
  std::uint32_t conn_begin(InstId id) const {
    return inst_conn_range_[static_cast<std::size_t>(id)].first;
  }
  bool is_seq_or_macro(InstId id) const {
    const auto& c = cell(id);
    return c.sequential || c.is_macro;
  }

  // ------------------------------------------------------ per-cell views
  std::size_t cell_count() const { return lib_->cells().size(); }
  const liberty::LibCell& lib_cell(LibCellId cid) const {
    return lib_->cells()[static_cast<std::size_t>(cid)];
  }

  // ------------------------------------------------------- timing tables
  /// The in-slot -> out-slot timing arc, or nullptr (non-timing pin).
  const liberty::TimingArc* arc(LibCellId cid, int in_slot,
                                int out_slot) const {
    const CellTables& t = tables_[static_cast<std::size_t>(cid)];
    if (in_slot < 0 || out_slot < 0) return nullptr;
    return t.arcs[static_cast<std::size_t>(in_slot) * t.n_out +
                  static_cast<std::size_t>(out_slot)];
  }
  /// Clock -> out-slot arc of a sequential/macro cell, or nullptr.
  const liberty::TimingArc* clock_arc(LibCellId cid, int out_slot) const {
    if (out_slot < 0) return nullptr;
    return tables_[static_cast<std::size_t>(cid)]
        .clock_arcs[static_cast<std::size_t>(out_slot)];
  }
  /// Setup/hold constraint on an input slot, or nullptr.
  const liberty::Constraint* constraint(LibCellId cid, int in_slot) const {
    if (in_slot < 0) return nullptr;
    return tables_[static_cast<std::size_t>(cid)]
        .constraints[static_cast<std::size_t>(in_slot)];
  }
  /// Input slot of the cell's clock pin ("CK" by convention when the cell
  /// does not name one), or -1.
  int clock_slot(LibCellId cid) const {
    return tables_[static_cast<std::size_t>(cid)].clock_slot;
  }

  // ------------------------------------------- connectivity (index-only)
  struct SinkRef {
    InstId inst = -1;
    /// Global conn index of the sink pin; resolve with conn_at().
    std::uint32_t conn = 0;
  };
  Span<SinkRef> sinks(NetId net) const {
    const auto& r = net_sink_range_[static_cast<std::size_t>(net)];
    return {sink_refs_.data() + r.first, r.second - r.first};
  }
  /// The driving instance of a net, or -1 (primary input / floating).
  InstId driver_inst(NetId net) const {
    return net_driver_[static_cast<std::size_t>(net)].inst;
  }
  /// The driving conn, or nullptr when the net has no instance driver.
  const BoundConn* driver(NetId net) const {
    const SinkRef& d = net_driver_[static_cast<std::size_t>(net)];
    return d.inst < 0 ? nullptr : &conns_[d.conn];
  }
  const BoundConn& conn_at(std::uint32_t global) const {
    return conns_[global];
  }
  /// Total sink pin capacitance per net, precomputed at bind time.
  double sink_cap(NetId net) const {
    return net_sink_cap_[static_cast<std::size_t>(net)];
  }
  /// The net drives a primary output port.
  bool is_po(NetId net) const {
    return net_is_po_[static_cast<std::size_t>(net)] != 0;
  }

  // ------------------------------------------------------- pin interning
  /// Id of a full pin name, or kNoPin when no conn in the design uses it.
  PinId pin_id(const std::string& name) const;
  const std::string& pin_name(PinId pin) const {
    return pin_names_[static_cast<std::size_t>(pin)];
  }
  std::size_t pin_count() const { return pin_names_.size(); }
  /// Net on `inst` connected through pin id `pin` (binary search over the
  /// instance's sorted pin table), or kNoNet.
  NetId pin_net(InstId inst, PinId pin) const;
  NetId pin_net(InstId inst, const std::string& pin) const {
    return pin_net(inst, pin_id(pin));
  }

 private:
  struct CellTables {
    std::size_t n_in = 0;
    std::size_t n_out = 0;
    /// Row-major [in_slot][out_slot] arc pointers.
    std::vector<const liberty::TimingArc*> arcs;
    /// Clock -> output arcs, indexed by out_slot.
    std::vector<const liberty::TimingArc*> clock_arcs;
    /// Constraints indexed by in_slot.
    std::vector<const liberty::Constraint*> constraints;
    int clock_slot = -1;
  };

  using Range = std::pair<std::uint32_t, std::uint32_t>;  // [first, second)

  const CellTables& build_tables(LibCellId cid);

  const Netlist* nl_;
  const liberty::Library* lib_;
  std::uint64_t bound_revision_ = 0;
  std::size_t live_instances_ = 0;

  std::vector<LibCellId> inst_cell_;
  std::vector<Range> inst_conn_range_;
  std::vector<BoundConn> conns_;

  std::vector<CellTables> tables_;

  std::vector<SinkRef> net_driver_;
  std::vector<Range> net_sink_range_;
  std::vector<SinkRef> sink_refs_;
  std::vector<double> net_sink_cap_;
  std::vector<char> net_is_po_;

  std::unordered_map<std::string, PinId> pin_ids_;
  std::vector<std::string> pin_names_;
  /// Per instance (same ranges as inst_conn_range_): (PinId, NetId) sorted
  /// by PinId for binary-search pin_net.
  std::vector<std::pair<PinId, NetId>> inst_pin_sorted_;
};

/// Shared macro-model binding table — the one place where behavioral
/// models attach to macro instances. Both simulation engines
/// (netlist::Simulator and evsim::EventSimulator) own one of these instead
/// of each keeping a private std::map, so attach semantics, deterministic
/// iteration order, and access accounting are defined once.
class MacroBindings {
 public:
  void attach(InstId inst, std::shared_ptr<MacroModel> model) {
    models_[inst] = std::move(model);
  }
  MacroModel* model(InstId inst) const {
    const auto it = models_.find(inst);
    return it == models_.end() ? nullptr : it->second.get();
  }
  bool attached(InstId inst) const { return models_.count(inst) != 0; }
  /// Deterministic (InstId-ordered) iteration for clock-edge dispatch.
  const std::map<InstId, std::shared_ptr<MacroModel>>& models() const {
    return models_;
  }
  void note_access(InstId inst) { ++access_counts_[inst]; }
  std::uint64_t accesses(InstId inst) const {
    const auto it = access_counts_.find(inst);
    return it == access_counts_.end() ? 0 : it->second;
  }
  /// All access counts (the Activity snapshot format).
  const std::map<InstId, std::uint64_t>& access_counts() const {
    return access_counts_;
  }

  /// Resolves a macro-port pin name to its net through a per-instance
  /// cache (built on first touch), so repeated model calls cost one hash
  /// lookup instead of a linear pin scan. Returns kNoNet when the
  /// instance has no such pin.
  NetId pin_net(const Netlist& nl, InstId inst, const std::string& pin) const;

 private:
  std::map<InstId, std::shared_ptr<MacroModel>> models_;
  std::map<InstId, std::uint64_t> access_counts_;
  mutable std::map<InstId, std::unordered_map<std::string, NetId>> pin_cache_;
};

}  // namespace limsynth::netlist
