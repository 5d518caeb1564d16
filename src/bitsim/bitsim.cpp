#include "bitsim/bitsim.hpp"

#include "netlist/sim.hpp"
#include "util/error.hpp"

namespace limsynth::bitsim {

namespace {

// Input pin order shared with netlist::Simulator and evsim::annotate.
constexpr const char* kInputPins[4] = {"A", "B", "C", "D"};

}  // namespace

std::uint64_t BatchMacroModel::peek(int lane, int row) const {
  LIMS_FAIL(ErrorCode::kInvalidConfig,
            "batch macro model exposes no inspectable state (peek lane "
                << lane << " row " << row << ")");
}

void BatchMacroModel::poke(int lane, int row, std::uint64_t value) {
  (void)value;
  LIMS_FAIL(ErrorCode::kInvalidConfig,
            "batch macro model exposes no inspectable state (poke lane "
                << lane << " row " << row << ")");
}

BatchProgram::BatchProgram(const netlist::BoundDesign& bound,
                           const tech::StdCellLib& cells)
    : bound_(&bound) {
  bound.check_fresh();
  const netlist::Netlist& nl = bound.netlist();
  net_count_ = nl.nets().size();

  // The levelization supplies the dense gate order; resolving each gate's
  // pins here (once) is what lets settle() run four loads, one store, and
  // zero branches per gate per 64 lanes.
  const netlist::Levelization lv = netlist::levelize(bound);
  gates_.reserve(lv.order.size());
  level_begin_ = lv.level_begin;
  for (const netlist::InstId id : lv.order) {
    const netlist::Instance& inst = nl.instance(id);
    const tech::StdCell* cell = cells.find(inst.cell);
    if (cell == nullptr)
      LIMS_FAIL(ErrorCode::kInvalidConfig,
                "bitsim: unknown cell " << inst.cell << " on instance "
                                        << inst.name);
    Gate g;
    g.func = cell->func;
    g.nin = tech::cell_func_inputs(g.func);
    for (int k = 0; k < g.nin; ++k) {
      const netlist::NetId* in = inst.find_pin(kInputPins[k]);
      if (in == nullptr)
        LIMS_FAIL(ErrorCode::kInvalidConfig, "bitsim: cell "
                                                 << inst.name << " missing pin "
                                                 << kInputPins[k]);
      g.in[k] = *in;
    }
    const netlist::NetId* out = inst.find_pin("Y");
    if (out == nullptr)
      LIMS_FAIL(ErrorCode::kInvalidConfig,
                "bitsim: cell " << inst.name << " missing pin Y");
    g.out = *out;
    // settle() loads the first input unconditionally; a tie cell has none,
    // so point it at its own output, a valid plane whose value goes unused.
    if (g.nin == 0) g.in[0] = g.out;
    gates_.push_back(g);
  }
  if (level_begin_.empty()) level_begin_.push_back(0);

  // Sequential and macro instances (the level sources).
  for (std::size_t i = 0; i < bound.instance_count(); ++i) {
    const auto id = static_cast<netlist::InstId>(i);
    if (!bound.is_live(id) || !bound.is_seq_or_macro(id)) continue;
    if (bound.cell(id).is_macro) {
      macros_.push_back(id);
      continue;
    }
    const netlist::Instance& inst = nl.instance(id);
    const tech::StdCell* cell = cells.find(inst.cell);
    if (cell == nullptr)
      LIMS_FAIL(ErrorCode::kInvalidConfig,
                "bitsim: unknown sequential cell " << inst.cell
                                                   << " on instance "
                                                   << inst.name);
    const tech::CellFunc func = cell->func;
    if (func != tech::CellFunc::kDff && func != tech::CellFunc::kDffEn)
      LIMS_FAIL(ErrorCode::kInvalidConfig,
                "bitsim: unsupported sequential cell "
                    << inst.cell << " on instance " << inst.name
                    << " (only DFF/DFFE)");
    Flop f;
    f.has_enable = func == tech::CellFunc::kDffEn;
    f.inst = id;
    if (const netlist::NetId* d = inst.find_pin("D")) f.d = *d;
    if (const netlist::NetId* q = inst.find_pin("Q")) f.q = *q;
    if (f.has_enable)
      if (const netlist::NetId* en = inst.find_pin("EN")) f.en = *en;
    if (f.d == netlist::kNoNet || f.q == netlist::kNoNet ||
        (f.has_enable && f.en == netlist::kNoNet))
      LIMS_FAIL(ErrorCode::kInvalidConfig,
                "bitsim: flop " << inst.name << " missing D/Q/EN pins");
    flop_index_[id] = static_cast<int>(flops_.size());
    flops_.push_back(f);
  }
}

BatchSim::BatchSim(const BatchProgram& program) : prog_(&program) {
  planes_.assign(program.net_count_, 0);
  flop_state_.assign(program.flops_.size(), 0);
}

void BatchSim::attach(netlist::InstId inst,
                      std::shared_ptr<BatchMacroModel> model) {
  models_[inst] = std::move(model);
  models_checked_ = false;
}

void BatchSim::set_input(netlist::NetId net, bool value) {
  set_input_lanes(net, value ? kAllLanes : 0);
}

void BatchSim::set_input_lanes(netlist::NetId net, std::uint64_t plane) {
  const auto n = static_cast<std::size_t>(net);
  LIMS_CHECK(n < planes_.size());
  planes_[n] = plane;
}

void BatchSim::set_bus(const std::vector<netlist::NetId>& bus,
                       std::uint64_t value) {
  LIMS_CHECK(bus.size() <= 64);
  for (std::size_t i = 0; i < bus.size(); ++i)
    set_input_lanes(bus[i], ((value >> i) & 1) ? kAllLanes : 0);
}

void BatchSim::settle() {
  // One pass per level, in topological order: each gate reads only level
  // sources and already-evaluated outputs, so the sweep is exact.
  std::uint64_t* p = planes_.data();
  for (const BatchProgram::Gate& g : prog_->gates_) {
    const std::uint64_t a = p[static_cast<std::size_t>(g.in[0])];
    const std::uint64_t b = g.nin > 1 ? p[static_cast<std::size_t>(g.in[1])] : 0;
    const std::uint64_t c = g.nin > 2 ? p[static_cast<std::size_t>(g.in[2])] : 0;
    const std::uint64_t d = g.nin > 3 ? p[static_cast<std::size_t>(g.in[3])] : 0;
    std::uint64_t y = 0;
    using tech::CellFunc;
    switch (g.func) {
      case CellFunc::kInv: y = ~a; break;
      case CellFunc::kBuf: y = a; break;
      case CellFunc::kNand2: y = ~(a & b); break;
      case CellFunc::kNand3: y = ~(a & b & c); break;
      case CellFunc::kNand4: y = ~(a & b & c & d); break;
      case CellFunc::kNor2: y = ~(a | b); break;
      case CellFunc::kNor3: y = ~(a | b | c); break;
      case CellFunc::kAnd2: y = a & b; break;
      case CellFunc::kOr2: y = a | b; break;
      case CellFunc::kXor2: y = a ^ b; break;
      case CellFunc::kXnor2: y = ~(a ^ b); break;
      case CellFunc::kMux2: y = (c & b) | (~c & a); break;  // C selects B
      case CellFunc::kAoi21: y = ~((a & b) | c); break;
      case CellFunc::kOai21: y = ~((a | b) & c); break;
      case CellFunc::kTie0: y = 0; break;
      case CellFunc::kTie1: y = kAllLanes; break;
      default:
        LIMS_UNREACHABLE("sequential cell in bitsim gate array");
    }
    p[static_cast<std::size_t>(g.out)] = y;
  }
}

void BatchSim::clock_edge() {
  if (!models_checked_) {
    for (const netlist::InstId m : prog_->macros_)
      LIMS_CHECK_MSG(models_.count(m) != 0,
                     "bitsim: macro instance "
                         << prog_->bound().netlist().instance(m).name
                         << " has no attached batch model");
    models_checked_ = true;
  }
  // Same edge ordering as netlist::Simulator::clock_edge: sample all flop
  // D planes on pre-edge values, fire macro models (still pre-commit),
  // then commit flop state and Q, then resettle.
  const std::size_t nf = prog_->flops_.size();
  std::vector<std::uint64_t> captures(nf);
  for (std::size_t i = 0; i < nf; ++i) {
    const BatchProgram::Flop& f = prog_->flops_[i];
    const std::uint64_t d = planes_[static_cast<std::size_t>(f.d)];
    if (!f.has_enable) {
      captures[i] = d;
    } else {
      const std::uint64_t en = planes_[static_cast<std::size_t>(f.en)];
      captures[i] = (en & d) | (~en & flop_state_[i]);
    }
  }
  for (const auto& [inst, model] : models_) model->on_clock(*this, inst);
  for (std::size_t i = 0; i < nf; ++i) {
    flop_state_[i] = captures[i];
    planes_[static_cast<std::size_t>(prog_->flops_[i].q)] = captures[i];
  }
  settle();
}

std::uint64_t BatchSim::bus_value(const std::vector<netlist::NetId>& bus,
                                  int lane) const {
  LIMS_CHECK(bus.size() <= 64);
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < bus.size(); ++i)
    if (lane_value(bus[i], lane)) v |= (std::uint64_t{1} << i);
  return v;
}

void BatchSim::flip_flop(netlist::InstId inst, std::uint64_t lane_mask) {
  const int idx = prog_->flop_index(inst);
  LIMS_CHECK_MSG(idx >= 0, "bitsim: instance "
                               << prog_->bound().netlist().instance(inst).name
                               << " is not a program flop");
  flop_state_[static_cast<std::size_t>(idx)] ^= lane_mask;
  planes_[static_cast<std::size_t>(
      prog_->flops_[static_cast<std::size_t>(idx)].q)] ^= lane_mask;
}

void BatchSim::drive_net(netlist::NetId net, std::uint64_t value,
                         std::uint64_t lane_mask) {
  const auto n = static_cast<std::size_t>(net);
  LIMS_CHECK(n < planes_.size());
  planes_[n] = (planes_[n] & ~lane_mask) | (value & lane_mask);
}

}  // namespace limsynth::bitsim
