#include "synth/synth.hpp"

#include <algorithm>

#include "netlist/bound.hpp"
#include "sta/loads.hpp"
#include "util/log.hpp"

namespace limsynth::synth {

namespace {

using netlist::InstId;
using netlist::Netlist;
using netlist::NetId;

/// Gate sizing: the logical-effort target per stage and the number of
/// bottom-up passes.
constexpr double kEffortPerStage = 4.0;
constexpr int kSizingPasses = 3;

int sweep_dead(Netlist& nl, const liberty::Library& lib) {
  // Bind once; the sweep's only edits are removals, so the live sink count
  // of each net is all the connectivity state that changes.
  const netlist::BoundDesign bd(nl, lib);
  std::vector<int> live_sinks(nl.nets().size());
  for (std::size_t n = 0; n < live_sinks.size(); ++n)
    live_sinks[n] = static_cast<int>(bd.sinks(static_cast<NetId>(n)).size());
  int removed = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < bd.instance_count(); ++i) {
      const auto id = static_cast<InstId>(i);
      if (!nl.is_live(id) || bd.cell(id).is_macro) continue;
      bool all_outputs_dead = true;
      bool has_output = false;
      for (const auto& c : bd.conns(id)) {
        if (!c.is_output) continue;
        has_output = true;
        if (live_sinks[static_cast<std::size_t>(c.net)] > 0 || bd.is_po(c.net))
          all_outputs_dead = false;
      }
      if (has_output && all_outputs_dead) {
        for (const auto& c : bd.conns(id))
          if (!c.is_output) --live_sinks[static_cast<std::size_t>(c.net)];
        nl.remove_instance(id);
        ++removed;
        changed = true;
      }
    }
  }
  return removed;
}

int buffer_fanout(Netlist& nl, const liberty::Library& lib, int max_fanout) {
  // Collect the work from one binding first: rewiring edits the netlist.
  // Each sink is (instance, position in its conn list).
  struct Job {
    NetId net;
    std::vector<std::pair<InstId, std::uint32_t>> sinks;
  };
  std::vector<Job> jobs;
  {
    const netlist::BoundDesign bd(nl, lib);
    for (NetId net = 0; net < static_cast<NetId>(nl.nets().size()); ++net) {
      if (net == nl.clock()) continue;  // ideal clock tree
      const auto sinks = bd.sinks(net);
      if (static_cast<int>(sinks.size()) <= max_fanout) continue;
      // Macro control pins (DWL etc.) are driven by dedicated structures the
      // generators already build; buffer them like any other net.
      Job job{net, {}};
      job.sinks.reserve(sinks.size());
      for (const auto& s : sinks)
        job.sinks.emplace_back(s.inst, s.conn - bd.conn_begin(s.inst));
      jobs.push_back(std::move(job));
    }
  }
  int added = 0;
  int uid = 0;
  for (const auto& job : jobs) {
    // Split sinks into groups; insert one buffer per group.
    const auto groups =
        (job.sinks.size() + static_cast<std::size_t>(max_fanout) - 1) /
        static_cast<std::size_t>(max_fanout);
    for (std::size_t g = 0; g < groups; ++g) {
      const NetId buf_out = nl.make_net();
      nl.add_instance(
          "fobuf_" + std::to_string(uid++),
          "BUF_X4", {{"A", job.net}, {"Y", buf_out}});
      ++added;
      const std::size_t lo = g * static_cast<std::size_t>(max_fanout);
      const std::size_t hi =
          std::min(job.sinks.size(), lo + static_cast<std::size_t>(max_fanout));
      for (std::size_t s = lo; s < hi; ++s) {
        const auto [inst, k] = job.sinks[s];
        nl.instance(inst).conns[k].net = buf_out;
      }
    }
  }
  return added;
}

int size_gates(Netlist& nl, const liberty::Library& lib,
               const tech::StdCellLib& cells, const SynthOptions& opt) {
  int resized = 0;
  // Topology is frozen during sizing (buffering ran already), only drive
  // strengths change: bind once for connectivity and keep each instance's
  // library cell and std-cell template in arrays updated in place when a
  // gate is resized. Sink caps are read through lib_of by input slot, so
  // the binding's own (stale) cell choices are never consulted.
  const netlist::BoundDesign bd(nl, lib);
  const std::size_t n_inst = bd.instance_count();
  std::vector<const liberty::LibCell*> lib_of(n_inst, nullptr);
  std::vector<const tech::StdCell*> std_of(n_inst, nullptr);
  std::vector<int> func_of(n_inst, -1);
  for (std::size_t i = 0; i < n_inst; ++i) {
    const auto id = static_cast<InstId>(i);
    if (!nl.is_live(id)) continue;
    lib_of[i] = &bd.cell(id);
    std_of[i] = cells.find(lib_of[i]->name);
    if (std_of[i] == nullptr) continue;  // macro: leave alone
    func_of[i] = static_cast<int>(std_of[i]->func);
  }

  for (int pass = 0; pass < kSizingPasses; ++pass) {
    int pass_resized = 0;
    for (std::size_t i = 0; i < n_inst; ++i) {
      const auto id = static_cast<InstId>(i);
      if (!nl.is_live(id) || func_of[i] < 0) continue;
      const tech::StdCell& current = *std_of[i];

      // Output load: sink pin caps + wire (extracted post-placement, or a
      // per-sink estimate before).
      double load = 0.0;
      int fanout = 0;
      for (const auto& c : bd.conns(id)) {
        if (!c.is_output) continue;
        for (const auto& sink : bd.sinks(c.net)) {
          const auto inst = static_cast<std::size_t>(sink.inst);
          const auto slot =
              static_cast<std::size_t>(bd.conn_at(sink.conn).slot);
          load += lib_of[inst]->inputs[slot].cap;
          ++fanout;
        }
        if (bd.is_po(c.net)) load += 10e-15;  // pad driver
        if (opt.net_wire_caps != nullptr)
          load += opt.net_wire_caps->at(static_cast<std::size_t>(c.net));
      }
      if (opt.net_wire_caps == nullptr)
        load += fanout * sta::kPrelayoutCapPerSink;
      if (load <= 0.0) continue;

      // Pick the drive so the stage electrical effort is ~kEffortPerStage.
      const double cin_needed = load / kEffortPerStage;  // cin >= load / f
      const double drive_needed =
          cin_needed / (std::max(current.logical_effort, 0.5) *
                        cells.process().c_unit());
      const tech::StdCell& chosen =
          cells.pick(static_cast<tech::CellFunc>(func_of[i]), drive_needed);
      if (chosen.name != current.name) {
        nl.instance(id).cell = chosen.name;
        lib_of[i] = &lib.cell(chosen.name);
        std_of[i] = &chosen;
        ++pass_resized;
      }
    }
    resized += pass_resized;
    if (pass_resized == 0) break;
  }
  return resized;
}

}  // namespace

int resize_gates(netlist::Netlist& nl, const liberty::Library& lib,
                 const tech::StdCellLib& cells, const SynthOptions& options) {
  return size_gates(nl, lib, cells, options);
}

SynthStats synthesize(netlist::Netlist& nl, const liberty::Library& lib,
                      const tech::StdCellLib& cells,
                      const SynthOptions& options) {
  SynthStats stats;
  stats.dead_removed = sweep_dead(nl, lib);
  stats.buffers_added = buffer_fanout(nl, lib, options.max_fanout);
  stats.resized = size_gates(nl, lib, cells, options);

  // Bind the synthesized result once for the area roll-up (and as a
  // sanity check that every final cell choice resolves).
  const netlist::BoundDesign bound(nl, lib);
  for (std::size_t i = 0; i < bound.instance_count(); ++i) {
    const auto id = static_cast<InstId>(i);
    if (!bound.is_live(id)) continue;
    const liberty::LibCell& cell = bound.cell(id);
    if (cell.is_macro) {
      stats.macro_area += cell.area;
    } else {
      stats.cell_area += cell.area;
    }
  }
  LIMS_INFO << "synth " << nl.name() << ": " << nl.live_instance_count()
            << " instances, dead=" << stats.dead_removed
            << " buffers=" << stats.buffers_added
            << " resized=" << stats.resized;
  return stats;
}

}  // namespace limsynth::synth
