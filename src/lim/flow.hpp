// The LiM physical-synthesis flow driver (paper Fig. 2).
//
// Chains the stages the paper lists — logic synthesis (DC substitute),
// placement/parasitics (ICC substitute), STA (PrimeTime substitute) and
// activity-based power (Modelsim + .saif substitute) — over a netlist in
// which memory bricks are ordinary macro cells from dynamically generated
// libraries. One call takes an elaborated design to f_max / power / area
// numbers, which is what enables the system-level exploration of Fig. 4.
#pragma once

#include <functional>

#include "lim/sram_builder.hpp"
#include "netlist/bound.hpp"
#include "netlist/sim.hpp"
#include "place/place.hpp"
#include "power/power.hpp"
#include "sta/sta.hpp"
#include "synth/synth.hpp"
#include "util/rng.hpp"

namespace limsynth::lim {

/// Synthesis runs with default options, and power is analysed at the
/// STA-derived f_max.
struct FlowOptions {
  int activity_cycles = 200;
  std::uint64_t stimulus_seed = 1;
  sta::StaOptions sta;
};

struct FlowReport {
  synth::SynthStats synthesis;
  place::Floorplan floorplan;
  sta::StaResult timing;
  power::PowerReport power;
  double fmax = 0.0;          // Hz
  double analysis_frequency = 0.0;  // Hz used for the power numbers (f_max)
  double area = 0.0;          // m^2 (floorplan)
  double wirelength = 0.0;    // m
};

/// Pure analysis stage over an immutable bound design: placement +
/// parasitics, STA, and (when `stimulus` is non-empty) activity simulation
/// + power. Never mutates the netlist — every structural decision was made
/// by the synthesis stage that produced the binding. The returned report's
/// `synthesis` field is left default (the caller owns that stage).
FlowReport run_analyses(
    const netlist::BoundDesign& bound, const tech::StdCellLib& cells,
    const tech::Process& process,
    const std::function<void(netlist::Simulator&)>& attach_models,
    const std::function<void(netlist::Simulator&, Rng&)>& stimulus,
    const FlowOptions& options = {});

/// Generic flow: synthesize + place + time + (optionally) simulate for
/// activity and compute power. `attach_models` installs behavioral macro
/// models on the simulator; `stimulus` drives it for activity capture.
/// Either may be empty (power is skipped when stimulus is empty).
///
/// Internally staged: (1) mutating synthesis + post-placement timing
/// recovery, then (2) a single bind of the final netlist feeding
/// run_analyses.
FlowReport run_flow(
    netlist::Netlist& nl, liberty::Library& lib,
    const tech::StdCellLib& cells, const tech::Process& process,
    const std::function<void(netlist::Simulator&)>& attach_models,
    const std::function<void(netlist::Simulator&, Rng&)>& stimulus,
    const FlowOptions& options = {});

/// SRAM convenience: attaches SramBankModel to every bank and drives
/// `activity_cycles` of random writes + reads.
FlowReport run_sram_flow(SramDesign& design, const tech::StdCellLib& cells,
                         const tech::Process& process,
                         const FlowOptions& options = {});

}  // namespace limsynth::lim
