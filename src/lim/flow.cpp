#include "lim/flow.hpp"

#include "lim/macro_models.hpp"
#include "util/log.hpp"

namespace limsynth::lim {

FlowReport run_analyses(
    const netlist::BoundDesign& bound, const tech::StdCellLib& cells,
    const tech::Process& process,
    const std::function<void(netlist::Simulator&)>& attach_models,
    const std::function<void(netlist::Simulator&, Rng&)>& stimulus,
    const FlowOptions& opt) {
  bound.check_fresh();
  FlowReport rep;

  {
    DIAG_CONTEXT("placement + parasitics");
    rep.floorplan = place::place_design(bound, process);
    rep.area = rep.floorplan.area;
    rep.wirelength = rep.floorplan.total_wirelength;
  }

  {
    DIAG_CONTEXT("static timing analysis");
    sta::StaOptions sta_opt = opt.sta;
    sta_opt.floorplan = &rep.floorplan;
    rep.timing = sta::run_sta(bound, sta_opt);
    rep.fmax = rep.timing.fmax();
  }

  if (stimulus) {
    DIAG_CONTEXT("activity simulation + power analysis");
    netlist::Simulator sim(bound.netlist(), cells);
    if (attach_models) attach_models(sim);
    Rng rng(opt.stimulus_seed);
    sim.settle();
    stimulus(sim, rng);
    LIMS_CHECK_MSG(sim.cycles() > 0, "stimulus ran zero cycles");

    power::PowerOptions popt;
    popt.vdd = process.vdd;
    popt.frequency = rep.fmax;
    popt.floorplan = &rep.floorplan;
    popt.sta = &rep.timing;  // per-net slews for the energy LUT lookups
    rep.power = power::analyze_power(bound, sim, popt);
    rep.analysis_frequency = popt.frequency;
  }
  return rep;
}

FlowReport run_flow(
    netlist::Netlist& nl, liberty::Library& lib,
    const tech::StdCellLib& cells, const tech::Process& process,
    const std::function<void(netlist::Simulator&)>& attach_models,
    const std::function<void(netlist::Simulator&, Rng&)>& stimulus,
    const FlowOptions& opt) {
  DIAG_CONTEXT("flow for design " + nl.name());

  // --- mutating stage: synthesis + post-placement timing recovery ------
  synth::SynthStats synthesis;
  {
    DIAG_CONTEXT("logic synthesis");
    synthesis = synth::synthesize(nl, lib, cells);
  }

  {
    DIAG_CONTEXT("post-placement timing recovery");
    // Resize against extracted wire caps, then re-place/re-extract in the
    // analysis stage (the ICC optimize loop). The trial binding dies with
    // this scope — resize_gates invalidates it.
    std::vector<double> wire_caps(nl.nets().size(), 0.0);
    {
      const netlist::BoundDesign trial(nl, lib);
      const place::Floorplan fp = place::place_design(trial, process);
      for (std::size_t n = 0; n < wire_caps.size(); ++n)
        wire_caps[n] = fp.parasitics[n].wire_cap;
    }
    synth::SynthOptions resize_opt;
    resize_opt.net_wire_caps = &wire_caps;
    synthesis.resized += synth::resize_gates(nl, lib, cells, resize_opt);
  }

  // --- analysis stage: bind the final netlist once, never mutate -------
  const netlist::BoundDesign bound(nl, lib);
  FlowReport rep =
      run_analyses(bound, cells, process, attach_models, stimulus, opt);
  rep.synthesis = synthesis;
  return rep;
}

FlowReport run_sram_flow(SramDesign& d, const tech::StdCellLib& cells,
                         const tech::Process& process,
                         const FlowOptions& options) {
  const int rows = d.config.rows_per_bank();
  const int bits = d.config.bits;
  const int code_bits = d.config.code_bits();  // stored width (ECC-aware)
  auto attach = [&](netlist::Simulator& sim) {
    for (netlist::InstId bank : d.banks)
      sim.attach(bank, std::make_shared<SramBankModel>(rows, code_bits));
  };
  auto stim = [&, rows, bits](netlist::Simulator& sim, Rng& rng) {
    const int addr_bits = exact_log2(d.config.words);
    (void)rows;
    for (int c = 0; c < options.activity_cycles; ++c) {
      sim.set_bus(d.raddr, rng.next_u64() & ((1u << addr_bits) - 1));
      sim.set_bus(d.waddr, rng.next_u64() & ((1u << addr_bits) - 1));
      sim.set_bus(d.wdata, rng.next_u64() & ((1ull << bits) - 1));
      sim.set_input(d.wen, rng.chance(0.5));
      sim.settle();
      sim.clock_edge();
    }
  };
  return run_flow(d.nl, d.lib, cells, process, attach, stim, options);
}

}  // namespace limsynth::lim
