#include "lim/yield.hpp"

#include <algorithm>
#include <memory>

#include "bitsim/banks.hpp"
#include "bitsim/bitsim.hpp"
#include "brick/estimator.hpp"
#include "fault/inject.hpp"
#include "fault/repair.hpp"
#include "lim/macro_models.hpp"
#include "netlist/bound.hpp"
#include "netlist/sim.hpp"
#include "synth/synth.hpp"
#include "util/error.hpp"

namespace limsynth::lim {

double YieldResult::yield_at(double freq) const {
  LIMS_CHECK(!fmax_samples.empty());
  std::size_t pass = 0;
  for (double f : fmax_samples)
    if (f >= freq) ++pass;
  return static_cast<double>(pass) /
         static_cast<double>(fmax_samples.size());
}

fault::ArrayGeometry array_geometry(const SramConfig& cfg,
                                    const tech::Process& process) {
  cfg.validate();
  fault::ArrayGeometry g;
  g.banks = cfg.banks;
  g.rows = cfg.rows_per_bank() + cfg.spare_rows;
  g.spare_rows = cfg.spare_rows;
  g.cols = cfg.code_bits();
  g.brick_words = cfg.brick_words;
  g.cam = cfg.bitcell == tech::BitcellKind::kCamNor10T;
  const brick::Brick b = brick::compile_brick(
      {cfg.bitcell, cfg.brick_words, g.cols, cfg.bricks_per_bank()}, process);
  // Spare rows extend the brick stack; scale the estimator's bank area by
  // the physical/logical row ratio so redundancy pays its area (and thus
  // its extra defect exposure) honestly.
  g.bank_area = brick::estimate_brick(b).bank_area *
                (static_cast<double>(g.rows) /
                 static_cast<double>(cfg.rows_per_bank()));
  return g;
}

std::function<double(const tech::Process&)> estimator_fmax(
    const SramConfig& cfg) {
  return [cfg](const tech::Process& p) {
    const brick::Brick b = brick::compile_brick(
        {cfg.bitcell, cfg.brick_words, cfg.code_bits(),
         cfg.bricks_per_bank()},
        p);
    return 1.0 / brick::estimate_brick(b).min_cycle;
  };
}

FullYieldResult analyze_yield_full(
    const SramConfig& cfg, const tech::Process& nominal,
    const FullYieldOptions& opt,
    const std::function<double(const tech::Process&)>& measure_fmax) {
  LIMS_CHECK_MSG(opt.chips >= 1, "yield analysis needs at least one chip");
  const fault::ArrayGeometry geom = array_geometry(cfg, nominal);
  const double d0 = opt.defect_density_per_m2 >= 0.0
                        ? opt.defect_density_per_m2
                        : nominal.defect_density_per_m2;
  const std::function<double(const tech::Process&)> fmax_of =
      measure_fmax ? measure_fmax : estimator_fmax(cfg);

  FullYieldResult res;
  res.chips = opt.chips;
  std::vector<bool> repairable(static_cast<std::size_t>(opt.chips), false);
  // Post-repair fault overlays, retained per chip only when the replay
  // verification needs them.
  std::vector<std::shared_ptr<const fault::FaultMap>> maps;
  if (opt.verify_cycles > 0)
    maps.assign(static_cast<std::size_t>(opt.chips), nullptr);
  Rng rng(opt.seed);
  for (int i = 0; i < opt.chips; ++i) {
    if (opt.cancel != nullptr &&
        opt.cancel->load(std::memory_order_relaxed))
      LIMS_FAIL(ErrorCode::kInterrupted,
                "yield analysis interrupted after "
                    << i << " of " << opt.chips
                    << " chips (no output written)");
    const tech::Process sample = nominal.monte_carlo_chip(rng);
    const double f = fmax_of(sample);
    LIMS_CHECK_MSG(f > 0.0, "yield: chip " << i << " returned fmax " << f);
    res.parametric.fmax_samples.push_back(f);
    res.parametric.stats.add(f);

    const std::vector<fault::Defect> defects =
        fault::sample_defects(geom, d0, nominal.defect_cluster_alpha, rng);
    res.mean_defects += static_cast<double>(defects.size());
    fault::FaultMap map(geom, defects);
    if (map.logical_array_clean()) ++res.functional_good;
    const fault::RepairResult rr = fault::allocate_repairs(map, cfg.ecc);
    if (rr.repairable) {
      ++res.repaired_good;
      repairable[static_cast<std::size_t>(i)] = true;
      if (opt.verify_cycles > 0) {
        auto repaired = std::make_shared<fault::FaultMap>(map);
        repaired->apply_repair(rr);
        maps[static_cast<std::size_t>(i)] = std::move(repaired);
      }
    }
    res.mean_spares_used += static_cast<double>(rr.spares_used);
  }
  res.mean_defects /= opt.chips;
  res.mean_spares_used /= opt.chips;

  const double mean = res.parametric.stats.mean();
  for (const double frac : {0.80, 0.85, 0.90, 0.95, 1.00, 1.05, 1.10}) {
    const double f = frac * mean;
    FullYieldResult::Bin bin;
    bin.freq = f;
    bin.parametric = res.parametric.yield_at(f);
    res.parametric.yield_curve.emplace_back(f, bin.parametric);
    int pass = 0;
    for (int i = 0; i < opt.chips; ++i)
      if (repairable[static_cast<std::size_t>(i)] &&
          res.parametric.fmax_samples[static_cast<std::size_t>(i)] >= f)
        ++pass;
    bin.combined = static_cast<double>(pass) / opt.chips;
    res.bins.push_back(bin);
  }

  // Functional replay of every repairable chip: elaborate + synthesize
  // the config once, run a fault-free golden on the scalar settle engine,
  // then replay the chips' post-repair overlays 63 per bit-plane pass with
  // lane 0 holding the golden. Lane 0's reads are cross-checked against
  // the scalar golden every cycle; a divergence is an internal error.
  if (opt.verify_cycles > 0) {
    res.chip_verified.assign(static_cast<std::size_t>(opt.chips), 0);
    tech::StdCellLib cells(nominal);
    SramDesign design = build_sram(cfg, nominal, cells);
    synth::synthesize(design.nl, design.lib, cells);
    const std::vector<SramCycle> trace =
        random_cycles(design, opt.verify_cycles, kYieldVerifySeed);
    const int rows = design.config.rows_per_bank();
    const int code_bits = design.config.code_bits();

    std::vector<std::uint64_t> golden;
    golden.reserve(trace.size());
    {
      netlist::Simulator sim(design.nl, cells);
      for (const netlist::InstId b : design.banks)
        sim.attach(b, std::make_shared<SramBankModel>(rows, code_bits));
      for (const SramCycle& t : trace) {
        sim.set_bus(design.raddr, t.raddr);
        sim.set_bus(design.waddr, t.waddr);
        sim.set_bus(design.wdata, t.wdata);
        sim.set_input(design.wen, t.wen);
        sim.settle();
        sim.clock_edge();
        golden.push_back(sim.bus_value(design.rdata));
      }
    }

    const netlist::BoundDesign bound(design.nl, design.lib);
    const bitsim::BatchProgram program(bound, cells);
    std::vector<int> pending;
    for (int i = 0; i < opt.chips; ++i)
      if (repairable[static_cast<std::size_t>(i)]) pending.push_back(i);
    res.verified = static_cast<int>(pending.size());
    for (std::size_t at = 0; at < pending.size();) {
      const std::size_t take =
          std::min<std::size_t>(pending.size() - at,
                                static_cast<std::size_t>(bitsim::kLanes - 1));
      bitsim::BatchSim sim(program);
      for (std::size_t b = 0; b < design.banks.size(); ++b) {
        auto m = std::make_shared<bitsim::BatchSramBank>(
            program, design.banks[b], rows, code_bits);
        for (std::size_t i = 0; i < take; ++i)
          m->set_lane_faults(static_cast<int>(i) + 1,
                             *maps[static_cast<std::size_t>(pending[at + i])],
                             static_cast<int>(b));
        sim.attach(design.banks[b], std::move(m));
      }
      std::uint64_t diff = 0;
      for (std::size_t c = 0; c < trace.size(); ++c) {
        const SramCycle& t = trace[c];
        sim.set_bus(design.raddr, t.raddr);
        sim.set_bus(design.waddr, t.waddr);
        sim.set_bus(design.wdata, t.wdata);
        sim.set_input(design.wen, t.wen);
        sim.settle();
        sim.clock_edge();
        for (std::size_t j = 0; j < design.rdata.size(); ++j) {
          const std::uint64_t g =
              ((golden[c] >> j) & 1) ? bitsim::kAllLanes : 0;
          diff |= sim.plane(design.rdata[j]) ^ g;
        }
        if (diff & 1)
          LIMS_FAIL(ErrorCode::kInternal,
                    "bitsim golden lane diverged from the settle engine "
                    "during yield verification");
      }
      for (std::size_t i = 0; i < take; ++i) {
        const std::uint8_t good =
            ((diff >> (static_cast<int>(i) + 1)) & 1) ? 0 : 1;
        res.chip_verified[static_cast<std::size_t>(pending[at + i])] = good;
        res.verified_good += good;
      }
      at += take;
    }
  }
  return res;
}

}  // namespace limsynth::lim
