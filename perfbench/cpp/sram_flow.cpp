// sram_flow: the physical-synthesis flow over the Fig. 4b test-chip SRAMs
// (configurations A-E) and the banking cases of ablation_banking.
//
// Items: one build_sram + run_sram_flow of one configuration on one
// process: the nominal, fast and slow corners plus seeded Monte-Carlo
// chips. Oracles: the flow does not throw and gives finite, positive fmax
// and energy; the Fig. 4b trend checks hold at nominal; the nominal banking
// rows equal ablation_banking.csv byte for byte.
//
// The traced passes re-run bind, placement, STA, activity simulation and
// power on each synthesized netlist, check that they reproduce the flow
// report, and time them; synthesis (with the post-placement resize) is
// the flow time those calls leave over.
#include <cmath>
#include <sstream>

#include "bench.hpp"
#include "brick/cache.hpp"
#include "lim/flow.hpp"
#include "lim/macro_models.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace perfbench {
namespace {

using namespace limsynth;

constexpr int kMonteCarloChips = 2;

struct Config {
  std::string tag;
  lim::SramConfig sram;
  int activity_cycles;
  bool banking;  // an ablation_banking case (else a Fig. 4b configuration)
};

struct Corner {
  std::string tag;
  tech::Process process;
  std::unique_ptr<tech::StdCellLib> cells;
};

struct Result {
  double fmax = 0.0;
  double energy = 0.0;
  double area = 0.0;
  double wirelength = 0.0;
};

class SramFlow : public Workload {
 public:
  void setup(const RunInfo& info, Tracer& /*tracer*/) override {
    configs_.clear();
    const char* fig4b[] = {"A", "B", "C", "D"};
    for (int i = 0; i < 4; ++i)
      configs_.push_back({fig4b[i], {16 << i, 10, 1, 16}, 150, false});
    configs_.push_back({"E", {128, 10, 4, 16}, 150, false});
    for (int words : {128, 256})
      for (int banks : {1, 2, 4, 8})
        configs_.push_back({strformat("%dx10 b%d", words, banks),
                            {words, 10, banks, 16}, 120, true});

    const tech::Process tt = tech::default_process();
    corners_.clear();
    add_corner("nominal", tt);
    add_corner("fast", tt.at_corner(tech::Corner::kFast));
    add_corner("slow", tt.at_corner(tech::Corner::kSlow));
    Rng rng(info.seed);
    for (int chip = 0; chip < kMonteCarloChips; ++chip)
      add_corner("mc" + std::to_string(chip), tt.monte_carlo_chip(rng));
    csv_path_ = info.root + "/ablation_banking.csv";
  }

  int items_per_pass() const override {
    return static_cast<int>(configs_.size() * corners_.size());
  }

  void pass(Pass& p) override {
    // Every pass starts cold, like the run: no brick is cached yet.
    brick::BrickCache::global().clear();
    std::vector<Result> nominal(configs_.size());
    for (std::size_t ci = 0; ci < configs_.size(); ++ci) {
      for (std::size_t k = 0; k < corners_.size(); ++k) {
        const Config& cfg = configs_[ci];
        const Corner& corner = corners_[k];
        Result r;
        p.item(cfg.tag + " @ " + corner.tag, [&] {
          lim::SramDesign d = [&] {
            auto s = p.tracer.span("lim.build_sram");
            return lim::build_sram(cfg.sram, corner.process, *corner.cells);
          }();
          lim::FlowOptions opt;
          opt.activity_cycles = cfg.activity_cycles;
          const lim::FlowReport rep = [&] {
            auto s = p.tracer.span("lim.run_sram_flow");
            return lim::run_sram_flow(d, *corner.cells, corner.process, opt);
          }();
          r = {rep.fmax, rep.power.energy_per_cycle, rep.area, rep.wirelength};
          if (p.corrupt && ci == 0 && k == 0) r.fmax = std::nan("");
          const double cells = static_cast<double>(d.nl.live_instance_count());
          const double nets = static_cast<double>(d.nl.nets().size());
          for (double v : {r.fmax, r.energy, r.area, r.wirelength, cells, nets,
                           rep.synthesis.cell_area, rep.synthesis.macro_area})
            p.digest.add(v);
          for (int v : {rep.synthesis.dead_removed, rep.synthesis.buffers_added,
                        rep.synthesis.resized})
            p.digest.add(v);
          bool ok = std::isfinite(r.fmax) && r.fmax > 0.0 &&
                    std::isfinite(r.energy) && r.energy > 0.0;
          if (p.tracer.enabled()) {
            cells_ += cells;
            nets_ += nets;
            resized_ += rep.synthesis.resized;
            const double t0 = now_s();
            ok = rerun_analyses(p.tracer, d, corner, opt, rep) && ok;
            p.excluded_s += now_s() - t0;
          }
          return ok;
        });
        if (k == 0) nominal[ci] = r;
      }
    }
    if (p.tracer.enabled())
      cache_misses_ += static_cast<double>(brick::BrickCache::global().misses());
    trend_checks(p, nominal);
  }

  void layer_metrics(const Tracer& tracer, const RunInfo& info,
                     Metrics& out) override {
    const double passes = info.traced_passes;
    const char* analyses[] = {"netlist.bind", "place.place", "sta.run_sta",
                              "netlist.activity_sim", "power.analyze"};
    double analysis_s = 0.0;
    for (const char* name : analyses) {
      const double t = tracer.total_s(name);
      out[std::string(name) + "_s"] = t / passes;
      analysis_s += t;
    }
    const double flow_s = tracer.total_s("lim.run_sram_flow");
    out["lim.build_sram_s"] = tracer.total_s("lim.build_sram") / passes;
    out["synth.stage_s"] = (flow_s - analysis_s) / passes;
    out["netlist.cells"] = cells_ / passes;
    out["netlist.nets"] = nets_ / passes;
    out["synth.resized"] = resized_ / passes;
    out["brick.cache_misses"] = cache_misses_ / passes;
    out["lim.flow_us_per_cell"] = flow_s * 1e6 / cells_;
  }

 private:
  void add_corner(const std::string& tag, const tech::Process& process) {
    corners_.push_back(
        {tag, process, std::make_unique<tech::StdCellLib>(process)});
  }

  /// run_analyses over the synthesized netlist, one timed call per layer.
  static bool rerun_analyses(Tracer& tracer, const lim::SramDesign& d,
                             const Corner& corner, const lim::FlowOptions& opt,
                             const lim::FlowReport& rep) {
    const netlist::BoundDesign bound = [&] {
      auto s = tracer.span("netlist.bind");
      return netlist::BoundDesign(d.nl, d.lib);
    }();
    const place::Floorplan fp = [&] {
      auto s = tracer.span("place.place");
      return place::place_design(bound, corner.process);
    }();
    const sta::StaResult timing = [&] {
      auto s = tracer.span("sta.run_sta");
      sta::StaOptions sta_opt = opt.sta;
      sta_opt.floorplan = &fp;
      return sta::run_sta(bound, sta_opt);
    }();
    std::unique_ptr<netlist::Simulator> sim;
    {
      // The stimulus of run_sram_flow: random reads and writes.
      auto s = tracer.span("netlist.activity_sim");
      sim = std::make_unique<netlist::Simulator>(bound.netlist(), *corner.cells);
      for (netlist::InstId bank : d.banks)
        sim->attach(bank, std::make_shared<lim::SramBankModel>(
                              d.config.rows_per_bank(), d.config.code_bits()));
      Rng rng(opt.stimulus_seed);
      sim->settle();
      const int addr_bits = lim::exact_log2(d.config.words);
      for (int c = 0; c < opt.activity_cycles; ++c) {
        sim->set_bus(d.raddr, rng.next_u64() & ((1u << addr_bits) - 1));
        sim->set_bus(d.waddr, rng.next_u64() & ((1u << addr_bits) - 1));
        sim->set_bus(d.wdata, rng.next_u64() & ((1ull << d.config.bits) - 1));
        sim->set_input(d.wen, rng.chance(0.5));
        sim->settle();
        sim->clock_edge();
      }
    }
    const power::PowerReport power = [&] {
      auto s = tracer.span("power.analyze");
      power::PowerOptions popt;
      popt.vdd = corner.process.vdd;
      popt.frequency = timing.fmax();
      popt.floorplan = &fp;
      popt.sta = &timing;
      return power::analyze_power(bound, *sim, popt);
    }();
    const bool same = timing.fmax() == rep.fmax && fp.area == rep.area &&
                      fp.total_wirelength == rep.wirelength &&
                      power.energy_per_cycle == rep.power.energy_per_cycle;
    if (!same)
      std::fprintf(stderr, "re-run analyses of %s differ from its flow report\n",
                   d.nl.name().c_str());
    return same;
  }

  void trend_checks(Pass& p, const std::vector<Result>& nom) {
    // Fig. 4b discussion (bench_fig4b): A..E are configs_[0..4].
    auto f = [&](int i) { return nom[static_cast<std::size_t>(i)].fmax; };
    auto e = [&](int i) { return nom[static_cast<std::size_t>(i)].energy; };
    p.check(f(0) > f(1) && f(1) > f(2) && f(2) > f(3), "Fig. 4b f(A)>f(B)>f(C)>f(D)");
    p.check(f(1) > f(4) && f(4) > f(3), "Fig. 4b f(B)>f(E)>f(D)");
    p.check(e(0) < e(1) && e(1) < e(2) && e(2) < e(3), "Fig. 4b E(A)<E(B)<E(C)<E(D)");
    p.check(e(4) < e(3), "Fig. 4b E(E)<E(D)");
    p.check(nom[4].area > nom[3].area, "Fig. 4b area(E)>area(D)");

    std::ostringstream csv;
    CsvWriter w(csv);
    w.write_row({"memory", "banks", "fmax_Hz", "E_cycle_J", "area_m2",
                 "wirelength_m"});
    for (std::size_t i = 0; i < configs_.size(); ++i) {
      const Config& c = configs_[i];
      if (!c.banking) continue;
      w.write_row(strformat("%dx10", c.sram.words),
                  {static_cast<double>(c.sram.banks), nom[i].fmax,
                   nom[i].energy, nom[i].area, nom[i].wirelength});
    }
    p.check(csv.str() == read_file(csv_path_),
            "ablation_banking.csv rows differ from " + csv_path_);
  }

  std::vector<Config> configs_;
  std::vector<Corner> corners_;
  std::string csv_path_;
  // Summed over the traced passes.
  double cells_ = 0.0;
  double nets_ = 0.0;
  double resized_ = 0.0;
  double cache_misses_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_sram_flow() {
  return std::make_unique<SramFlow>();
}

}  // namespace perfbench
