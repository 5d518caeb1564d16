// fig6_spgemm: the Fig. 6 UF-analog suite on both SpGEMM core models.
//
// Items: one product C = A*A on one core model (LiM CAM core, heap/FIFO
// core). Oracle: each product equals the Gustavson reference. At the
// suite's default seed the pass also rebuilds the fig6.csv rows and
// compares them byte for byte with the committed file.
#include <sstream>

#include "arch/chip.hpp"
#include "bench.hpp"
#include "spgemm/generate.hpp"
#include "spgemm/reference.hpp"
#include "util/csv.hpp"

namespace perfbench {
namespace {

using namespace limsynth;

constexpr std::uint64_t kFig6Seed = 7;  // uf_analog_suite's default

void digest_stats(Digest& d, const arch::BenchmarkResult& r) {
  const arch::CoreStats& s = r.stats;
  for (std::int64_t v : {s.cycles, s.broadcasts, s.searches, s.inserts,
                         s.spills, s.spilled_entries, s.pops, s.shift_cycles,
                         s.fifo_loads, s.multiplies, s.output_entries,
                         s.block_tasks, s.load_cycles})
    d.add(v);
  d.add(r.seconds);
  d.add(r.joules);
}

class Fig6Spgemm : public Workload {
 public:
  void setup(const RunInfo& info, Tracer& tracer) override {
    const tech::Process process = tech::default_process();
    const tech::StdCellLib cells(process);
    {
      auto s = tracer.span("arch.build_chip");
      lim_chip_ = arch::build_lim_chip(process, cells);
      heap_chip_ = arch::build_baseline_chip(process, cells);
    }
    auto s = tracer.span("spgemm.generate");
    suite_ = spgemm::uf_analog_suite(info.seed);
    check_csv_ = info.seed == kFig6Seed;
    csv_path_ = info.root + "/fig6.csv";
  }

  int items_per_pass() const override {
    return 2 * static_cast<int>(suite_.size());
  }

  void pass(Pass& p) override {
    const arch::CoreConfig cfg;
    std::ostringstream csv;
    CsvWriter w(csv);
    w.write_row({"benchmark", "n", "nnz", "flops", "lim_s", "heap_s",
                  "speedup", "lim_J", "heap_J", "energy_ratio"});
    p.digest.add(lim_chip_.fmax);
    p.digest.add(lim_chip_.energy_per_cycle);
    p.digest.add(heap_chip_.fmax);
    p.digest.add(heap_chip_.energy_per_cycle);
    for (const spgemm::Benchmark& bench : suite_) {
      const spgemm::SparseMatrix& a = bench.matrix;
      spgemm::SparseMatrix golden;
      p.step([&] {
        auto s = p.tracer.span("spgemm.reference");
        golden = spgemm::multiply_reference(a, a);
      });
      arch::BenchmarkResult res[2];
      const char* span_name[2] = {"arch.lim_spgemm", "arch.heap_spgemm"};
      for (int core = 0; core < 2; ++core) {
        const bool is_lim = core == 0;
        p.item(bench.name + (is_lim ? " on the LiM core" : " on the heap core"),
               [&] {
                 spgemm::SparseMatrix c;
                 {
                   auto s = p.tracer.span(span_name[core]);
                   res[core] = arch::run_benchmark(is_lim ? lim_chip_ : heap_chip_,
                                                   is_lim, a, cfg, &c);
                 }
                 if (p.corrupt && &bench == &suite_.front() && is_lim)
                   c = spgemm::SparseMatrix(a.rows(), a.cols());
                 auto s = p.tracer.span("spgemm.check");
                 return c.approx_equal(golden, 1e-9);
               });
        digest_stats(p.digest, res[core]);
      }
      const double speedup = res[1].seconds / res[0].seconds;
      const double eratio = res[1].joules / res[0].joules;
      w.write_row(bench.name,
                  {static_cast<double>(a.rows()), static_cast<double>(a.nnz()),
                   static_cast<double>(a.flops_with(a)), res[0].seconds,
                   res[1].seconds, speedup, res[0].joules, res[1].joules,
                   eratio});
      if (p.tracer.enabled()) accumulate(res[0].stats, res[1].stats);
    }
    if (check_csv_)
      p.check(csv.str() == read_file(csv_path_),
              "fig6.csv rows differ from " + csv_path_);
  }

  void layer_metrics(const Tracer& tracer, const RunInfo& info,
                     Metrics& out) override {
    const double passes = info.traced_passes;
    const double reps = info.setup_reps;
    const double lim_s = tracer.total_s("arch.lim_spgemm");
    const double heap_s = tracer.total_s("arch.heap_spgemm");
    out["arch.lim_spgemm_s"] = lim_s / passes;
    out["arch.heap_spgemm_s"] = heap_s / passes;
    out["spgemm.reference_s"] = tracer.total_s("spgemm.reference") / passes;
    out["spgemm.check_s"] = tracer.total_s("spgemm.check") / passes;
    out["spgemm.generate_s"] = tracer.total_s("spgemm.generate") / reps;
    out["arch.build_chip_s"] = tracer.total_s("arch.build_chip") / reps;
    out["arch.lim.cycles"] = lim_.cycles / passes;
    out["arch.lim.searches"] = lim_.searches / passes;
    out["arch.lim.spilled_entries"] = lim_.spilled_entries / passes;
    out["arch.heap.cycles"] = heap_.cycles / passes;
    out["arch.heap.shift_cycles"] = heap_.shift_cycles / passes;
    out["arch.heap.pops"] = heap_.pops / passes;
    out["arch.heap_ns_per_shift"] = heap_s * 1e9 / heap_.shift_cycles;
    out["arch.lim_ns_per_search"] = lim_s * 1e9 / lim_.searches;
  }

 private:
  void accumulate(const arch::CoreStats& lim, const arch::CoreStats& heap) {
    lim_.cycles += lim.cycles;
    lim_.searches += lim.searches;
    lim_.spilled_entries += lim.spilled_entries;
    heap_.cycles += heap.cycles;
    heap_.shift_cycles += heap.shift_cycles;
    heap_.pops += heap.pops;
  }

  arch::ChipModel lim_chip_;
  arch::ChipModel heap_chip_;
  std::vector<spgemm::Benchmark> suite_;
  bool check_csv_ = false;
  std::string csv_path_;
  arch::CoreStats lim_;   // summed over the traced passes
  arch::CoreStats heap_;
};

}  // namespace

std::unique_ptr<Workload> make_fig6_spgemm() {
  return std::make_unique<Fig6Spgemm>();
}

}  // namespace perfbench
