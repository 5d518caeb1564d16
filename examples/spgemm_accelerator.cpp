// SpGEMM accelerator example: square a sparse graph matrix on both
// fabricated-chip models (LiM CAM core vs conventional heap core), verify
// the product against the software reference, and report latency/energy —
// the paper's §4/§5 experiment on one workload of your choice.
//
// Usage: spgemm_accelerator [scale] [avg_degree]
//   Builds a 2^scale-node R-MAT graph (default scale 12, degree 8).
#include <cstdio>
#include <iostream>

#include "arch/chip.hpp"
#include "spgemm/generate.hpp"
#include "spgemm/reference.hpp"
#include "util/args.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

using namespace limsynth;

int main(int argc, char** argv) {
  const args::Args cli = args::parse_or_exit(
      {"spgemm_accelerator",
       {{"rmat_scale", args::Type::kInt, "", true},
        {"avg_degree", args::Type::kInt, "", true}}},
      argc, argv);
  const int scale = cli.get_int("rmat_scale", 12);
  const int degree = cli.get_int("avg_degree", 8);

  Rng rng(99);
  const spgemm::SparseMatrix a = spgemm::gen_rmat(
      scale, static_cast<std::int64_t>(degree) << scale, 0.5, 0.2, 0.2, rng);
  std::printf("Workload: R-MAT scale %d, n=%d, nnz=%lld, C = A*A needs %lld"
              " multiply-adds\n\n",
              scale, a.rows(), static_cast<long long>(a.nnz()),
              static_cast<long long>(a.flops_with(a)));

  const tech::Process process = tech::default_process();
  const tech::StdCellLib cells(process);
  std::printf("Synthesizing both accelerator cores through the LiM flow...\n");
  const arch::ChipModel lim_chip = arch::build_lim_chip(process, cells);
  const arch::ChipModel base_chip = arch::build_baseline_chip(process, cells);

  arch::CoreConfig cfg;
  spgemm::SparseMatrix c_lim, c_heap;
  const auto r_lim = arch::run_benchmark(lim_chip, true, a, cfg, &c_lim);
  const auto r_heap = arch::run_benchmark(base_chip, false, a, cfg, &c_heap);

  const spgemm::SparseMatrix golden = spgemm::multiply_reference(a, a);
  std::printf("Functional check: LiM %s, heap %s (C has %lld nonzeros)\n\n",
              c_lim.approx_equal(golden) ? "exact" : "MISMATCH",
              c_heap.approx_equal(golden) ? "exact" : "MISMATCH",
              static_cast<long long>(golden.nnz()));

  Table t({"chip", "fmax", "cycles", "time", "energy", "core detail"});
  t.add_row({lim_chip.name, units::format_si(lim_chip.fmax, "Hz"),
             std::to_string(r_lim.stats.cycles),
             units::format_si(r_lim.seconds, "s"),
             units::format_si(r_lim.joules, "J"),
             strformat("%.1f avg active CAM cols, %lld spills",
                       r_lim.stats.avg_active_columns(),
                       static_cast<long long>(r_lim.stats.spills))});
  t.add_row({base_chip.name, units::format_si(base_chip.fmax, "Hz"),
             std::to_string(r_heap.stats.cycles),
             units::format_si(r_heap.seconds, "s"),
             units::format_si(r_heap.joules, "J"),
             strformat("%lld FIFO shift cycles",
                       static_cast<long long>(r_heap.stats.shift_cycles))});
  t.print(std::cout);

  std::printf("\nLiM advantage: %.1fx faster, %.1fx less energy\n",
              r_heap.seconds / r_lim.seconds, r_heap.joules / r_lim.joules);
  std::printf("(paper's silicon: 7x-250x faster, 10x-310x less energy across"
              " its benchmark suite)\n");
  return 0;
}
