// Design-space exploration example: sweep brick shapes and partition
// counts for an embedded scratchpad and print the Pareto front — the
// paper's §3 "rapid design-space exploration" workflow, scaled up beyond
// the nine points of Fig. 4c.
//
// Usage: sram_design_space [words] [bits]   (defaults 512 x 16)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>

#include "lim/checkpoint.hpp"
#include "util/args.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

using namespace limsynth;

int main(int argc, char** argv) {
  const args::Args a = args::parse_or_exit(
      {"sram_design_space",
       {{"words", args::Type::kInt, "", true},
        {"bits", args::Type::kInt, "", true}}},
      argc, argv);
  const int words = a.get_int("words", 512);
  const int bits = a.get_int("bits", 16);
  const tech::Process process = tech::default_process();

  // Sweep every brick shape that divides the array, for SRAM and eDRAM.
  std::vector<lim::PartitionChoice> choices;
  for (const auto kind :
       {tech::BitcellKind::kSram8T, tech::BitcellKind::kEdram1T1C}) {
    for (int bw : {8, 16, 32, 64, 128}) {
      if (words % bw != 0 || words / bw > 64) continue;
      choices.push_back({words, bits, bw, kind});
    }
  }

  const auto t0 = std::chrono::steady_clock::now();
  const auto points =
      lim::sweep_partitions_checkpointed(choices, process).points;
  const auto front = lim::pareto_front(points);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::printf("Design space for a %dx%d memory (%zu configurations evaluated"
              " in %.2f ms):\n\n",
              words, bits, points.size(), wall * 1e3);

  Table t({"bitcell", "brick", "stack", "read delay", "read energy", "area",
           "pareto"});
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& p = points[i];
    const bool on_front =
        std::find(front.begin(), front.end(), i) != front.end();
    t.add_row({tech::bitcell_kind_name(p.choice.bitcell),
               strformat("%dx%d", p.choice.brick_words, p.choice.bits),
               strformat("%dx", p.choice.stack()),
               units::format_si(p.read_delay, "s"),
               units::format_si(p.read_energy, "J"),
               strformat("%.0f um2", p.area * 1e12), on_front ? "*" : ""});
  }
  t.print(std::cout);

  std::printf("\n%zu Pareto-optimal configurations (*). Feed any of them to\n"
              "lim::build_sram / lim::run_sram_flow for full physical"
              " synthesis.\n",
              front.size());
  return 0;
}
