#include "arch/chip.hpp"

#include "brick/estimator.hpp"
#include "brick/cache.hpp"
#include "liberty/characterize.hpp"
#include "netlist/generators.hpp"
#include "util/error.hpp"

namespace limsynth::arch {

namespace {

using netlist::Builder;
using netlist::NetId;

/// Activity factors averaged over the paper's test vectors: of the 32
/// horizontal CAM columns, on average this many search per broadcast
/// cycle, and one scratchpad update + MAC accompanies each.
constexpr double kAvgActiveCams = 6.0;
constexpr double kBufferReadsPerCycle = 2.0;
/// FIFO shifting in the baseline: the sorted FIFOs shift many entries in
/// parallel across banks every cycle — the "wasted energy" of the paper's
/// §5 — so the average concurrent SRAM (read+write) op count is high.
constexpr double kAvgFifoOps = 12.0;
constexpr double kClockOverhead = 0.15;  // clock tree + misc fraction

/// The three brick shapes both chips are assembled from, taken from the
/// shared BrickCache (their estimates are at kReferenceLoad).
struct ChipBricks {
  std::shared_ptr<const brick::CompiledBrick> cam;
  /// LiM scratchpad and baseline FIFO bank: the same SRAM shape.
  std::shared_ptr<const brick::CompiledBrick> sram;
  std::shared_ptr<const brick::CompiledBrick> buffer;
};

ChipBricks chip_bricks(const tech::Process& process) {
  brick::BrickCache& bricks = brick::BrickCache::global();
  // Row-index / data array sizes chosen by the paper's design-space sweep:
  // 16x10 bits, consistent with [12]. On-chip A/B buffers: 1024 words x
  // 32 bits (index+value packed), built from 64x32 bricks stacked 16x,
  // identical in both chips.
  return {bricks.get({tech::BitcellKind::kCamNor10T, 16, 10, 1}, process),
          bricks.get({tech::BitcellKind::kSram8T, 16, 10, 1}, process),
          bricks.get({tech::BitcellKind::kSram8T, 64, 32, 16}, process)};
}

/// LiM reference slice: CAM -> detect -> scratchpad; scratchpad DO ->
/// 10x10 multiply + 20-bit accumulate -> write-back into WDATA.
lim::FlowReport lim_reference_flow(const tech::Process& process,
                                   const tech::StdCellLib& cells) {
  netlist::Netlist nl("lim_core_slice");
  liberty::Library lib = liberty::characterize_stdcell_library(cells);
  const brick::BrickSpec cam_spec{tech::BitcellKind::kCamNor10T, 16, 10, 1};
  const brick::BrickSpec sram_spec{tech::BitcellKind::kSram8T, 16, 10, 1};
  brick::BrickCache& bricks = brick::BrickCache::global();
  lib.add(bricks.get(cam_spec, process)->libcell);
  lib.add(bricks.get(sram_spec, process)->libcell);

  const NetId clk = nl.add_net("clk");
  nl.set_clock(clk);
  nl.add_port("clk", netlist::PortDir::kInput, clk);
  Builder b(nl, "lim");

  // Broadcast row index arrives registered.
  std::vector<NetId> idx_in = nl.make_bus("idx", 10);
  for (int i = 0; i < 10; ++i)
    nl.add_port("idx" + std::to_string(i), netlist::PortDir::kInput,
                idx_in[static_cast<std::size_t>(i)]);
  const std::vector<NetId> idx = b.registers(idx_in, clk);

  // CAM: search the row index, produce MATCH + matching entry index.
  std::vector<netlist::Connection> cam_conns{{"CK", clk}};
  const NetId zero = b.tie0();
  for (int r = 0; r < 16; ++r) {
    cam_conns.push_back({"RWL[" + std::to_string(r) + "]", zero});
    cam_conns.push_back({"WWL[" + std::to_string(r) + "]", zero});
  }
  for (int j = 0; j < 10; ++j) {
    cam_conns.push_back({"WDATA[" + std::to_string(j) + "]", zero});
    cam_conns.push_back(
        {"SDATA[" + std::to_string(j) + "]", idx[static_cast<std::size_t>(j)]});
  }
  const NetId match = nl.add_net("match");
  cam_conns.push_back({"MATCH", match});
  std::vector<NetId> cam_do = nl.make_bus("cam_do", 10);
  for (int j = 0; j < 10; ++j)
    cam_conns.push_back(
        {"DO[" + std::to_string(j) + "]", cam_do[static_cast<std::size_t>(j)]});
  nl.add_instance("hcam", cam_spec.name(), cam_conns);

  // Mismatch-detect block acting as priority decoder for the scratchpad
  // (Fig. 5): decode the matching entry index into the scratchpad RWL/WWL.
  const std::vector<NetId> entry(cam_do.begin(), cam_do.begin() + 4);
  const std::vector<NetId> rwl = b.decoder(entry, match);
  const std::vector<NetId> wwl = b.decoder(entry, match);

  // Scratchpad SRAM holding the values.
  std::vector<netlist::Connection> sp_conns{{"CK", clk}};
  for (int r = 0; r < 16; ++r) {
    sp_conns.push_back({"RWL[" + std::to_string(r) + "]",
                        rwl[static_cast<std::size_t>(r)]});
    sp_conns.push_back({"WWL[" + std::to_string(r) + "]",
                        wwl[static_cast<std::size_t>(r)]});
  }
  std::vector<NetId> sp_do = nl.make_bus("sp_do", 10);
  for (int j = 0; j < 10; ++j)
    sp_conns.push_back(
        {"DO[" + std::to_string(j) + "]", sp_do[static_cast<std::size_t>(j)]});

  // Multiply-and-add write-back: value * broadcast operand + old value.
  std::vector<NetId> opa_in = nl.make_bus("opa", 10);
  for (int i = 0; i < 10; ++i)
    nl.add_port("opa" + std::to_string(i), netlist::PortDir::kInput,
                opa_in[static_cast<std::size_t>(i)]);
  const std::vector<NetId> opa = b.registers(opa_in, clk);
  const std::vector<NetId> product = b.multiply(sp_do, opa);  // 20 bits
  const std::vector<NetId> old_ext = [&] {
    std::vector<NetId> v = sp_do;
    while (v.size() < product.size()) v.push_back(b.tie0());
    return v;
  }();
  const std::vector<NetId> sum = b.add(product, old_ext, netlist::kNoNet);
  for (int j = 0; j < 10; ++j)
    sp_conns.push_back({"WDATA[" + std::to_string(j) + "]",
                        sum[static_cast<std::size_t>(j)]});
  nl.add_instance("scratch", sram_spec.name(), sp_conns);

  // Observe the MAC result so it is not swept.
  for (int j = 0; j < 4; ++j)
    nl.add_port("obs" + std::to_string(j), netlist::PortDir::kOutput,
                sum[static_cast<std::size_t>(10 + j)]);

  lim::FlowOptions opt;
  opt.activity_cycles = 0;  // timing/area only
  return lim::run_flow(nl, lib, cells, process, {}, {}, opt);
}

/// Baseline reference slice: FIFO SRAM DO -> 10-bit comparator + shift
/// mux network -> FIFO WDATA (the sorted-FIFO insert step).
lim::FlowReport baseline_reference_flow(const tech::Process& process,
                                        const tech::StdCellLib& cells) {
  netlist::Netlist nl("heap_core_slice");
  liberty::Library lib = liberty::characterize_stdcell_library(cells);
  const brick::BrickSpec fifo_spec{tech::BitcellKind::kSram8T, 16, 10, 1};
  lib.add(brick::BrickCache::global().get(fifo_spec, process)->libcell);

  const NetId clk = nl.add_net("clk");
  nl.set_clock(clk);
  nl.add_port("clk", netlist::PortDir::kInput, clk);
  Builder b(nl, "heap");

  std::vector<NetId> key_in = nl.make_bus("key", 10);
  for (int i = 0; i < 10; ++i)
    nl.add_port("key" + std::to_string(i), netlist::PortDir::kInput,
                key_in[static_cast<std::size_t>(i)]);
  const std::vector<NetId> key = b.registers(key_in, clk);

  // Four FIFO banks; one pop-min + insert resolves in a single cycle:
  // read all heads, select the minimum through a comparator tree, compare
  // the insert key against it, and write back through the shift mux.
  std::vector<NetId> head_ptr = nl.make_bus("hp", 4);
  for (int i = 0; i < 4; ++i)
    nl.add_port("hp" + std::to_string(i), netlist::PortDir::kInput,
                head_ptr[static_cast<std::size_t>(i)]);
  const std::vector<NetId> ptr = b.registers(head_ptr, clk);
  const std::vector<NetId> rwl = b.decoder(ptr);
  const std::vector<NetId> wwl = b.decoder(ptr, b.tie1());

  std::vector<std::vector<NetId>> heads;
  std::vector<std::vector<netlist::Connection>> bank_conns(4);
  for (int bank = 0; bank < 4; ++bank) {
    auto& conns = bank_conns[static_cast<std::size_t>(bank)];
    conns.push_back({"CK", clk});
    for (int r = 0; r < 16; ++r) {
      conns.push_back({"RWL[" + std::to_string(r) + "]",
                       rwl[static_cast<std::size_t>(r)]});
      conns.push_back({"WWL[" + std::to_string(r) + "]",
                       wwl[static_cast<std::size_t>(r)]});
    }
    std::vector<NetId> dos =
        nl.make_bus("head" + std::to_string(bank), 10);
    heads.push_back(dos);
    for (int j = 0; j < 10; ++j)
      conns.push_back(
          {"DO[" + std::to_string(j) + "]", dos[static_cast<std::size_t>(j)]});
  }

  auto min_of = [&](const std::vector<NetId>& x, const std::vector<NetId>& y) {
    const NetId lt = b.less_than(x, y);
    std::vector<NetId> out;
    out.reserve(x.size());
    for (std::size_t j = 0; j < x.size(); ++j)
      out.push_back(b.mux2(y[j], x[j], lt));  // lt ? x : y
    return out;
  };
  const std::vector<NetId> min01 = min_of(heads[0], heads[1]);
  const std::vector<NetId> min23 = min_of(heads[2], heads[3]);
  const std::vector<NetId> min_all = min_of(min01, min23);

  // Insert-position resolution: compare the successor key against the
  // minimum, steer the shift network accordingly.
  const NetId lt = b.less_than(key, min_all);
  std::vector<NetId> wdata;
  wdata.reserve(10);
  for (int j = 0; j < 10; ++j)
    wdata.push_back(b.mux2(min_all[static_cast<std::size_t>(j)],
                           key[static_cast<std::size_t>(j)], lt));
  for (int bank = 0; bank < 4; ++bank) {
    auto& conns = bank_conns[static_cast<std::size_t>(bank)];
    for (int j = 0; j < 10; ++j)
      conns.push_back({"WDATA[" + std::to_string(j) + "]",
                       wdata[static_cast<std::size_t>(j)]});
    nl.add_instance("fifo" + std::to_string(bank), fifo_spec.name(),
                    std::move(conns));
  }
  nl.add_port("obs_lt", netlist::PortDir::kOutput, lt);

  lim::FlowOptions opt;
  opt.activity_cycles = 0;
  return lim::run_flow(nl, lib, cells, process, {}, {}, opt);
}

}  // namespace

ChipModel build_lim_chip(const tech::Process& process,
                         const tech::StdCellLib& cells) {
  const ChipBricks bricks = chip_bricks(process);
  ChipModel chip;
  chip.name = "LiM CAM-SpGEMM";
  chip.timing = lim_reference_flow(process, cells);
  chip.fmax = chip.timing.fmax;

  chip.e_cam_match = bricks.cam->estimate.match_energy;
  chip.e_sram_read = bricks.sram->estimate.read_energy;
  chip.e_sram_write = bricks.sram->estimate.write_energy;
  chip.e_buffer_read = bricks.buffer->estimate.read_energy;
  // MAC + detect logic energy: approximate with the flow's cell area times
  // a switching-energy density (the slice was run without stimulus).
  chip.e_logic = 0.5e-12;  // J/cycle per active MAC lane

  const double per_cycle =
      kAvgActiveCams *
          (chip.e_cam_match + 0.5 * (chip.e_sram_read + chip.e_sram_write) +
           chip.e_logic) +
      kBufferReadsPerCycle * chip.e_buffer_read;
  chip.energy_per_cycle = per_cycle * (1.0 + kClockOverhead);

  // Areas: 32 horizontal CAM+scratch columns + vertical CAM + MAC lanes.
  const double column_area =
      bricks.cam->brick.layout.area + bricks.sram->brick.layout.area;
  chip.core_area = 33.0 * column_area + 32.0 * 1850e-12;
  chip.chip_area =
      chip.core_area + 2.0 * bricks.buffer->estimate.bank_area + 0.6e-6;
  return chip;
}

ChipModel build_baseline_chip(const tech::Process& process,
                              const tech::StdCellLib& cells) {
  const ChipBricks bricks = chip_bricks(process);
  ChipModel chip;
  chip.name = "non-LiM heap SpGEMM";
  chip.timing = baseline_reference_flow(process, cells);
  chip.fmax = chip.timing.fmax;

  chip.e_sram_read = bricks.sram->estimate.read_energy;
  chip.e_sram_write = bricks.sram->estimate.write_energy;
  chip.e_buffer_read = bricks.buffer->estimate.read_energy;
  chip.e_logic = 0.25e-12;  // comparator + control per cycle

  const double per_cycle =
      kAvgFifoOps * (chip.e_sram_read + chip.e_sram_write) + chip.e_logic +
      kBufferReadsPerCycle * chip.e_buffer_read;
  chip.energy_per_cycle = per_cycle * (1.0 + kClockOverhead);

  // FIFO banks + merge logic occupy comparable area to the CAM columns
  // (paper: 0.33 mm^2 core vs 0.39 mm^2).
  chip.core_area = 64.0 * bricks.sram->brick.layout.area + 26.0 * 2000e-12;
  chip.chip_area =
      chip.core_area + 2.0 * bricks.buffer->estimate.bank_area + 0.6e-6;
  return chip;
}

BenchmarkResult run_benchmark(const ChipModel& chip, bool is_lim,
                              const spgemm::SparseMatrix& a,
                              const CoreConfig& config,
                              spgemm::SparseMatrix* product) {
  BenchmarkResult out;
  spgemm::SparseMatrix c =
      is_lim ? lim_spgemm(a, a, config, &out.stats)
             : heap_spgemm(a, a, config, &out.stats);
  if (product != nullptr) *product = std::move(c);
  out.seconds = static_cast<double>(out.stats.cycles) / chip.fmax;
  out.joules = static_cast<double>(out.stats.cycles) * chip.energy_per_cycle;
  return out;
}

}  // namespace limsynth::arch
