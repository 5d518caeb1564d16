#include "lim/cam_block.hpp"

#include "brick/cache.hpp"
#include "liberty/characterize.hpp"
#include "lim/sram_builder.hpp"
#include "netlist/generators.hpp"
#include "util/error.hpp"

namespace limsynth::lim {

namespace {
using netlist::Builder;
using netlist::NetId;

std::string idx(const char* base, int i) {
  return std::string(base) + "[" + std::to_string(i) + "]";
}
}  // namespace

CamBlockDesign build_cam_block(const CamBlockConfig& cfg,
                               const tech::Process& process,
                               const tech::StdCellLib& cells) {
  const int entry_bits = exact_log2(cfg.entries);
  LIMS_CHECK(entry_bits <= cfg.index_bits);

  CamBlockDesign d(cfg, "hcam_block");
  d.lib = liberty::characterize_stdcell_library(cells);
  const brick::BrickSpec cam_spec{tech::BitcellKind::kCamNor10T,
                                  std::min(cfg.brick_words, cfg.entries),
                                  cfg.index_bits,
                                  std::max(1, cfg.entries / cfg.brick_words)};
  const brick::BrickSpec sp_spec{tech::BitcellKind::kSram8T,
                                 std::min(cfg.brick_words, cfg.entries),
                                 cfg.value_bits,
                                 std::max(1, cfg.entries / cfg.brick_words)};
  brick::BrickCache& bricks = brick::BrickCache::global();
  d.lib.add(bricks.get(cam_spec, process)->libcell);
  d.lib.add(bricks.get(sp_spec, process)->libcell);

  netlist::Netlist& nl = d.nl;
  d.clk = nl.add_net("clk");
  nl.set_clock(d.clk);
  nl.add_port("clk", netlist::PortDir::kInput, d.clk);
  d.row = nl.make_bus("row", cfg.index_bits);
  d.addend = nl.make_bus("addend", cfg.value_bits);
  d.op_valid = nl.add_net("op_valid");
  for (int i = 0; i < cfg.index_bits; ++i)
    nl.add_port("row" + std::to_string(i), netlist::PortDir::kInput,
                d.row[static_cast<std::size_t>(i)]);
  for (int i = 0; i < cfg.value_bits; ++i)
    nl.add_port("addend" + std::to_string(i), netlist::PortDir::kInput,
                d.addend[static_cast<std::size_t>(i)]);
  nl.add_port("op_valid", netlist::PortDir::kInput, d.op_valid);

  Builder b(nl, "hcam");

  // Stage-1 registers (the op travels with the CAM's search latency).
  const std::vector<NetId> s1_row = b.registers(d.row, d.clk);
  const std::vector<NetId> s1_value = b.registers(d.addend, d.clk);
  const NetId s1_valid = b.registers({d.op_valid}, d.clk)[0];

  // CAM brick: searches the raw row input so its result aligns with s1.
  const NetId match = nl.add_net("cam_match");
  std::vector<NetId> cam_do = nl.make_bus("cam_do", cfg.index_bits);
  std::vector<NetId> cam_wwl = nl.make_bus("cam_wwl", cfg.entries);

  // Valid bits + free-entry allocator.
  const NetId hit = b.and2(match, s1_valid);
  const std::vector<NetId> entry(cam_do.begin(), cam_do.begin() + entry_bits);
  const std::vector<NetId> entry_onehot = b.decoder(entry, hit);

  // valid register bank (one DFF per entry, with insert-set logic).
  std::vector<NetId> valid_q = nl.make_bus("valid_q", cfg.entries);
  std::vector<NetId> not_valid;
  not_valid.reserve(static_cast<std::size_t>(cfg.entries));
  for (int e = 0; e < cfg.entries; ++e)
    not_valid.push_back(b.inv(valid_q[static_cast<std::size_t>(e)]));
  NetId any_free = netlist::kNoNet;
  const std::vector<NetId> free_grant = b.priority(not_valid, &any_free);
  d.full_out = b.inv(any_free);
  const NetId insert = b.and_tree({s1_valid, b.inv(match), any_free});

  for (int e = 0; e < cfg.entries; ++e) {
    const NetId set_e = b.and2(insert, free_grant[static_cast<std::size_t>(e)]);
    const NetId dnet = b.or2(valid_q[static_cast<std::size_t>(e)], set_e);
    nl.add_instance("valid_ff" + std::to_string(e), "DFF_X1",
                    {{"D", dnet}, {"CK", d.clk},
                     {"Q", valid_q[static_cast<std::size_t>(e)]}});
    // CAM write wordline for the insert.
    nl.add_instance("cam_wwl_buf" + std::to_string(e), "BUF_X1",
                    {{"A", set_e},
                     {"Y", cam_wwl[static_cast<std::size_t>(e)]}});
  }

  // CAM instance.
  {
    std::vector<netlist::Connection> conns{{"CK", d.clk}};
    const NetId zero = b.tie0();
    for (int e = 0; e < cfg.entries; ++e) {
      conns.push_back({idx("RWL", e), zero});
      conns.push_back({idx("WWL", e), cam_wwl[static_cast<std::size_t>(e)]});
    }
    for (int j = 0; j < cfg.index_bits; ++j) {
      conns.push_back({idx("WDATA", j), s1_row[static_cast<std::size_t>(j)]});
      conns.push_back({idx("SDATA", j), d.row[static_cast<std::size_t>(j)]});
      conns.push_back({idx("DO", j), cam_do[static_cast<std::size_t>(j)]});
    }
    conns.push_back({"MATCH", match});
    d.cam_inst = nl.add_instance("hcam_cam", cam_spec.name(), conns);
  }

  // Stage-2 registers: matched-entry one-hot and the addend ride along
  // while the scratchpad read completes.
  const std::vector<NetId> s2_hit_onehot = b.registers(entry_onehot, d.clk);
  const std::vector<NetId> s2_value = b.registers(s1_value, d.clk);

  // Scratchpad with accumulate write-back.
  std::vector<NetId> sp_do = nl.make_bus("sp_do", cfg.value_bits);
  const std::vector<NetId> sum = b.add(sp_do, s2_value, netlist::kNoNet);
  {
    std::vector<netlist::Connection> conns{{"CK", d.clk}};
    for (int e = 0; e < cfg.entries; ++e) {
      const NetId wwl = b.or2(
          b.and2(insert, free_grant[static_cast<std::size_t>(e)]),
          s2_hit_onehot[static_cast<std::size_t>(e)]);
      conns.push_back({idx("RWL", e),
                       entry_onehot[static_cast<std::size_t>(e)]});
      conns.push_back({idx("WWL", e), wwl});
    }
    for (int j = 0; j < cfg.value_bits; ++j) {
      // Insert stores the fresh addend; the hit path stores the sum.
      conns.push_back({idx("WDATA", j),
                       b.mux2(sum[static_cast<std::size_t>(j)],
                              s1_value[static_cast<std::size_t>(j)], insert)});
      conns.push_back({idx("DO", j), sp_do[static_cast<std::size_t>(j)]});
    }
    d.scratch_inst = nl.add_instance("hcam_scratch", sp_spec.name(), conns);
  }

  d.match_out = match;
  nl.add_port("match", netlist::PortDir::kOutput, d.match_out);
  nl.add_port("full", netlist::PortDir::kOutput, d.full_out);
  return d;
}

CamBlockModels attach_cam_block_models(CamBlockDesign& d,
                                       netlist::Simulator& sim) {
  CamBlockModels m;
  m.cam = std::make_shared<CamBankModel>(d.config.entries, d.config.index_bits);
  m.scratch =
      std::make_shared<SramBankModel>(d.config.entries, d.config.value_bits);
  sim.attach(d.cam_inst, m.cam);
  sim.attach(d.scratch_inst, m.scratch);
  return m;
}

void cam_block_apply(CamBlockDesign& d, netlist::Simulator& sim, int row,
                     std::uint64_t addend) {
  sim.set_bus(d.row, static_cast<std::uint64_t>(row));
  sim.set_bus(d.addend, addend);
  sim.set_input(d.op_valid, true);
  sim.settle();
  sim.clock_edge();
  sim.set_input(d.op_valid, false);
  sim.settle();
  sim.clock_edge();
  sim.clock_edge();
}

std::vector<std::pair<int, std::uint64_t>> cam_block_contents(
    const CamBlockDesign& d, const CamBlockModels& m) {
  std::vector<std::pair<int, std::uint64_t>> out;
  for (int e = 0; e < d.config.entries; ++e) {
    if (!m.cam->is_valid(e)) continue;
    out.emplace_back(static_cast<int>(m.cam->word(e)), m.scratch->word(e));
  }
  return out;
}

}  // namespace limsynth::lim
