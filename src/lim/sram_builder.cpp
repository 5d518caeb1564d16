#include "lim/sram_builder.hpp"

#include <algorithm>

#include "brick/cache.hpp"
#include "liberty/characterize.hpp"
#include "netlist/generators.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace limsynth::lim {

int exact_log2(int n) {
  LIMS_CHECK_MSG(n >= 1 && (n & (n - 1)) == 0,
                 n << " is not a power of two");
  int bits = 0;
  while ((1 << bits) < n) ++bits;
  return bits;
}

std::string SramConfig::name() const {
  std::string s = "sram" + std::to_string(words) + "x" + std::to_string(bits);
  if (banks > 1) s += "_b" + std::to_string(banks);
  s += "_bw" + std::to_string(brick_words);
  if (ecc) s += "_ecc";
  if (spare_rows > 0) s += "_sp" + std::to_string(spare_rows);
  return s;
}

void SramConfig::validate() const {
  LIMS_CHECK_MSG(bits >= 1 && bits <= 64,
                 "word width " << bits << " outside [1, 64]");
  LIMS_CHECK_MSG(words >= 2 && (words & (words - 1)) == 0,
                 "words " << words << " is not a power of two");
  LIMS_CHECK_MSG(banks >= 1 && (banks & (banks - 1)) == 0,
                 "banks " << banks << " is not a power of two");
  LIMS_CHECK_MSG(banks <= words && words % banks == 0,
                 "banks " << banks << " does not divide words " << words);
  LIMS_CHECK_MSG(brick_words >= 1, "brick_words must be positive");
  LIMS_CHECK_MSG(
      rows_per_bank() % brick_words == 0,
      "brick of " << brick_words << " words does not divide the "
                  << rows_per_bank() << " rows of each bank");
  LIMS_CHECK_MSG(spare_rows >= 0, "negative spare_rows");
  if (ecc) (void)fault::secded_total_bits(bits);  // throws when too wide
}

namespace {

/// Balanced XOR reduction (parity) of a set of nets.
netlist::NetId xor_fold(netlist::Builder& b,
                        std::vector<netlist::NetId> xs) {
  LIMS_CHECK(!xs.empty());
  while (xs.size() > 1) {
    std::vector<netlist::NetId> next;
    next.reserve(xs.size() / 2 + 1);
    for (std::size_t i = 0; i + 1 < xs.size(); i += 2)
      next.push_back(b.xor2(xs[i], xs[i + 1]));
    if (xs.size() % 2) next.push_back(xs.back());
    xs = std::move(next);
  }
  return xs[0];
}

/// SECDED encoder: m data nets -> m + r + 1 codeword nets in the storage
/// layout of fault/repair.hpp (data, Hamming checks, overall parity).
std::vector<netlist::NetId> secded_encoder(
    netlist::Builder& b, const std::vector<netlist::NetId>& data) {
  const int m = static_cast<int>(data.size());
  const int r = fault::secded_parity_bits(m);
  const std::vector<int> pos = fault::secded_data_positions(m);
  std::vector<netlist::NetId> code = data;
  for (int k = 0; k < r; ++k) {
    std::vector<netlist::NetId> covered;
    for (int j = 0; j < m; ++j)
      if ((pos[static_cast<std::size_t>(j)] >> k) & 1)
        covered.push_back(data[static_cast<std::size_t>(j)]);
    code.push_back(xor_fold(b, std::move(covered)));
  }
  code.push_back(xor_fold(b, code));  // overall parity over data + checks
  return code;
}

/// SECDED decoder/corrector: recomputes the syndrome, and flips the one
/// data bit it points at when the overall parity confirms a single-bit
/// error. Returns the m corrected data nets.
std::vector<netlist::NetId> secded_decoder(
    netlist::Builder& b, const std::vector<netlist::NetId>& code, int m) {
  const int r = fault::secded_parity_bits(m);
  LIMS_CHECK(static_cast<int>(code.size()) == m + r + 1);
  const std::vector<int> pos = fault::secded_data_positions(m);

  std::vector<netlist::NetId> syn, syn_n;
  for (int k = 0; k < r; ++k) {
    std::vector<netlist::NetId> covered = {
        code[static_cast<std::size_t>(m + k)]};
    for (int j = 0; j < m; ++j)
      if ((pos[static_cast<std::size_t>(j)] >> k) & 1)
        covered.push_back(code[static_cast<std::size_t>(j)]);
    syn.push_back(xor_fold(b, std::move(covered)));
    syn_n.push_back(b.inv(syn.back()));
  }
  const netlist::NetId parity_err = xor_fold(b, code);

  std::vector<netlist::NetId> out;
  out.reserve(static_cast<std::size_t>(m));
  for (int j = 0; j < m; ++j) {
    std::vector<netlist::NetId> terms;
    for (int k = 0; k < r; ++k)
      terms.push_back((pos[static_cast<std::size_t>(j)] >> k) & 1
                          ? syn[static_cast<std::size_t>(k)]
                          : syn_n[static_cast<std::size_t>(k)]);
    const netlist::NetId at_j = b.and_tree(std::move(terms));
    const netlist::NetId flip = b.and2(at_j, parity_err);
    out.push_back(b.xor2(code[static_cast<std::size_t>(j)], flip));
  }
  return out;
}

}  // namespace

SramDesign build_sram(const SramConfig& cfg, const tech::Process& process,
                      const tech::StdCellLib& cells) {
  DIAG_CONTEXT("elaborate " + cfg.name());
  cfg.validate();
  const int addr_bits = exact_log2(cfg.words);
  const int bank_bits = exact_log2(cfg.banks);
  const int row_bits = addr_bits - bank_bits;

  SramDesign d(cfg, cfg.name());

  // Libraries: standard cells + the one brick shape this design uses.
  // With ECC the brick stores the full codeword, so the array widens to
  // code_bits() columns and the extra area/energy flows through the
  // estimator exactly like any other brick shape.
  const int width = cfg.code_bits();
  d.lib = liberty::characterize_stdcell_library(cells);
  const brick::BrickSpec brick_spec{cfg.bitcell, cfg.brick_words, width,
                                    cfg.bricks_per_bank()};
  // Brick compilation + characterization is memoized process-wide: a DSE
  // sweep elaborating many designs over the same few shapes compiles each
  // shape once.
  const std::shared_ptr<const brick::CompiledBrick> bank_brick =
      brick::BrickCache::global().get(brick_spec, process);
  d.bricks.push_back(bank_brick->brick);
  d.lib.add(bank_brick->libcell);
  const std::string macro_name = brick_spec.name();

  // ----------------------------------------------------------- interface
  netlist::Netlist& nl = d.nl;
  d.clk = nl.add_net("clk");
  nl.set_clock(d.clk);
  nl.add_port("clk", netlist::PortDir::kInput, d.clk);
  d.raddr = nl.make_bus("raddr", addr_bits);
  d.waddr = nl.make_bus("waddr", addr_bits);
  d.wdata = nl.make_bus("wdata", cfg.bits);
  d.wen = nl.add_net("wen");
  for (int i = 0; i < addr_bits; ++i) {
    nl.add_port("raddr" + std::to_string(i), netlist::PortDir::kInput,
                d.raddr[static_cast<std::size_t>(i)]);
    nl.add_port("waddr" + std::to_string(i), netlist::PortDir::kInput,
                d.waddr[static_cast<std::size_t>(i)]);
  }
  for (int i = 0; i < cfg.bits; ++i)
    nl.add_port("wdata" + std::to_string(i), netlist::PortDir::kInput,
                d.wdata[static_cast<std::size_t>(i)]);
  nl.add_port("wen", netlist::PortDir::kInput, d.wen);

  netlist::Builder b(nl, "sram");

  // -------------------------------------------------- input registers
  // The chip registers its address/data/control inputs, so one clock cycle
  // contains register -> decoder -> brick wordline setup, and the brick's
  // CK -> DO -> mux -> output register path. This is what makes config E's
  // "slower decoder and global signal routing" visible in f_max, as the
  // paper discusses.
  const std::vector<netlist::NetId> raddr_r = b.registers(d.raddr, d.clk);
  const std::vector<netlist::NetId> waddr_r = b.registers(d.waddr, d.clk);
  const std::vector<netlist::NetId> wdata_r = b.registers(d.wdata, d.clk);
  const netlist::NetId wen_r = b.registers({d.wen}, d.clk)[0];

  // SECDED encoder on the write path: the bricks store the codeword.
  const std::vector<netlist::NetId> wcode =
      cfg.ecc ? secded_encoder(b, wdata_r) : wdata_r;

  const std::vector<netlist::NetId> r_row(raddr_r.begin(),
                                          raddr_r.begin() + row_bits);
  const std::vector<netlist::NetId> w_row(waddr_r.begin(),
                                          waddr_r.begin() + row_bits);

  // Bank select (address MSBs), for both ports. The write-enable folds
  // into the write bank decoder as its enable, so it costs no extra level.
  std::vector<netlist::NetId> r_bank_sel, w_bank_sel;
  if (bank_bits > 0) {
    const std::vector<netlist::NetId> r_hi(raddr_r.begin() + row_bits,
                                           raddr_r.end());
    const std::vector<netlist::NetId> w_hi(waddr_r.begin() + row_bits,
                                           waddr_r.end());
    r_bank_sel = b.decoder(r_hi);
    w_bank_sel = b.decoder(w_hi, wen_r);
  } else {
    r_bank_sel = {b.tie1()};
    w_bank_sel = {b.tie1()};
  }

  // ------------------------------------------------------------- banks
  // Row predecoding is shared across banks (the customization the paper
  // cites from [7]); each bank only carries the final AND stage, gated by
  // its bank select so deselected banks stay quiet — configuration E's
  // energy win over D.
  const int rows = cfg.rows_per_bank();
  const int lo_cnt = row_bits / 2;
  auto predecode = [&](const std::vector<netlist::NetId>& bits, bool low) {
    const std::vector<netlist::NetId> part =
        low ? std::vector<netlist::NetId>(bits.begin(), bits.begin() + lo_cnt)
            : std::vector<netlist::NetId>(bits.begin() + lo_cnt, bits.end());
    if (part.empty()) return std::vector<netlist::NetId>{b.tie1()};
    return b.decoder(part);
  };
  const std::vector<netlist::NetId> r_lo_hot = predecode(r_row, true);
  const std::vector<netlist::NetId> r_hi_hot = predecode(r_row, false);
  const std::vector<netlist::NetId> w_lo_hot = predecode(w_row, true);
  const std::vector<netlist::NetId> w_hi_hot = predecode(w_row, false);
  auto final_stage = [&](const std::vector<netlist::NetId>& lo_hot,
                         const std::vector<netlist::NetId>& hi_hot, int row,
                         netlist::NetId en) {
    const auto lo = static_cast<std::size_t>(row) % lo_hot.size();
    const auto hi = static_cast<std::size_t>(row) / lo_hot.size();
    netlist::NetId hot = b.and2(hi_hot[hi], lo_hot[lo]);
    if (en != netlist::kNoNet) hot = b.and2(hot, en);
    return hot;
  };

  std::vector<std::vector<netlist::NetId>> bank_do;
  for (int k = 0; k < cfg.banks; ++k) {
    const netlist::NetId r_en = cfg.banks > 1
                                    ? r_bank_sel[static_cast<std::size_t>(k)]
                                    : netlist::kNoNet;
    const netlist::NetId w_en = cfg.banks > 1
                                    ? w_bank_sel[static_cast<std::size_t>(k)]
                                    : wen_r;
    std::vector<netlist::NetId> rwl_row, wwl_row;
    rwl_row.reserve(static_cast<std::size_t>(rows));
    wwl_row.reserve(static_cast<std::size_t>(rows));
    for (int r = 0; r < rows; ++r) {
      rwl_row.push_back(final_stage(r_lo_hot, r_hi_hot, r, r_en));
      wwl_row.push_back(final_stage(w_lo_hot, w_hi_hot, r, w_en));
    }
    std::vector<netlist::Connection> conns;
    conns.push_back({"CK", d.clk});
    for (int r = 0; r < rows; ++r) {
      conns.push_back(
          {"RWL[" + std::to_string(r) + "]", rwl_row[static_cast<std::size_t>(r)]});
      conns.push_back(
          {"WWL[" + std::to_string(r) + "]", wwl_row[static_cast<std::size_t>(r)]});
    }
    for (int j = 0; j < width; ++j)
      conns.push_back(
          {"WDATA[" + std::to_string(j) + "]", wcode[static_cast<std::size_t>(j)]});
    std::vector<netlist::NetId> dos =
        nl.make_bus("bank" + std::to_string(k) + "_do", width);
    for (int j = 0; j < width; ++j)
      conns.push_back({"DO[" + std::to_string(j) + "]", dos[static_cast<std::size_t>(j)]});
    const netlist::InstId inst = nl.add_instance(
        "bank" + std::to_string(k), macro_name, std::move(conns));
    d.banks.push_back(inst);
    bank_do.push_back(std::move(dos));
  }

  // ------------------------------------------------------ output muxing
  std::vector<netlist::NetId> rdata_comb;
  if (cfg.banks == 1) {
    rdata_comb = bank_do[0];
  } else {
    // Bank outputs are registered locally before the global mux, so the
    // long inter-bank route is a register-to-register path and the brick
    // read stays a short local path — the banked organization's speed win
    // (Fig. 4b: E faster than D).
    const std::vector<netlist::NetId> sel_reg2 =
        b.registers(b.registers(r_bank_sel, d.clk), d.clk);
    std::vector<std::vector<netlist::NetId>> do_reg;
    do_reg.reserve(static_cast<std::size_t>(cfg.banks));
    for (int k = 0; k < cfg.banks; ++k)
      do_reg.push_back(b.registers(bank_do[static_cast<std::size_t>(k)], d.clk));
    rdata_comb.reserve(static_cast<std::size_t>(width));
    for (int j = 0; j < width; ++j) {
      std::vector<netlist::NetId> per_bank;
      per_bank.reserve(static_cast<std::size_t>(cfg.banks));
      for (int k = 0; k < cfg.banks; ++k)
        per_bank.push_back(do_reg[static_cast<std::size_t>(k)][static_cast<std::size_t>(j)]);
      rdata_comb.push_back(b.onehot_mux(sel_reg2, per_bank));
    }
  }
  // SECDED decoder/corrector on the read path, ahead of the output
  // register: a single stuck bit anywhere in the codeword is fixed here,
  // so downstream logic sees clean data end to end.
  if (cfg.ecc) rdata_comb = secded_decoder(b, rdata_comb, cfg.bits);
  d.rdata = b.registers(rdata_comb, d.clk);
  for (int j = 0; j < cfg.bits; ++j)
    nl.add_port("rdata" + std::to_string(j), netlist::PortDir::kOutput,
                d.rdata[static_cast<std::size_t>(j)]);
  return d;
}

std::vector<SramCycle> random_cycles(const SramDesign& d, int cycles,
                                     std::uint64_t seed) {
  const auto mask = [](std::size_t bits) {
    return bits >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
  };
  std::vector<SramCycle> trace(static_cast<std::size_t>(std::max(cycles, 0)));
  Rng rng(seed);
  for (SramCycle& t : trace) {
    t.raddr = rng.next_u64() & mask(d.raddr.size());
    t.waddr = rng.next_u64() & mask(d.waddr.size());
    t.wdata = rng.next_u64() & mask(d.wdata.size());
    t.wen = rng.chance(0.5);
  }
  return trace;
}

}  // namespace limsynth::lim
