#include "lim/smart_memory.hpp"

#include "brick/cache.hpp"
#include "liberty/characterize.hpp"
#include "netlist/generators.hpp"
#include "util/error.hpp"

namespace limsynth::lim {

namespace {

using netlist::Builder;
using netlist::NetId;

/// out = (bus < k) for a constant k (unsigned). Standard ripple compare
/// from the MSB down: lt = bit_of_k AND NOT bus_bit, continuing on equal.
NetId less_than_const(Builder& b, const std::vector<NetId>& bus, int k) {
  if (k >= (1 << bus.size())) return b.tie1();  // every bus value is below k
  if (k <= 0) return b.tie0();
  NetId lt = b.tie0();
  NetId eq = b.tie1();
  for (int i = static_cast<int>(bus.size()) - 1; i >= 0; --i) {
    const bool kb = (k >> i) & 1;
    const NetId bit = bus[static_cast<std::size_t>(i)];
    if (kb) {
      // k has 1 here: bus<k continues if bus bit is 0.
      lt = b.or2(lt, b.and2(eq, b.inv(bit)));
      eq = b.and2(eq, bit);
    } else {
      // k has 0: bus bit 1 makes bus > k on this prefix.
      eq = b.and2(eq, b.inv(bit));
    }
  }
  return lt;
}

/// out = (bus == k) for a constant k.
NetId equal_const(Builder& b, const std::vector<NetId>& bus, int k) {
  std::vector<NetId> terms;
  terms.reserve(bus.size());
  for (std::size_t i = 0; i < bus.size(); ++i) {
    const bool kb = (k >> i) & 1;
    terms.push_back(kb ? bus[i] : b.inv(bus[i]));
  }
  return b.and_tree(std::move(terms));
}

/// Increment: bus + 1, same width (wraps).
std::vector<NetId> increment(Builder& b, const std::vector<NetId>& bus) {
  const std::vector<NetId> zeros(bus.size(), b.tie0());
  return b.add(bus, zeros, b.tie1());
}

/// Per-bit 2:1 mux over buses.
std::vector<NetId> mux_bus(Builder& b, const std::vector<NetId>& a,
                           const std::vector<NetId>& c, NetId sel) {
  LIMS_CHECK(a.size() == c.size());
  std::vector<NetId> out;
  out.reserve(a.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    out.push_back(b.mux2(a[i], c[i], sel));
  return out;
}

}  // namespace

// =================================================================== PAM

PamLocation pam_locate(const ParallelAccessConfig& cfg, int r, int c) {
  const int a = r % cfg.win_m;
  const int b = c % cfg.win_n;
  const int row = (r / cfg.win_m) * (cfg.image_cols / cfg.win_n) +
                  (c / cfg.win_n);
  return {a * cfg.win_n + b, row};
}

ParallelAccessDesign build_parallel_access_memory(
    const ParallelAccessConfig& cfg, const tech::Process& process,
    const tech::StdCellLib& cells) {
  const int km = exact_log2(cfg.win_m);
  const int kn = exact_log2(cfg.win_n);
  const int kr = exact_log2(cfg.image_rows);
  const int kc = exact_log2(cfg.image_cols);
  const int row_part_bits = kr - km;  // bits of r/m
  const int col_part_bits = kc - kn;
  LIMS_CHECK(row_part_bits >= 1 && col_part_bits >= 1);
  const int bank_rows = cfg.bank_rows();
  LIMS_CHECK_MSG(bank_rows % cfg.brick_words == 0,
                 "bank rows not divisible by brick words");

  ParallelAccessDesign d(cfg,
                         std::string("pam_") + (cfg.smart ? "lim" : "asic"));
  d.lib = liberty::characterize_stdcell_library(cells);
  const brick::BrickSpec bspec{tech::BitcellKind::kSram8T, cfg.brick_words,
                               cfg.pixel_bits, bank_rows / cfg.brick_words};
  d.lib.add(brick::BrickCache::global().get(bspec, process)->libcell);

  netlist::Netlist& nl = d.nl;
  d.clk = nl.add_net("clk");
  nl.set_clock(d.clk);
  nl.add_port("clk", netlist::PortDir::kInput, d.clk);
  d.x = nl.make_bus("x", kr);
  d.y = nl.make_bus("y", kc);
  d.wr = nl.make_bus("wr", kr);
  d.wc = nl.make_bus("wc", kc);
  d.wdata = nl.make_bus("wdin", cfg.pixel_bits);
  d.wen = nl.add_net("wen");
  for (int i = 0; i < kr; ++i) {
    nl.add_port("x" + std::to_string(i), netlist::PortDir::kInput, d.x[static_cast<std::size_t>(i)]);
    nl.add_port("wr" + std::to_string(i), netlist::PortDir::kInput, d.wr[static_cast<std::size_t>(i)]);
  }
  for (int i = 0; i < kc; ++i) {
    nl.add_port("y" + std::to_string(i), netlist::PortDir::kInput, d.y[static_cast<std::size_t>(i)]);
    nl.add_port("wc" + std::to_string(i), netlist::PortDir::kInput, d.wc[static_cast<std::size_t>(i)]);
  }
  for (int i = 0; i < cfg.pixel_bits; ++i)
    nl.add_port("wdin" + std::to_string(i), netlist::PortDir::kInput, d.wdata[static_cast<std::size_t>(i)]);
  nl.add_port("wen", netlist::PortDir::kInput, d.wen);

  Builder b(nl, cfg.smart ? "pam_lim" : "pam_asic");

  // Address slices.
  const std::vector<NetId> xl(d.x.begin(), d.x.begin() + km);  // x % m
  const std::vector<NetId> xh(d.x.begin() + km, d.x.end());    // x / m
  const std::vector<NetId> yl(d.y.begin(), d.y.begin() + kn);
  const std::vector<NetId> yh(d.y.begin() + kn, d.y.end());

  // Row/column part per bank coordinate. The smart variant shares one
  // incrementer and one pair of decoders per coordinate; the conventional
  // variant replicates them per bank coordinate.
  std::vector<std::vector<NetId>> rowdec_for_a(static_cast<std::size_t>(cfg.win_m));
  std::vector<std::vector<NetId>> coldec_for_b(static_cast<std::size_t>(cfg.win_n));

  if (cfg.smart) {
    const std::vector<NetId> xh1 = increment(b, xh);
    const std::vector<NetId> yh1 = increment(b, yh);
    for (int a = 0; a < cfg.win_m; ++a) {
      const NetId wrap = less_than_const(b, xl, a + 1);  // a < xl  <=> xl > a
      // a < xl means the row for residue a wrapped past x: needs xh+1.
      const NetId sel = b.inv(wrap);  // less_than_const gives xl < a+1 i.e. xl <= a
      // sel==1 when xl > a: use xh1.
      rowdec_for_a[static_cast<std::size_t>(a)] =
          b.decoder(mux_bus(b, xh, xh1, sel));
    }
    for (int bb = 0; bb < cfg.win_n; ++bb) {
      const NetId wrap = less_than_const(b, yl, bb + 1);
      const NetId sel = b.inv(wrap);
      coldec_for_b[static_cast<std::size_t>(bb)] =
          b.decoder(mux_bus(b, yh, yh1, sel));
    }
  }
  // Conventional variant: every bank gets its own complete address unit
  // (incrementer + comparator + row and column decoders) — built inside
  // the bank loop below.
  auto private_row_dec = [&](int a) {
    const std::vector<NetId> xh1 = increment(b, xh);
    const NetId sel = b.inv(less_than_const(b, xl, a + 1));
    return b.decoder(mux_bus(b, xh, xh1, sel));
  };
  auto private_col_dec = [&](int bb) {
    const std::vector<NetId> yh1 = increment(b, yh);
    const NetId sel = b.inv(less_than_const(b, yl, bb + 1));
    return b.decoder(mux_bus(b, yh, yh1, sel));
  };

  // Write decode (shared in both variants; [7]'s customization targets the
  // read path).
  const std::vector<NetId> wrl(d.wr.begin(), d.wr.begin() + km);
  const std::vector<NetId> wrh(d.wr.begin() + km, d.wr.end());
  const std::vector<NetId> wcl(d.wc.begin(), d.wc.begin() + kn);
  const std::vector<NetId> wch(d.wc.begin() + kn, d.wc.end());
  const std::vector<NetId> wrowdec = b.decoder(wrh);
  const std::vector<NetId> wcoldec = b.decoder(wch);

  // Banks.
  d.window.assign(static_cast<std::size_t>(cfg.win_m), {});
  const std::string macro = bspec.name();
  for (int a = 0; a < cfg.win_m; ++a) {
    d.window[static_cast<std::size_t>(a)].resize(static_cast<std::size_t>(cfg.win_n));
    for (int bb = 0; bb < cfg.win_n; ++bb) {
      std::vector<netlist::Connection> conns;
      conns.push_back({"CK", d.clk});
      const NetId bank_wen =
          b.and_tree({d.wen, equal_const(b, wrl, a), equal_const(b, wcl, bb)});
      const std::vector<netlist::NetId> rdec =
          cfg.smart ? rowdec_for_a[static_cast<std::size_t>(a)]
                    : private_row_dec(a);
      const std::vector<netlist::NetId> cdec =
          cfg.smart ? coldec_for_b[static_cast<std::size_t>(bb)]
                    : private_col_dec(bb);
      for (int p = 0; p < (1 << row_part_bits); ++p) {
        for (int q = 0; q < (1 << col_part_bits); ++q) {
          const int w = p * (1 << col_part_bits) + q;
          conns.push_back({"RWL[" + std::to_string(w) + "]",
                           b.and2(rdec[static_cast<std::size_t>(p)],
                                  cdec[static_cast<std::size_t>(q)])});
          conns.push_back(
              {"WWL[" + std::to_string(w) + "]",
               b.and_tree({wrowdec[static_cast<std::size_t>(p)],
                           wcoldec[static_cast<std::size_t>(q)], bank_wen})});
        }
      }
      for (int j = 0; j < cfg.pixel_bits; ++j)
        conns.push_back({"WDATA[" + std::to_string(j) + "]",
                         d.wdata[static_cast<std::size_t>(j)]});
      auto dos = nl.make_bus(
          "win_" + std::to_string(a) + "_" + std::to_string(bb),
          cfg.pixel_bits);
      for (int j = 0; j < cfg.pixel_bits; ++j)
        conns.push_back({"DO[" + std::to_string(j) + "]",
                         dos[static_cast<std::size_t>(j)]});
      const netlist::InstId inst =
          nl.add_instance("bank_" + std::to_string(a) + "_" + std::to_string(bb),
                          macro, std::move(conns));
      d.banks.push_back(inst);
      for (int j = 0; j < cfg.pixel_bits; ++j)
        nl.add_port(
            "win_" + std::to_string(a) + "_" + std::to_string(bb) + "_" +
                std::to_string(j),
            netlist::PortDir::kOutput, dos[static_cast<std::size_t>(j)]);
      d.window[static_cast<std::size_t>(a)][static_cast<std::size_t>(bb)] = dos;
    }
  }
  return d;
}

std::vector<std::shared_ptr<SramBankModel>> attach_pam_models(
    ParallelAccessDesign& d, netlist::Simulator& sim) {
  std::vector<std::shared_ptr<SramBankModel>> models;
  for (netlist::InstId inst : d.banks) {
    auto m = std::make_shared<SramBankModel>(d.config.bank_rows(),
                                             d.config.pixel_bits);
    sim.attach(inst, m);
    models.push_back(std::move(m));
  }
  return models;
}

void pam_load_image(const ParallelAccessConfig& cfg,
                    std::vector<std::shared_ptr<SramBankModel>>& models,
                    const std::vector<std::vector<std::uint64_t>>& image) {
  LIMS_CHECK(static_cast<int>(image.size()) == cfg.image_rows);
  for (int r = 0; r < cfg.image_rows; ++r) {
    LIMS_CHECK(static_cast<int>(image[static_cast<std::size_t>(r)].size()) ==
               cfg.image_cols);
    for (int c = 0; c < cfg.image_cols; ++c) {
      const PamLocation loc = pam_locate(cfg, r, c);
      models[static_cast<std::size_t>(loc.bank)]->set_word(
          loc.row, image[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)]);
    }
  }
}

// ================================================================ interp

int InterpConfig::frac_bits() const {
  LIMS_CHECK_MSG(dense_entries % seed_entries == 0,
                 "dense entries not a multiple of seed entries");
  return exact_log2(expansion());
}

InterpDesign build_interpolation_memory(const InterpConfig& cfg,
                                        const tech::Process& process,
                                        const tech::StdCellLib& cells) {
  const int seed_bits = exact_log2(cfg.seed_entries);
  const int fb = cfg.frac_bits();
  const int idx_bits = seed_bits + fb;
  const int half_rows = cfg.seed_entries / 2;
  const int brick_words = std::min(cfg.brick_words, half_rows);
  LIMS_CHECK_MSG(half_rows % brick_words == 0,
                 "seed bank rows not divisible by brick words");

  InterpDesign d(cfg, "interp_mem");
  d.lib = liberty::characterize_stdcell_library(cells);
  const brick::BrickSpec bspec{tech::BitcellKind::kSram8T, brick_words,
                               cfg.value_bits, half_rows / brick_words};
  d.lib.add(brick::BrickCache::global().get(bspec, process)->libcell);

  netlist::Netlist& nl = d.nl;
  d.clk = nl.add_net("clk");
  nl.set_clock(d.clk);
  nl.add_port("clk", netlist::PortDir::kInput, d.clk);
  d.index = nl.make_bus("idx", idx_bits);
  for (int i = 0; i < idx_bits; ++i)
    nl.add_port("idx" + std::to_string(i), netlist::PortDir::kInput,
                d.index[static_cast<std::size_t>(i)]);

  Builder b(nl, "interp");

  // Split the dense index: frac | seed_index; seed lsb selects the bank.
  const std::vector<NetId> frac(d.index.begin(), d.index.begin() + fb);
  const std::vector<NetId> seed(d.index.begin() + fb, d.index.end());
  const NetId lsb = seed[0];
  const std::vector<NetId> half(seed.begin() + 1, seed.end());  // i/2
  const std::vector<NetId> half1 = increment(b, half);

  // even bank holds f[even i] at row i/2; odd bank f[odd i] at row i/2.
  // f[i]   -> bank (lsb) at row i/2.
  // f[i+1] -> bank (!lsb) at row i/2 + lsb.
  const std::vector<NetId> even_row = mux_bus(b, half, half1, lsb);
  const std::vector<NetId>& odd_row = half;

  const std::vector<NetId> even_dec = b.decoder(even_row);
  const std::vector<NetId> odd_dec = b.decoder(odd_row);

  auto make_bank = [&](const char* name, const std::vector<NetId>& dec) {
    std::vector<netlist::Connection> conns;
    conns.push_back({"CK", d.clk});
    const NetId zero = b.tie0();
    for (int r = 0; r < half_rows; ++r) {
      conns.push_back({"RWL[" + std::to_string(r) + "]",
                       dec[static_cast<std::size_t>(r)]});
      conns.push_back({"WWL[" + std::to_string(r) + "]", zero});
    }
    for (int j = 0; j < cfg.value_bits; ++j)
      conns.push_back({"WDATA[" + std::to_string(j) + "]", zero});
    auto dos = nl.make_bus(std::string(name) + "_do", cfg.value_bits);
    for (int j = 0; j < cfg.value_bits; ++j)
      conns.push_back({"DO[" + std::to_string(j) + "]",
                       dos[static_cast<std::size_t>(j)]});
    const netlist::InstId inst =
        nl.add_instance(name, bspec.name(), std::move(conns));
    return std::make_pair(inst, dos);
  };
  auto [even_inst, even_do] = make_bank("seed_even", even_dec);
  auto [odd_inst, odd_do] = make_bank("seed_odd", odd_dec);
  d.bank_even = even_inst;
  d.bank_odd = odd_inst;

  // Register lsb and frac to align with the synchronous table read.
  const std::vector<NetId> lsb_r = b.registers({lsb}, d.clk);
  const std::vector<NetId> frac_r = b.registers(frac, d.clk);

  // f_low = lsb ? odd : even ; f_high = lsb ? even : odd.
  const std::vector<NetId> f_low = mux_bus(b, even_do, odd_do, lsb_r[0]);
  const std::vector<NetId> f_high = mux_bus(b, odd_do, even_do, lsb_r[0]);

  // out = (f_high * frac + f_low * (E - frac)) >> fb, all unsigned.
  // E - frac = (~frac & (E-1)) + 1, width fb+1 (E itself when frac==0).
  std::vector<NetId> frac_inv;
  frac_inv.reserve(static_cast<std::size_t>(fb) + 1);
  for (NetId f : frac_r) frac_inv.push_back(b.inv(f));
  frac_inv.push_back(b.tie0());  // width fb+1
  std::vector<NetId> zeros(static_cast<std::size_t>(fb) + 1, b.tie0());
  const std::vector<NetId> e_minus_frac = b.add(frac_inv, zeros, b.tie1());

  std::vector<NetId> frac_w = frac_r;
  frac_w.push_back(b.tie0());  // zero-extend to fb+1

  const std::vector<NetId> p_high = b.multiply(f_high, frac_w);
  const std::vector<NetId> p_low = b.multiply(f_low, e_minus_frac);
  std::vector<NetId> sum = b.add(p_high, p_low, netlist::kNoNet);

  // Shift right by fb (drop low bits), keep value_bits.
  std::vector<NetId> shifted(sum.begin() + fb, sum.begin() + fb + cfg.value_bits);
  d.out = b.registers(shifted, d.clk);
  for (int j = 0; j < cfg.value_bits; ++j)
    nl.add_port("out" + std::to_string(j), netlist::PortDir::kOutput,
                d.out[static_cast<std::size_t>(j)]);
  return d;
}

InterpModels attach_interp_models(InterpDesign& d, netlist::Simulator& sim) {
  const int half_rows = d.config.seed_entries / 2;
  InterpModels m;
  m.even = std::make_shared<SramBankModel>(half_rows, d.config.value_bits);
  m.odd = std::make_shared<SramBankModel>(half_rows, d.config.value_bits);
  sim.attach(d.bank_even, m.even);
  sim.attach(d.bank_odd, m.odd);
  return m;
}

void interp_load_table(const InterpConfig& cfg, InterpModels& models,
                       const std::vector<std::uint64_t>& samples) {
  LIMS_CHECK(static_cast<int>(samples.size()) == cfg.seed_entries);
  for (int i = 0; i < cfg.seed_entries; ++i) {
    auto& bank = (i % 2 == 0) ? models.even : models.odd;
    bank->set_word(i / 2, samples[static_cast<std::size_t>(i)]);
  }
}

std::uint64_t interp_reference(const InterpConfig& cfg,
                               const std::vector<std::uint64_t>& samples,
                               int dense_index) {
  const int E = cfg.expansion();
  const int i = dense_index / E;
  const int frac = dense_index % E;
  LIMS_CHECK(i >= 0 && i < cfg.seed_entries);
  const std::uint64_t f_low = samples[static_cast<std::size_t>(i)];
  // Wraps at the table end, exactly like the hardware's incrementer.
  const std::uint64_t f_high =
      samples[static_cast<std::size_t>((i + 1) % cfg.seed_entries)];
  const std::uint64_t mask = (std::uint64_t{1} << cfg.value_bits) - 1;
  return ((f_high * static_cast<std::uint64_t>(frac) +
           f_low * static_cast<std::uint64_t>(E - frac)) >>
          cfg.frac_bits()) &
         mask;
}

}  // namespace limsynth::lim
