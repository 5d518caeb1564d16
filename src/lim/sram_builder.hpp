// White-box SRAM construction (the paper's Fig. 3 example, generalized).
//
// A 1R1W SRAM of `words x bits` is assembled from stacked memory bricks:
// the decoders, bank-select logic, output muxing and registers are plain
// synthesized standard cells; the bricks are macros from the dynamically
// generated brick library. Partitioning (banking) follows the paper's
// test-chip configurations: configuration E is 128x10 in 4 banks of two
// stacked 16x10 bricks each.
#pragma once

#include <string>
#include <vector>

#include "brick/brick.hpp"
#include "fault/repair.hpp"
#include "liberty/library.hpp"
#include "netlist/netlist.hpp"
#include "tech/stdcell.hpp"

namespace limsynth::lim {

struct SramConfig {
  int words = 32;        // total depth (power of two)
  int bits = 10;         // word width
  int banks = 1;         // partitions; each bank holds words/banks rows
  int brick_words = 16;  // rows per brick; bricks stacked to fill a bank
  tech::BitcellKind bitcell = tech::BitcellKind::kSram8T;

  // Fault tolerance. `ecc` stores a Hamming SECDED codeword per row
  // (wider bricks + synthesized encode/decode logic); `spare_rows` adds
  // fuse-remappable redundant rows per bank for yield repair (area
  // modeled analytically in the yield analysis; the logical netlist is
  // unchanged, as the remap sits below the decoder abstraction).
  bool ecc = false;
  int spare_rows = 0;

  int rows_per_bank() const { return words / banks; }
  int bricks_per_bank() const { return rows_per_bank() / brick_words; }
  /// Stored word width: the data plus SECDED check bits when ECC is on.
  int code_bits() const {
    return ecc ? fault::secded_total_bits(bits) : bits;
  }
  std::string name() const;

  /// Throws limsynth::Error with a clear message on any inconsistent
  /// shape (non-power-of-two words, banks not dividing words, bricks not
  /// dividing bank rows, ...). Called up front by build_sram so bad
  /// configs never reach the brick compiler.
  void validate() const;
};

/// The elaborated design plus everything downstream stages need.
struct SramDesign {
  SramConfig config;
  netlist::Netlist nl;
  liberty::Library lib;                 // std cells + brick macros
  std::vector<brick::Brick> bricks;     // one compiled brick (bank template)
  std::vector<netlist::InstId> banks;   // macro instance per bank

  // Interface nets.
  netlist::NetId clk = netlist::kNoNet;
  std::vector<netlist::NetId> raddr;
  std::vector<netlist::NetId> waddr;
  std::vector<netlist::NetId> wdata;
  netlist::NetId wen = netlist::kNoNet;
  std::vector<netlist::NetId> rdata;

  /// Clock edges from presenting raddr to rdata being valid in the
  /// two-phase gate-level simulation: address register, brick read, output
  /// register — plus the bank-output register stage when partitioned.
  int read_latency() const { return config.banks == 1 ? 3 : 4; }

  SramDesign(const SramConfig& cfg, const std::string& nl_name)
      : config(cfg), nl(nl_name), lib("design_" + nl_name) {}
};

/// Elaborates the SRAM. Validates that words is divisible into banks and
/// bricks and that address widths are exact powers of two.
SramDesign build_sram(const SramConfig& config, const tech::Process& process,
                      const tech::StdCellLib& cells);

/// log2 for exact powers of two; throws otherwise.
int exact_log2(int n);

/// One cycle of traffic on an SRAM's ports.
struct SramCycle {
  std::uint64_t raddr = 0, waddr = 0, wdata = 0;
  bool wen = false;
};

/// The one random SRAM workload (yield verification, SEU campaigns,
/// timing simulation): per cycle a read address, a write address and
/// write data, each masked to its bus width, and a fair write enable,
/// drawn from Rng(seed) in that order.
std::vector<SramCycle> random_cycles(const SramDesign& d, int cycles,
                                     std::uint64_t seed);

}  // namespace limsynth::lim
