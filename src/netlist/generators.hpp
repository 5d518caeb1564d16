// Structural generators — the RTL elaboration step of the flow. The
// paper's smart memories are described in Verilog (Fig. 3); here the same
// structures (decoders, comparators, muxes, adders, registers, priority
// encoders) are built directly as gate instances, which the synthesis
// stage then sizes and cleans up.
//
// All generators instantiate X1 cells by conventional name ("NAND2_X1");
// gate sizing is the synthesis stage's job.
#pragma once

#include <string>
#include <vector>

#include "netlist/netlist.hpp"

namespace limsynth::netlist {

/// Naming helper: generators prefix their instances so hierarchies stay
/// readable in reports ("dec0/and3").
class Builder {
 public:
  Builder(Netlist& nl, std::string prefix)
      : nl_(nl), prefix_(std::move(prefix)) {}

  Netlist& nl() { return nl_; }

  // --- leaf gates (return the output net) ---
  NetId inv(NetId a);
  NetId buf(NetId a);
  NetId nand2(NetId a, NetId b);
  NetId and2(NetId a, NetId b);
  NetId or2(NetId a, NetId b);
  NetId xor2(NetId a, NetId b);
  NetId xnor2(NetId a, NetId b);
  NetId mux2(NetId a, NetId b, NetId sel);  // sel ? b : a
  NetId tie0();
  NetId tie1();

  // --- trees ---
  NetId and_tree(std::vector<NetId> xs);

  // --- blocks ---
  /// Full decoder: n address bits -> 2^n one-hot outputs. When `enable`
  /// is given it is folded into the high-half predecode, so a disabled
  /// decoder keeps its outputs (and most internal nodes) quiet — the
  /// bank-gating idiom of the paper's partitioned SRAMs.
  std::vector<NetId> decoder(const std::vector<NetId>& addr,
                             NetId enable = kNoNet);


  /// Unsigned less-than comparator: out = (a < b). Ripple from the MSB.
  NetId less_than(const std::vector<NetId>& a, const std::vector<NetId>& b);

  /// Priority encoder: grants[i] = reqs[i] & !reqs[0..i-1]; also returns
  /// `any` (OR of all requests) through the out-param when non-null.
  std::vector<NetId> priority(const std::vector<NetId>& reqs,
                              NetId* any = nullptr);

  /// Ripple-carry adder; returns sum bits, plus carry-out via out-param.
  std::vector<NetId> add(const std::vector<NetId>& a,
                         const std::vector<NetId>& b, NetId cin,
                         NetId* cout = nullptr);

  /// Unsigned array multiplier: |a| x |b| -> |a|+|b| product bits.
  std::vector<NetId> multiply(const std::vector<NetId>& a,
                              const std::vector<NetId>& b);

  /// Register bank: q[i] <= d[i] at clk (with optional enable).
  std::vector<NetId> registers(const std::vector<NetId>& d, NetId clk,
                               NetId en = kNoNet);

  /// N-to-1 one-hot mux: out = OR(and(sel[i], in[i])).
  NetId onehot_mux(const std::vector<NetId>& sel,
                   const std::vector<NetId>& in);

  int instances_created() const { return counter_; }

 private:
  NetId unary(const char* cell, NetId a);
  NetId binary(const char* cell, NetId a, NetId b);
  std::string iname(const char* stem);
  struct FullAdd {
    NetId sum;
    NetId carry;
  };
  FullAdd full_adder(NetId a, NetId b, NetId c);

  Netlist& nl_;
  std::string prefix_;
  int counter_ = 0;
};

}  // namespace limsynth::netlist
