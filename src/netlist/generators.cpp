#include "netlist/generators.hpp"

namespace limsynth::netlist {

std::string Builder::iname(const char* stem) {
  return prefix_ + "/" + stem + std::to_string(counter_++);
}

NetId Builder::unary(const char* cell, NetId a) {
  const NetId y = nl_.make_net();
  nl_.add_instance(iname(cell), std::string(cell) + "_X1",
                   {{"A", a}, {"Y", y}});
  return y;
}

NetId Builder::binary(const char* cell, NetId a, NetId b) {
  const NetId y = nl_.make_net();
  nl_.add_instance(iname(cell), std::string(cell) + "_X1",
                   {{"A", a}, {"B", b}, {"Y", y}});
  return y;
}

NetId Builder::inv(NetId a) { return unary("INV", a); }
NetId Builder::buf(NetId a) { return unary("BUF", a); }
NetId Builder::nand2(NetId a, NetId b) { return binary("NAND2", a, b); }
NetId Builder::and2(NetId a, NetId b) { return binary("AND2", a, b); }
NetId Builder::or2(NetId a, NetId b) { return binary("OR2", a, b); }
NetId Builder::xor2(NetId a, NetId b) { return binary("XOR2", a, b); }
NetId Builder::xnor2(NetId a, NetId b) { return binary("XNOR2", a, b); }

NetId Builder::mux2(NetId a, NetId b, NetId sel) {
  const NetId y = nl_.make_net();
  nl_.add_instance(iname("MUX2"), "MUX2_X1",
                   {{"A", a}, {"B", b}, {"C", sel}, {"Y", y}});
  return y;
}

NetId Builder::tie0() {
  const NetId y = nl_.make_net();
  nl_.add_instance(iname("TIE0"), "TIE0_X1", {{"Y", y}});
  return y;
}

NetId Builder::tie1() {
  const NetId y = nl_.make_net();
  nl_.add_instance(iname("TIE1"), "TIE1_X1", {{"Y", y}});
  return y;
}

NetId Builder::and_tree(std::vector<NetId> xs) {
  LIMS_CHECK(!xs.empty());
  while (xs.size() > 1) {
    std::vector<NetId> next;
    for (std::size_t i = 0; i + 1 < xs.size(); i += 2)
      next.push_back(and2(xs[i], xs[i + 1]));
    if (xs.size() % 2) next.push_back(xs.back());
    xs = std::move(next);
  }
  return xs[0];
}

std::vector<NetId> Builder::decoder(const std::vector<NetId>& addr,
                                    NetId enable) {
  LIMS_CHECK(!addr.empty() && addr.size() <= 10);
  const std::size_t n = addr.size();

  // Small decoders: direct minterm trees. The enable joins at the root so
  // it arrives in parallel with the address tree (one level of latency for
  // the late-arriving enable, not the full tree depth).
  if (n <= 3) {
    std::vector<NetId> addr_bar;
    addr_bar.reserve(n);
    for (NetId a : addr) addr_bar.push_back(inv(a));
    const std::size_t outputs = std::size_t{1} << n;
    std::vector<NetId> onehot;
    onehot.reserve(outputs);
    for (std::size_t code = 0; code < outputs; ++code) {
      std::vector<NetId> terms;
      terms.reserve(n);
      for (std::size_t bit = 0; bit < n; ++bit)
        terms.push_back((code >> bit) & 1 ? addr[bit] : addr_bar[bit]);
      NetId hot = and_tree(std::move(terms));
      if (enable != kNoNet) hot = and2(hot, enable);
      onehot.push_back(hot);
    }
    return onehot;
  }

  // Predecoding: split the address, decode the halves, AND the one-hots.
  // Cuts gate count from O(n * 2^n) to O(2^n) — standard decoder practice.
  // The enable rides on the (smaller) high half, quieting the final ANDs.
  const std::size_t lo_bits = n / 2;
  const std::vector<NetId> lo(addr.begin(),
                              addr.begin() + static_cast<long>(lo_bits));
  const std::vector<NetId> hi(addr.begin() + static_cast<long>(lo_bits),
                              addr.end());
  const std::vector<NetId> lo_hot = decoder(lo);
  const std::vector<NetId> hi_hot = decoder(hi, enable);
  std::vector<NetId> onehot;
  onehot.reserve(std::size_t{1} << n);
  for (std::size_t h = 0; h < hi_hot.size(); ++h)
    for (std::size_t l = 0; l < lo_hot.size(); ++l)
      onehot.push_back(and2(hi_hot[h], lo_hot[l]));
  return onehot;
}

NetId Builder::less_than(const std::vector<NetId>& a,
                         const std::vector<NetId>& b) {
  LIMS_CHECK(a.size() == b.size() && !a.empty());
  // From the MSB down: lt when a_i=0, b_i=1 and all higher bits equal.
  NetId lt = kNoNet;
  NetId eq_above = kNoNet;
  for (std::size_t i = a.size(); i-- > 0;) {
    const NetId bit_lt = and2(inv(a[i]), b[i]);
    const NetId bit_eq = xnor2(a[i], b[i]);
    if (lt == kNoNet) {
      lt = bit_lt;
      eq_above = bit_eq;
    } else {
      lt = or2(lt, and2(eq_above, bit_lt));
      eq_above = and2(eq_above, bit_eq);
    }
  }
  return lt;
}

std::vector<NetId> Builder::priority(const std::vector<NetId>& reqs,
                                     NetId* any) {
  LIMS_CHECK(!reqs.empty());
  std::vector<NetId> grants;
  grants.reserve(reqs.size());
  NetId blocked = kNoNet;  // OR of all earlier requests
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (i == 0) {
      grants.push_back(buf(reqs[0]));
      blocked = reqs[0];
    } else {
      grants.push_back(and2(reqs[i], inv(blocked)));
      blocked = or2(blocked, reqs[i]);
    }
  }
  if (any != nullptr) *any = blocked;
  return grants;
}

Builder::FullAdd Builder::full_adder(NetId a, NetId b, NetId c) {
  const NetId axb = xor2(a, b);
  FullAdd fa;
  fa.sum = xor2(axb, c);
  fa.carry = or2(and2(a, b), and2(axb, c));
  return fa;
}

std::vector<NetId> Builder::add(const std::vector<NetId>& a,
                                const std::vector<NetId>& b, NetId cin,
                                NetId* cout) {
  LIMS_CHECK(a.size() == b.size() && !a.empty());
  std::vector<NetId> sum;
  sum.reserve(a.size());
  NetId carry = (cin == kNoNet) ? tie0() : cin;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const FullAdd fa = full_adder(a[i], b[i], carry);
    sum.push_back(fa.sum);
    carry = fa.carry;
  }
  if (cout != nullptr) *cout = carry;
  return sum;
}

std::vector<NetId> Builder::multiply(const std::vector<NetId>& a,
                                     const std::vector<NetId>& b) {
  LIMS_CHECK(!a.empty() && !b.empty());
  const std::size_t n = a.size(), m = b.size();
  // Partial-product accumulation, row by row.
  std::vector<NetId> acc;  // current partial sum, LSB first
  for (std::size_t j = 0; j < m; ++j) {
    std::vector<NetId> row;
    row.reserve(n);
    for (std::size_t i = 0; i < n; ++i) row.push_back(and2(a[i], b[j]));
    if (j == 0) {
      acc = std::move(row);
    } else {
      // acc[j..] += row (row is shifted left by j).
      NetId carry = tie0();
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t pos = i + j;
        if (pos < acc.size()) {
          const FullAdd fa = full_adder(acc[pos], row[i], carry);
          acc[pos] = fa.sum;
          carry = fa.carry;
        } else {
          const FullAdd fa = full_adder(row[i], tie0(), carry);
          acc.push_back(fa.sum);
          carry = fa.carry;
        }
      }
      acc.push_back(buf(carry));
    }
  }
  acc.resize(n + m, acc.empty() ? tie0() : acc.back());
  return acc;
}

std::vector<NetId> Builder::registers(const std::vector<NetId>& d, NetId clk,
                                      NetId en) {
  LIMS_CHECK(!d.empty());
  std::vector<NetId> q;
  q.reserve(d.size());
  for (NetId di : d) {
    const NetId qi = nl_.make_net();
    if (en == kNoNet) {
      nl_.add_instance(iname("DFF"), "DFF_X1",
                       {{"D", di}, {"CK", clk}, {"Q", qi}});
    } else {
      nl_.add_instance(iname("DFFE"), "DFFE_X1",
                       {{"D", di}, {"EN", en}, {"CK", clk}, {"Q", qi}});
    }
    q.push_back(qi);
  }
  return q;
}

NetId Builder::onehot_mux(const std::vector<NetId>& sel,
                          const std::vector<NetId>& in) {
  LIMS_CHECK(sel.size() == in.size() && !sel.empty());
  // NAND2 / NAND-collect form: OR of ANDs in two levels for <= 4 ways.
  std::vector<NetId> terms;
  terms.reserve(sel.size());
  for (std::size_t i = 0; i < sel.size(); ++i)
    terms.push_back(nand2(sel[i], in[i]));
  while (terms.size() > 1) {
    std::vector<NetId> next;
    for (std::size_t i = 0; i < terms.size(); i += 4) {
      const std::size_t n = std::min<std::size_t>(4, terms.size() - i);
      if (n == 1) {
        next.push_back(inv(terms[i]));  // re-invert lone survivor
      } else {
        const NetId y = nl_.make_net();
        std::vector<Connection> conns;
        static const char* kPins[] = {"A", "B", "C", "D"};
        for (std::size_t k = 0; k < n; ++k)
          conns.push_back({kPins[k], terms[i + k]});
        conns.push_back({"Y", y});
        nl_.add_instance(iname("NANDN"),
                         n == 2 ? "NAND2_X1" : (n == 3 ? "NAND3_X1" : "NAND4_X1"),
                         std::move(conns));
        next.push_back(y);
      }
    }
    // NAND of NANDs == OR of ANDs; for deeper trees, alternate with
    // inverters to keep polarity.
    if (next.size() > 1)
      for (auto& t : next) t = inv(t);
    terms = std::move(next);
  }
  return terms[0];
}

}  // namespace limsynth::netlist
