#include "evsim/stimulus.hpp"

#include <fstream>
#include <istream>
#include <vector>

#include "util/error.hpp"

namespace limsynth::evsim {

namespace {

[[noreturn]] void fail_at(std::size_t line_no, const std::string& what) {
  LIMS_FAIL(ErrorCode::kInvalidConfig,
            "stimulus line " << line_no << ": " << what);
}

/// Splits on runs of spaces/tabs; a '#' ends the payload.
std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::string cur;
  for (const char c : line) {
    if (c == '#') break;
    if (c == ' ' || c == '\t' || c == '\r') {
      if (!cur.empty()) tokens.push_back(std::move(cur));
      cur.clear();
      continue;
    }
    cur += c;
  }
  if (!cur.empty()) tokens.push_back(std::move(cur));
  return tokens;
}

/// Strict unsigned parse (decimal, or hex with 0x prefix). No strtoull:
/// it accepts leading '-', skips whitespace, and saturates silently.
bool parse_u64(const std::string& s, std::uint64_t* out) {
  std::size_t i = 0;
  int base = 10;
  if (s.size() >= 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')) {
    base = 16;
    i = 2;
  }
  if (i >= s.size()) return false;
  std::uint64_t v = 0;
  for (; i < s.size(); ++i) {
    const char c = s[i];
    int digit;
    if (c >= '0' && c <= '9')
      digit = c - '0';
    else if (base == 16 && c >= 'a' && c <= 'f')
      digit = c - 'a' + 10;
    else if (base == 16 && c >= 'A' && c <= 'F')
      digit = c - 'A' + 10;
    else
      return false;
    if (digit >= base) return false;
    const std::uint64_t next = v * static_cast<std::uint64_t>(base) +
                               static_cast<std::uint64_t>(digit);
    if (next / static_cast<std::uint64_t>(base) != v) return false;  // overflow
    v = next;
  }
  *out = v;
  return true;
}

/// Reads one line with an explicit length cap. Returns false on EOF.
/// A line exceeding the cap is a hard parse error, not a truncation —
/// silently dropping bytes could turn `set a 10` into `set a 1`.
bool bounded_getline(std::istream& in, std::size_t cap, std::size_t line_no,
                     std::string* out) {
  out->clear();
  char c;
  bool any = false;
  while (in.get(c)) {
    any = true;
    if (c == '\n') return true;
    if (out->size() >= cap)
      fail_at(line_no, "line exceeds " + std::to_string(cap) + " bytes");
    *out += c;
  }
  return any;
}

}  // namespace

StimulusTrace parse_stimulus(std::istream& in, const netlist::Netlist& nl) {
  StimulusTrace trace;
  bool cycle_open = false;
  std::uint64_t cur_cycle = 0;
  std::string line;
  for (std::size_t line_no = 1;
       bounded_getline(in, kMaxStimulusLineBytes, line_no, &line);
       ++line_no) {
    const std::vector<std::string> tok = tokenize(line);
    if (tok.empty()) continue;

    if (tok[0] == "cycle") {
      if (tok.size() != 2)
        fail_at(line_no, "expected `cycle <n>`, got " +
                             std::to_string(tok.size() - 1) + " operand(s)");
      std::uint64_t n = 0;
      if (!parse_u64(tok[1], &n))
        fail_at(line_no, "bad cycle number `" + tok[1] + "`");
      if (n > kMaxStimulusCycle)
        fail_at(line_no, "cycle " + tok[1] + " exceeds the limit of " +
                             std::to_string(kMaxStimulusCycle));
      if (cycle_open && n <= cur_cycle)
        fail_at(line_no, "cycle numbers must strictly increase (" +
                             std::to_string(n) + " after " +
                             std::to_string(cur_cycle) + ")");
      cur_cycle = n;
      cycle_open = true;
      continue;
    }

    if (tok[0] == "set") {
      if (tok.size() != 3) fail_at(line_no, "expected `set <net> <0|1>`");
      if (!cycle_open) fail_at(line_no, "`set` before the first `cycle`");
      const netlist::NetId net = nl.find_net(tok[1]);
      if (net == netlist::kNoNet)
        fail_at(line_no, "unknown net `" + tok[1] + "`");
      if (tok[2] != "0" && tok[2] != "1")
        fail_at(line_no, "scalar value must be 0 or 1, got `" + tok[2] + "`");
      trace.set(static_cast<std::size_t>(cur_cycle), net, tok[2] == "1");
      continue;
    }

    if (tok[0] == "bus") {
      if (tok.size() != 3) fail_at(line_no, "expected `bus <base> <value>`");
      if (!cycle_open) fail_at(line_no, "`bus` before the first `cycle`");
      std::vector<netlist::NetId> bus;
      for (std::size_t i = 0; i <= kMaxStimulusBusBits; ++i) {
        const netlist::NetId bit =
            nl.find_net(tok[1] + "[" + std::to_string(i) + "]");
        if (bit == netlist::kNoNet) break;
        if (i == kMaxStimulusBusBits)
          fail_at(line_no, "bus `" + tok[1] + "` is wider than " +
                               std::to_string(kMaxStimulusBusBits) + " bits");
        bus.push_back(bit);
      }
      if (bus.empty())
        fail_at(line_no, "unknown bus `" + tok[1] + "` (no net `" + tok[1] +
                             "[0]`)");
      std::uint64_t value = 0;
      if (!parse_u64(tok[2], &value))
        fail_at(line_no, "bad bus value `" + tok[2] + "`");
      if (bus.size() < 64 && (value >> bus.size()) != 0)
        fail_at(line_no, "value `" + tok[2] + "` does not fit the " +
                             std::to_string(bus.size()) + "-bit bus `" +
                             tok[1] + "`");
      trace.set_bus(static_cast<std::size_t>(cur_cycle), bus, value);
      continue;
    }

    fail_at(line_no, "unknown directive `" + tok[0] + "`");
  }
  return trace;
}

StimulusTrace load_stimulus(const std::string& path,
                            const netlist::Netlist& nl) {
  std::ifstream in(path, std::ios::binary);
  if (!in)
    LIMS_FAIL(ErrorCode::kIo, "cannot read stimulus file: " << path);
  DIAG_CONTEXT("parse stimulus " + path);
  return parse_stimulus(in, nl);
}

}  // namespace limsynth::evsim
