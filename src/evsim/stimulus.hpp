// Stimulus file parsing for `limsynth simulate` replay.
//
// A stimulus file is a line-oriented text format describing per-cycle
// primary-input changes, replayed verbatim on either simulation engine
// through evsim::StimulusTrace:
//
//   # comments and blank lines are ignored
//   cycle 0          # open cycle 0 (cycle numbers strictly increase)
//   set wen 1        # scalar net by name, value 0 or 1
//   bus wdata 0x2a   # bus by base name (nets base[0..w)), hex or decimal
//   cycle 5
//   set wen 0
//
// The parser is hardened against malformed and adversarial input: every
// token is bounds-checked and every failure throws a typed
// limsynth::Error (kInvalidConfig for bad content, kIo for unreadable
// files) naming the line number — never UB, never a crash, never an
// unbounded allocation from a hostile cycle count or line length.
#pragma once

#include <iosfwd>
#include <string>

#include "evsim/crosscheck.hpp"
#include "netlist/netlist.hpp"

namespace limsynth::evsim {

/// Longest accepted line; longer input is rejected (kInvalidConfig), not
/// buffered — a 10 GB line must not become a 10 GB string.
inline constexpr std::size_t kMaxStimulusLineBytes = 4096;
/// Highest accepted cycle number: `cycle 9999999999` would otherwise
/// allocate a trace entry per cycle up to it.
inline constexpr std::uint64_t kMaxStimulusCycle = 1u << 20;
/// Widest accepted bus (values are carried in a uint64_t).
inline constexpr std::size_t kMaxStimulusBusBits = 64;

/// Parses a stimulus stream against `nl` (net names must resolve).
/// Throws Error(kInvalidConfig) with the offending line number on any
/// malformed directive, unknown net, out-of-range value or cycle.
StimulusTrace parse_stimulus(std::istream& in, const netlist::Netlist& nl);

/// Opens and parses `path`; Error(kIo) when the file cannot be read.
StimulusTrace load_stimulus(const std::string& path,
                            const netlist::Netlist& nl);

}  // namespace limsynth::evsim
