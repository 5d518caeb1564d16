// Declarative argv parsing, the only reader of command lines in limsynth.
//
// A command declares its positionals and flags in one table; parse()
// checks a command line against it, the typed getters read the result,
// and usage() prints the tables. Every bad command line is an
// ErrorCode::kInvalidConfig (exit 2) naming the command, the flag and the
// offending token: an unknown or duplicate flag, a value flag without a
// value, a value that is not entirely a number of the flag's type, too
// few or too many positionals, or a word outside a positional's list.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace limsynth::args {

enum class Type {
  kSwitch,  ///< flag without a value
  kInt,     ///< decimal int; fractions and out-of-range values rejected
  kU64,     ///< decimal uint64, exact over the full range; no sign
  kDouble,  ///< finite decimal double
  kString,  ///< any token
  kWord,    ///< positionals only: one of the '|'-separated words in meta
};

/// A name starting with "--" declares a flag, any other name a positional
/// (matched in declaration order; optional ones come last).
struct Arg {
  std::string name;
  Type type = Type::kSwitch;
  std::string meta = {};  ///< flag metavariable ("N") or kWord's word list
  bool optional = false;  ///< positionals only
};

struct Command {
  std::string name;
  std::vector<Arg> args;
};

/// A parsed command line. Getters take a declared name ("--jobs",
/// "words") and return `fallback` when it was not given; reading an
/// undeclared name or with the wrong type fails a LIMS_CHECK.
class Args {
 public:
  bool has(std::string_view name) const;
  int get_int(std::string_view name, int fallback = 0) const;
  std::uint64_t get_u64(std::string_view name,
                        std::uint64_t fallback = 0) const;
  double get_double(std::string_view name, double fallback = 0.0) const;
  std::string get_string(std::string_view name,
                         std::string fallback = {}) const;
  /// Index of a kWord positional's word in its list.
  int get_choice(std::string_view name, int fallback = 0) const;

 private:
  friend Args parse(const Command&, int, const char* const*,
                    std::span<const Arg>);
  std::size_t index(std::string_view name) const;
  const std::optional<std::string>& value(std::string_view name,
                                          Type type) const;

  std::string command_;
  std::vector<Arg> decls_;
  std::vector<std::optional<std::string>> values_;  // parallel to decls_
};

/// Parses argv[1..argc) against `cmd` plus the `globals` every command of
/// a program accepts; argv[0] is skipped.
Args parse(const Command& cmd, int argc, const char* const* argv,
           std::span<const Arg> globals = {});

/// parse() for a main without an error handler: a rejected command line
/// prints "error [invalid_config]: <message>" and exits 2.
Args parse_or_exit(const Command& cmd, int argc, const char* const* argv);

/// "usage:" and one wrapped line per command, then the globals.
std::string usage(std::string_view program, std::span<const Command> commands,
                  std::span<const Arg> globals = {});

}  // namespace limsynth::args
