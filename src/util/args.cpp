#include "util/args.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <type_traits>

#include "util/error.hpp"

namespace limsynth::args {

namespace {

bool is_flag(std::string_view name) { return name.starts_with("--"); }

/// The whole token as a T: no partial parse, no overflow, no sign on an
/// unsigned T, no non-finite double.
template <class T>
std::optional<T> number(std::string_view s) {
  T v{};
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || end != s.data() + s.size()) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(v)) return std::nullopt;
  }
  return v;
}

/// Position of `word` in the '|'-separated `words`, or -1.
int word_index(std::string_view words, std::string_view word) {
  for (int index = 0;; ++index) {
    const std::size_t bar = words.find('|');
    if (words.substr(0, bar) == word) return index;
    if (bar == std::string_view::npos) return -1;
    words.remove_prefix(bar + 1);
  }
}

/// What a value of `arg` must be when `token` is not one, else "".
std::string unmet(const Arg& arg, std::string_view token) {
  switch (arg.type) {
    case Type::kInt: return number<int>(token) ? "" : "an int";
    case Type::kU64: return number<std::uint64_t>(token) ? "" : "a uint64";
    case Type::kDouble: return number<double>(token) ? "" : "a finite double";
    case Type::kWord:
      return word_index(arg.meta, token) >= 0 ? "" : "one of " + arg.meta;
    default: return "";
  }
}

std::string label(const Arg& arg) {
  return is_flag(arg.name) ? arg.name : "<" + arg.name + ">";
}

std::string usage_token(const Arg& arg) {
  if (is_flag(arg.name))
    return "[" + arg.name + (arg.meta.empty() ? "" : " " + arg.meta) + "]";
  const std::string& shown = arg.type == Type::kWord ? arg.meta : arg.name;
  return arg.optional ? "[" + shown + "]" : "<" + shown + ">";
}

/// `line` followed by the usage tokens of `decls`, wrapped before column
/// 78 with a six-space continuation indent.
std::string wrapped(std::string line, std::span<const Arg> decls) {
  const std::string indent = "     ";  // plus the joining space
  std::string out;
  for (const Arg& arg : decls) {
    const std::string token = usage_token(arg);
    if (line.size() + 1 + token.size() > 78 && line != indent) {
      out += line + "\n";
      line = indent;
    }
    line += " " + token;
  }
  return out + line + "\n";
}

}  // namespace

Args parse(const Command& cmd, int argc, const char* const* argv,
           std::span<const Arg> globals) {
  Args a;
  a.command_ = cmd.name;
  a.decls_ = cmd.args;
  a.decls_.insert(a.decls_.end(), globals.begin(), globals.end());
  a.values_.resize(a.decls_.size());
  const auto fail = [&](const std::string& what) {
    throw Error(ErrorCode::kInvalidConfig, cmd.name + ": " + what);
  };

  std::size_t next_positional = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    std::size_t d = 0;
    if (is_flag(token)) {
      while (d < a.decls_.size() && a.decls_[d].name != token) ++d;
      if (d == a.decls_.size()) fail("unknown flag " + token);
      if (a.values_[d]) fail("duplicate flag " + token);
      if (a.decls_[d].type == Type::kSwitch) {
        a.values_[d].emplace();
        continue;
      }
      if (i + 1 == argc || is_flag(argv[i + 1]))
        fail(token + " needs a value (" + a.decls_[d].meta + ")");
      a.values_[d] = argv[++i];
    } else {
      while (next_positional < a.decls_.size() &&
             is_flag(a.decls_[next_positional].name))
        ++next_positional;
      if (next_positional == a.decls_.size())
        fail("unexpected positional '" + token + "'");
      d = next_positional++;
      a.values_[d] = token;
    }
    const std::string want = unmet(a.decls_[d], *a.values_[d]);
    if (!want.empty())
      fail(label(a.decls_[d]) + ": '" + *a.values_[d] + "' is not " + want);
  }
  for (std::size_t d = 0; d < a.decls_.size(); ++d)
    if (!is_flag(a.decls_[d].name) && !a.decls_[d].optional && !a.values_[d])
      fail("missing " + label(a.decls_[d]));
  return a;
}

Args parse_or_exit(const Command& cmd, int argc, const char* const* argv) {
  try {
    return parse(cmd, argc, argv);
  } catch (const Error& e) {
    std::fprintf(stderr, "error [%s]: %s\n", error_code_name(e.code()),
                 e.what());
    std::exit(exit_code_for(e.code()));
  }
}

std::string usage(std::string_view program, std::span<const Command> commands,
                  std::span<const Arg> globals) {
  std::string out = "usage:\n";
  for (const Command& cmd : commands)
    out += wrapped("  " + std::string(program) + " " + cmd.name, cmd.args);
  if (!globals.empty()) out += wrapped("every command also takes", globals);
  return out;
}

std::size_t Args::index(std::string_view name) const {
  std::size_t d = 0;
  while (d < decls_.size() && decls_[d].name != name) ++d;
  LIMS_CHECK_MSG(d < decls_.size(), command_ << " declares no " << name);
  return d;
}

const std::optional<std::string>& Args::value(std::string_view name,
                                              Type type) const {
  const std::size_t d = index(name);
  LIMS_CHECK_MSG(decls_[d].type == type,
                 command_ << " declares " << name << " with another type");
  return values_[d];
}

bool Args::has(std::string_view name) const {
  return values_[index(name)].has_value();
}

int Args::get_int(std::string_view name, int fallback) const {
  const auto& v = value(name, Type::kInt);
  return v ? *number<int>(*v) : fallback;
}

std::uint64_t Args::get_u64(std::string_view name,
                            std::uint64_t fallback) const {
  const auto& v = value(name, Type::kU64);
  return v ? *number<std::uint64_t>(*v) : fallback;
}

double Args::get_double(std::string_view name, double fallback) const {
  const auto& v = value(name, Type::kDouble);
  return v ? *number<double>(*v) : fallback;
}

std::string Args::get_string(std::string_view name,
                             std::string fallback) const {
  const auto& v = value(name, Type::kString);
  return v ? *v : fallback;
}

int Args::get_choice(std::string_view name, int fallback) const {
  const auto& v = value(name, Type::kWord);
  return v ? word_index(decls_[index(name)].meta, *v) : fallback;
}

}  // namespace limsynth::args
