#include "liberty/writer.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <ostream>
#include <sstream>

#include "util/error.hpp"

namespace limsynth::liberty {

namespace {

/// Writes `v` as the shortest decimal that reads back to the same double.
void put(std::ostream& os, double v) {
  if (!std::isfinite(v))
    LIMS_FAIL(ErrorCode::kInvalidConfig,
              "liberty write: non-finite value " << v);
  char buf[32];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof buf, v);
  os.write(buf, r.ptr - buf);
}

const char* flag(bool b) { return b ? "true" : "false"; }

void write_list(std::ostream& os, const char* key,
                const std::vector<double>& v) {
  os << "          " << key << " (\"";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) os << ", ";
    put(os, v[i]);
  }
  os << "\");\n";
}

void write_lut(std::ostream& os, const char* group, const Lut2D& lut) {
  os << "        " << group << " (lut_" << lut.slew_axis().size() << 'x'
     << lut.load_axis().size() << ") {\n";
  write_list(os, "index_1", lut.slew_axis());
  write_list(os, "index_2", lut.load_axis());
  write_list(os, "values", lut.values());
  os << "        }\n";
}

void write_attr(std::ostream& os, const char* indent, const char* key,
                double v) {
  os << indent << key << " : ";
  put(os, v);
  os << ";\n";
}

/// Position of the pin named `name` in `pins`, or pins.size().
std::size_t pin_index(const std::vector<PinModel>& pins,
                      const std::string& name) {
  std::size_t i = 0;
  while (i < pins.size() && pins[i].name != name) ++i;
  return i;
}

/// The text nests arcs under their output pin and constraints under their
/// input pin, and names the clock pin only on sequential cells. Rejects a
/// cell that this nesting would not reproduce field for field.
void check_writable(const LibCell& cell) {
  const auto reject = [&](const std::string& why) {
    LIMS_FAIL(ErrorCode::kInvalidConfig,
              "liberty write: cell " << cell.name << " " << why);
  };
  if (cell.sequential == cell.clock_pin.empty())
    reject("must name a clock pin exactly when it is sequential");
  std::size_t last = 0;
  for (const TimingArc& arc : cell.arcs) {
    const std::size_t at = pin_index(cell.outputs, arc.to);
    if (at == cell.outputs.size() || at < last)
      reject("lists its arcs out of output-pin order");
    last = at;
  }
  std::size_t next = 0;
  for (const Constraint& con : cell.constraints) {
    const std::size_t at = pin_index(cell.inputs, con.pin);
    if (at == cell.inputs.size() || at < next)
      reject("lists its constraints out of input-pin order");
    next = at + 1;
  }
}

}  // namespace

void write_liberty(const Library& lib, std::ostream& os) {
  os << "/* limsynth generated library. SI units: time s, capacitance F,"
        " energy J, power W, length m, area m2 */\n";
  os << "library (" << lib.name() << ") {\n";
  for (const auto& cell : lib.cells()) {
    check_writable(cell);
    os << "  cell (" << cell.name << ") {\n";
    write_attr(os, "    ", "area", cell.area);
    write_attr(os, "    ", "width", cell.width);
    write_attr(os, "    ", "height", cell.height);
    write_attr(os, "    ", "cell_leakage_power", cell.leakage);
    os << "    is_macro : " << flag(cell.is_macro) << ";\n";
    if (cell.sequential) os << "    clock_pin : " << cell.clock_pin << ";\n";
    write_attr(os, "    ", "clock_energy", cell.clock_energy);
    for (const auto& pin : cell.inputs) {
      os << "    pin (" << pin.name << ") {\n";
      os << "      direction : input;\n";
      write_attr(os, "      ", "capacitance", pin.cap);
      os << "      clock : " << flag(pin.is_clock) << ";\n";
      if (const Constraint* con = cell.find_constraint(pin.name)) {
        write_attr(os, "      ", "setup", con->setup);
        write_attr(os, "      ", "hold", con->hold);
      }
      os << "    }\n";
    }
    for (const auto& pin : cell.outputs) {
      os << "    pin (" << pin.name << ") {\n";
      os << "      direction : output;\n";
      write_attr(os, "      ", "capacitance", pin.cap);
      os << "      clock : " << flag(pin.is_clock) << ";\n";
      for (const auto& arc : cell.arcs) {
        if (arc.to != pin.name) continue;
        os << "      timing () {\n";
        os << "        related_pin : \"" << arc.from << "\";\n";
        write_lut(os, "cell_delay", arc.delay);
        write_lut(os, "output_slew", arc.out_slew);
        write_lut(os, "energy", arc.energy);
        os << "      }\n";
      }
      os << "    }\n";
    }
    os << "  }\n";
  }
  os << "}\n";
}

std::string to_liberty_string(const Library& lib) {
  std::ostringstream os;
  write_liberty(lib, os);
  return os.str();
}

// ------------------------------------------------------------------ parser

namespace {

/// Recursive descent over the writer's subset. Every rejection is an
/// Error(kInvalidConfig) naming the line it was found on.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Library parse() {
    expect_word("library");
    Library lib(group_name());
    expect('{');
    while (!at('}')) {
      expect_word("cell");
      std::string name = group_name();
      if (lib.find(name) != nullptr) fail("duplicate cell '" + name + "'");
      lib.add(parse_cell(std::move(name)));
    }
    expect('}');
    skip_ws();
    if (pos_ != text_.size()) fail("trailing text after the library group");
    return lib;
  }

 private:
  LibCell parse_cell(std::string name) {
    LibCell cell;
    cell.name = std::move(name);
    expect('{');
    while (!at('}')) {
      const std::string key = token();
      if (key == "pin") {
        parse_pin(cell);
        continue;
      }
      expect(':');
      const std::string value = token();
      if (key == "area") cell.area = number(value);
      else if (key == "width") cell.width = number(value);
      else if (key == "height") cell.height = number(value);
      else if (key == "cell_leakage_power") cell.leakage = number(value);
      else if (key == "is_macro") cell.is_macro = flag(value);
      else if (key == "clock_pin") { cell.sequential = true; cell.clock_pin = value; }
      else if (key == "clock_energy") cell.clock_energy = number(value);
      else fail("unknown cell attribute '" + key + "'");
      expect(';');
    }
    if (cell.sequential && cell.find_input(cell.clock_pin) == nullptr)
      fail("clock pin '" + cell.clock_pin + "' is not an input of cell " +
           cell.name);
    for (const TimingArc& arc : cell.arcs)
      if (cell.find_input(arc.from) == nullptr)
        fail("timing arc from '" + arc.from + "' is not an input of cell " +
             cell.name);
    expect('}');
    return cell;
  }

  void parse_pin(LibCell& cell) {
    PinModel pin;
    pin.name = group_name();
    if (cell.find_input(pin.name) != nullptr ||
        cell.find_output(pin.name) != nullptr)
      fail("duplicate pin '" + pin.name + "' in cell " + cell.name);
    expect('{');
    std::string direction;
    bool has_setup = false, has_hold = false;
    Constraint con{pin.name};
    std::vector<TimingArc> arcs;
    while (!at('}')) {
      const std::string key = token();
      if (key == "timing") {
        expect('(');
        expect(')');
        arcs.push_back(parse_timing(pin.name));
        continue;
      }
      expect(':');
      const std::string value = token();
      if (key == "direction") {
        if (value != "input" && value != "output")
          fail("direction must be input or output, not '" + value + "'");
        direction = value;
      } else if (key == "capacitance") {
        pin.cap = number(value);
      } else if (key == "clock") {
        pin.is_clock = flag(value);
      } else if (key == "setup") {
        con.setup = number(value);
        has_setup = true;
      } else if (key == "hold") {
        con.hold = number(value);
        has_hold = true;
      } else {
        fail("unknown pin attribute '" + key + "'");
      }
      expect(';');
    }
    if (direction.empty()) fail("pin '" + pin.name + "' has no direction");
    if (has_setup != has_hold)
      fail("pin '" + pin.name + "' needs both setup and hold, or neither");
    if (direction == "input") {
      if (!arcs.empty()) fail("input pin '" + pin.name + "' has timing");
      cell.inputs.push_back(pin);
      if (has_setup) cell.constraints.push_back(con);
    } else {
      if (has_setup) fail("output pin '" + pin.name + "' has setup/hold");
      cell.outputs.push_back(pin);
      for (auto& a : arcs) cell.arcs.push_back(std::move(a));
    }
    expect('}');
  }

  TimingArc parse_timing(const std::string& out_pin) {
    TimingArc arc;
    arc.to = out_pin;
    expect('{');
    while (!at('}')) {
      const std::string key = token();
      if (key == "related_pin") {
        expect(':');
        expect('"');
        arc.from = token();
        expect('"');
        expect(';');
        continue;
      }
      Lut2D* lut = key == "cell_delay"    ? &arc.delay
                   : key == "output_slew" ? &arc.out_slew
                   : key == "energy"      ? &arc.energy
                                          : nullptr;
      if (lut == nullptr) fail("unknown timing attribute '" + key + "'");
      if (!lut->empty()) fail("duplicate " + key + " table");
      *lut = parse_lut();
    }
    if (arc.from.empty()) fail("timing group without related_pin");
    if (arc.delay.empty() || arc.out_slew.empty() || arc.energy.empty())
      fail("timing group needs cell_delay, output_slew and energy tables");
    expect('}');
    return arc;
  }

  Lut2D parse_lut() {
    group_name();  // table template name, not used
    expect('{');
    std::vector<double> lists[3];  // index_1 (slew), index_2 (load), values
    while (!at('}')) {
      const std::string key = token();
      const int k = key == "index_1" ? 0
                    : key == "index_2" ? 1
                    : key == "values"  ? 2
                                       : -1;
      if (k < 0) fail("unknown table attribute '" + key + "'");
      if (!lists[k].empty()) fail("duplicate " + key);
      expect('(');
      expect('"');
      do lists[k].push_back(number(token()));
      while (accept(','));
      expect('"');
      expect(')');
      expect(';');
    }
    for (int k = 0; k < 2; ++k) {
      const std::vector<double>& axis = lists[k];
      if (axis.size() < 2) fail("table axis needs at least two points");
      for (std::size_t i = 1; i < axis.size(); ++i)
        if (!(axis[i - 1] < axis[i])) fail("table axis is not increasing");
    }
    if (lists[2].size() != lists[0].size() * lists[1].size())
      fail("table has " + std::to_string(lists[2].size()) + " values for a " +
           std::to_string(lists[0].size()) + "x" +
           std::to_string(lists[1].size()) + " grid");
    expect('}');
    return Lut2D(std::move(lists[0]), std::move(lists[1]),
                 std::move(lists[2]));
  }

  // --- lexing ---
  static bool token_char(char ch) {
    return std::isalnum(static_cast<unsigned char>(ch)) || ch == '_' ||
           ch == '.' || ch == '+' || ch == '-';
  }
  double number(const std::string& tok) {
    double v = 0.0;
    const char* end = tok.data() + tok.size();
    const std::from_chars_result r = std::from_chars(tok.data(), end, v);
    if (r.ec != std::errc() || r.ptr != end || !std::isfinite(v))
      fail("bad number '" + tok + "'");
    return v;
  }
  bool flag(const std::string& tok) {
    if (tok != "true" && tok != "false")
      fail("flag must be true or false, not '" + tok + "'");
    return tok == "true";
  }
  void skip_ws() {
    while (pos_ < text_.size()) {
      const char ch = text_[pos_];
      if (ch == ' ' || ch == '\t' || ch == '\n' || ch == '\r') {
        if (ch == '\n') ++line_;
        ++pos_;
      } else if (text_.compare(pos_, 2, "/*") == 0) {
        const std::size_t end = text_.find("*/", pos_ + 2);
        if (end == std::string::npos) fail("unterminated comment");
        for (std::size_t i = pos_; i < end; ++i)
          if (text_[i] == '\n') ++line_;
        pos_ = end + 2;
      } else {
        break;
      }
    }
  }
  /// Skips blanks and reports whether the next character is `ch`; the end
  /// of the text is an error wherever a next character is required.
  bool at(char ch) {
    skip_ws();
    if (pos_ == text_.size()) fail("unexpected end of input");
    return text_[pos_] == ch;
  }
  bool accept(char ch) {
    skip_ws();
    if (pos_ == text_.size() || text_[pos_] != ch) return false;
    ++pos_;
    return true;
  }
  void expect(char ch) {
    if (!at(ch))
      fail(std::string("expected '") + ch + "', found '" + text_[pos_] + "'");
    ++pos_;
  }
  /// A name, keyword or number: a maximal run of [A-Za-z0-9_.+-].
  std::string token() {
    skip_ws();
    const std::size_t start = pos_;
    while (pos_ < text_.size() && token_char(text_[pos_])) ++pos_;
    if (pos_ == start) {
      if (pos_ == text_.size()) fail("unexpected end of input");
      fail(std::string("expected a name or number, found '") + text_[pos_] +
           "'");
    }
    return text_.substr(start, pos_ - start);
  }
  void expect_word(const std::string& word) {
    const std::string got = token();
    if (got != word) fail("expected '" + word + "', found '" + got + "'");
  }
  std::string group_name() {
    expect('(');
    std::string name = token();
    expect(')');
    return name;
  }
  [[noreturn]] void fail(const std::string& msg) {
    LIMS_FAIL(ErrorCode::kInvalidConfig,
              "liberty parse error (line " << line_ << "): " << msg);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int line_ = 1;
};

}  // namespace

Library parse_liberty(const std::string& text) { return Parser(text).parse(); }

}  // namespace limsynth::liberty
