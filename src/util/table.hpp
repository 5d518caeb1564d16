// Aligned console table writer used by benches and examples to print
// paper-style tables.
#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace limsynth {

/// Accumulates rows of strings and renders them as an aligned ASCII table.
///
///   Table t({"config", "delay", "energy"});
///   t.add_row({"A", "247 ps", "0.54 pJ"});
///   t.print(std::cout);
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Adds a data row; must have the same arity as the header.
  void add_row(std::vector<std::string> cells);

  /// Adds a horizontal separator line at the current position.
  void add_separator();

  /// Renders the table. Columns are left-aligned for the first column and
  /// right-aligned otherwise (numeric convention).
  void print(std::ostream& os) const;

 private:
  struct Row {
    bool separator = false;
    std::vector<std::string> cells;
  };
  std::vector<std::string> header_;
  std::vector<Row> rows_;
};

/// printf-style formatting into std::string.
std::string strformat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace limsynth
