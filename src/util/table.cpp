#include "util/table.hpp"

#include <cstdarg>
#include <cstdio>

#include "util/error.hpp"

namespace limsynth {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  LIMS_CHECK(!header_.empty());
}

void Table::add_row(std::vector<std::string> cells) {
  LIMS_CHECK_MSG(cells.size() == header_.size(),
                 "row arity " << cells.size() << " != header arity "
                              << header_.size());
  rows_.push_back(Row{false, std::move(cells)});
}

void Table::add_separator() { rows_.push_back(Row{true, {}}); }

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    if (row.separator) continue;
    for (std::size_t c = 0; c < row.cells.size(); ++c)
      widths[c] = std::max(widths[c], row.cells[c].size());
  }

  auto print_sep = [&] {
    os << '+';
    for (std::size_t w : widths) {
      for (std::size_t i = 0; i < w + 2; ++i) os << '-';
      os << '+';
    }
    os << '\n';
  };
  auto print_cells = [&](const std::vector<std::string>& cells) {
    os << '|';
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const std::string& s = cells[c];
      const std::size_t pad = widths[c] - s.size();
      if (c == 0) {
        os << ' ' << s << std::string(pad, ' ') << ' ';
      } else {
        os << ' ' << std::string(pad, ' ') << s << ' ';
      }
      os << '|';
    }
    os << '\n';
  };

  print_sep();
  print_cells(header_);
  print_sep();
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    if (!rows_[r].separator) {
      print_cells(rows_[r].cells);
    } else if (r + 1 < rows_.size()) {  // the closing rule follows the last
      print_sep();
    }
  }
  print_sep();
}

std::string strformat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args2;
  va_copy(args2, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<std::size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args2);
  }
  va_end(args2);
  return out;
}

}  // namespace limsynth
