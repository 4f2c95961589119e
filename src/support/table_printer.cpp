#include "support/table_printer.h"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "support/require.h"

namespace folvec {

Cell::Cell(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  text_ = os.str();
}

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  FOLVEC_REQUIRE(!headers_.empty(), "a table needs at least one column");
}

void TablePrinter::add_row(std::vector<Cell> cells) {
  FOLVEC_REQUIRE(cells.size() == headers_.size(),
                 "row width must match header width");
  std::vector<std::string> rendered;
  rendered.reserve(cells.size());
  for (const Cell& c : cells) rendered.push_back(c.render());
  rows_.push_back(std::move(rendered));
}

std::string TablePrinter::to_text() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << (c == 0 ? "| " : " | ") << std::setw(static_cast<int>(widths[c]))
         << row[c];
    }
    os << " |\n";
  };
  emit_row(headers_);
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    os << (c == 0 ? "|" : "-|") << std::string(widths[c] + 2, '-');
  }
  os << "-|\n";
  for (const auto& row : rows_) emit_row(row);
  return os.str();
}

std::string TablePrinter::to_csv() const {
  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c != 0) os << ',';
      os << row[c];
    }
    os << '\n';
  };
  emit(headers_);
  for (const auto& row : rows_) emit(row);
  return os.str();
}

void TablePrinter::print(std::ostream& os, const std::string& title) const {
  if (!title.empty()) os << title << '\n';
  os << to_text();
}

}  // namespace folvec
