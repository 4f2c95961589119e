// Fixed-width table and CSV output used by the benchmark harnesses.
//
// Every bench binary reproduces a table or figure from the paper; the
// TablePrinter gives them a consistent, diffable plain-text format plus an
// optional CSV sink for plotting.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace folvec {

/// One table cell: text, an integer, or a floating value with precision,
/// rendered to its text when constructed.
class Cell {
 public:
  Cell(std::string text) : text_(std::move(text)) {}         // NOLINT
  Cell(const char* text) : text_(text) {}                    // NOLINT
  Cell(long long v) : text_(std::to_string(v)) {}            // NOLINT
  Cell(unsigned long long v) : Cell(static_cast<long long>(v)) {}  // NOLINT
  Cell(int v) : Cell(static_cast<long long>(v)) {}           // NOLINT
  Cell(std::size_t v) : Cell(static_cast<long long>(v)) {}   // NOLINT
  Cell(double v, int precision = 2);                         // NOLINT

  const std::string& render() const { return text_; }

 private:
  std::string text_;
};

/// Collects rows and prints them as an aligned text table and/or CSV.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  void add_row(std::vector<Cell> cells);

  /// Renders an aligned, pipe-separated table.
  std::string to_text() const;

  /// Renders RFC-4180-ish CSV (no quoting needed for our numeric content).
  std::string to_csv() const;

  /// Prints the text table to `os`, preceded by `title` if non-empty.
  void print(std::ostream& os, const std::string& title = "") const;

  std::size_t row_count() const { return rows_.size(); }

  /// Raw access for the bench reporter's JSON twins: the header names and
  /// the rendered (string-form) rows, in insertion order.
  const std::vector<std::string>& headers() const { return headers_; }
  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace folvec
