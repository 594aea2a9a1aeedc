// Minimal ASCII table renderer used by the benchmark harnesses to print the
// paper's tables in a recognizable layout. Columns are sized to content;
// numeric cells are produced by the caller (we keep formatting policy out of
// the renderer).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace sck {

/// A simple left-to-right text table with an optional title and column
/// headers. Rows may be marked as separators to group sections.
class TextTable {
 public:
  explicit TextTable(std::string title = {}) : title_(std::move(title)) {}

  /// Set the header row (column names).
  void set_header(std::vector<std::string> header);

  /// Append a data row; shorter rows are padded with empty cells.
  void add_row(std::vector<std::string> row);

  /// Append a horizontal separator line at this position.
  void add_separator();

  /// Render to a stream with box-drawing in plain ASCII.
  void print(std::ostream& os) const;

 private:
  struct Row {
    std::vector<std::string> cells;
    bool separator = false;
  };

  std::string title_;
  std::vector<std::string> header_;
  std::vector<Row> rows_;
};

/// Format a double as a fixed-precision percentage string, e.g. "97.25%".
[[nodiscard]] std::string format_percent(double fraction, int decimals = 2);

/// Format an integer with thousands separators, e.g. "16,777,216".
[[nodiscard]] std::string format_count(unsigned long long value);

/// Format a double with fixed decimals.
[[nodiscard]] std::string format_fixed(double value, int decimals = 2);

}  // namespace sck
