#pragma once

#include <cstddef>
#include <iosfwd>
#include <optional>
#include <string>
#include <variant>
#include <vector>

namespace hpac {

/// A single CSV cell; stored typed so numeric formatting is uniform.
using CsvCell = std::variant<std::string, double, long long>;

/// Render one cell exactly as `CsvTable::write` does: strings are quoted
/// when they contain a separator, quote or newline; doubles use the
/// shortest text that `strings::parse_double` reads back as the identical
/// value; integers print verbatim. `CsvReader` undoes the quoting.
void write_csv_cell(std::ostream& os, const CsvCell& cell);

/// Render one full row (separators and trailing newline included).
void write_csv_row(std::ostream& os, const std::vector<CsvCell>& cells);

/// Streaming row-by-row CSV reader. Understands the quoting `write` emits
/// (RFC-4180 style): quoted cells may contain separators, doubled quotes
/// and embedded newlines; CRLF line endings are accepted. Cells come back
/// as raw strings; `harness::ResultDb::read` parses each one as its
/// record field's type.
class CsvReader {
 public:
  explicit CsvReader(std::istream& is) : is_(is) {}

  /// The next record, or nullopt at end of input. A record spans multiple
  /// physical lines when a quoted cell contains newlines.
  std::optional<std::vector<std::string>> next_row();

 private:
  std::istream& is_;
};

/// Write-side CSV table: `harness::ResultDb::to_csv` fills one to persist
/// the harness "result database" (the paper's execution harness stores
/// runtime/error results in a database the user queries afterwards; we
/// persist plain CSV for the same purpose). `ResultDb::read` reads it back.
class CsvTable {
 public:
  explicit CsvTable(std::vector<std::string> columns);

  const std::vector<std::string>& columns() const { return columns_; }
  std::size_t row_count() const { return rows_.size(); }

  /// Append a row; must match the column count.
  void add_row(std::vector<CsvCell> cells);

  /// Serialize with a header row. Quotes cells containing separators.
  void write(std::ostream& os) const;
  /// `write` to `path` via fileops::write_file_atomic: readers see the old
  /// file or the complete new one, and a failed write throws.
  void save(const std::string& path) const;

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<CsvCell>> rows_;
};

}  // namespace hpac
