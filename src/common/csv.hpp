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
/// shortest text that parses back to the identical value; integers print
/// verbatim.
void write_csv_cell(std::ostream& os, const CsvCell& cell);

/// Render one full row (separators and trailing newline included).
void write_csv_row(std::ostream& os, const std::vector<CsvCell>& cells);

/// The unquoted text of a cell — what `write_csv_cell` emits before
/// quoting is applied. Numeric cells use the table's canonical formatting.
std::string cell_text(const CsvCell& cell);

/// Streaming row-by-row CSV reader. Understands the quoting `write` emits
/// (RFC-4180 style): quoted cells may contain separators, doubled quotes
/// and embedded newlines; CRLF line endings are accepted. Cells come back
/// as raw strings; `CsvTable::load` layers typed re-parsing on top.
class CsvReader {
 public:
  explicit CsvReader(std::istream& is) : is_(is) {}

  /// The next record, or nullopt at end of input. A record spans multiple
  /// physical lines when a quoted cell contains newlines.
  std::optional<std::vector<std::string>> next_row();

 private:
  std::istream& is_;
};

/// Append-only CSV table used as the harness "result database" (the paper's
/// execution harness stores runtime/error results in a database the user
/// queries afterwards; we persist plain CSV for the same purpose).
class CsvTable {
 public:
  explicit CsvTable(std::vector<std::string> columns);

  const std::vector<std::string>& columns() const { return columns_; }
  std::size_t row_count() const { return rows_.size(); }

  /// Append a row; must match the column count.
  void add_row(std::vector<CsvCell> cells);

  /// Cell accessors for tests and aggregation.
  const CsvCell& at(std::size_t row, std::size_t col) const;
  double number_at(std::size_t row, std::size_t col) const;
  const CsvCell& at(std::size_t row, const std::string& column) const;
  double number_at(std::size_t row, const std::string& column) const;
  /// Unquoted text of a cell regardless of its stored type.
  std::string text_at(std::size_t row, std::size_t col) const;
  std::string text_at(std::size_t row, const std::string& column) const;

  /// Column index by name; throws if missing.
  std::size_t column_index(const std::string& name) const;

  /// Serialize with a header row. Quotes cells containing separators.
  void write(std::ostream& os) const;
  /// `write` to `path` via fileops::write_file_atomic: readers see the old
  /// file or the complete new one, and a failed write throws.
  void save(const std::string& path) const;

  /// Parse a table previously produced by `write`. Unquoted cells that
  /// parse as numbers AND re-format to the identical text are stored
  /// typed; everything else stays a string, so `load` → `write` is
  /// byte-identical and numeric formatting is stable across repeated
  /// round trips. Throws hpac::Error on missing header or ragged rows —
  /// except that with `drop_torn_tail` a malformed *final* record (the
  /// signature of an append-mode journal whose writer died mid-row) is
  /// silently dropped instead.
  static CsvTable load(std::istream& is, bool drop_torn_tail = false);
  static CsvTable load_file(const std::string& path, bool drop_torn_tail = false);

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<CsvCell>> rows_;
};

}  // namespace hpac
