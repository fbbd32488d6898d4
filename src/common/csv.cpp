#include "common/csv.hpp"

#include <charconv>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/error.hpp"
#include "common/fileops.hpp"
#include "common/strings.hpp"

namespace hpac {

namespace {

std::string format_double(double value) {
  // Shortest representation that parses back to the identical double, so
  // persisted databases restore values exactly and repeated round trips
  // are byte-stable.
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof buf, value);
  return std::string(buf, result.ptr);
}

/// Typed re-parse of a raw cell: keep a numeric type only when writing it
/// back reproduces the original bytes, so load → write is an identity.
CsvCell typed_cell(std::string text) {
  long long integer = 0;
  if (strings::parse_int(text, integer) && std::to_string(integer) == text) return integer;
  double real = 0;
  if (strings::parse_double(text, real) && format_double(real) == text) return real;
  return text;
}

}  // namespace

void write_csv_cell(std::ostream& os, const CsvCell& cell) {
  if (const auto* s = std::get_if<std::string>(&cell)) {
    const bool needs_quotes = s->find_first_of(",\"\n") != std::string::npos;
    if (!needs_quotes) {
      os << *s;
      return;
    }
    os << '"';
    for (char c : *s) {
      if (c == '"') os << '"';
      os << c;
    }
    os << '"';
  } else if (const auto* d = std::get_if<double>(&cell)) {
    os << format_double(*d);
  } else {
    os << std::get<long long>(cell);
  }
}

void write_csv_row(std::ostream& os, const std::vector<CsvCell>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i) os << ',';
    write_csv_cell(os, cells[i]);
  }
  os << '\n';
}

std::string cell_text(const CsvCell& cell) {
  if (const auto* s = std::get_if<std::string>(&cell)) return *s;
  if (const auto* d = std::get_if<double>(&cell)) return format_double(*d);
  return std::to_string(std::get<long long>(cell));
}

std::optional<std::vector<std::string>> CsvReader::next_row() {
  if (is_.peek() == std::char_traits<char>::eof()) return std::nullopt;
  std::vector<std::string> cells;
  std::string cell;
  bool in_quotes = false;
  char c = 0;
  while (is_.get(c)) {
    if (in_quotes) {
      if (c == '"') {
        if (is_.peek() == '"') {
          is_.get(c);
          cell.push_back('"');
        } else {
          in_quotes = false;
        }
      } else {
        cell.push_back(c);
      }
      continue;
    }
    if (c == '"' && cell.empty()) {
      in_quotes = true;
    } else if (c == ',') {
      cells.push_back(std::move(cell));
      cell.clear();
    } else if (c == '\n') {
      if (!cell.empty() && cell.back() == '\r') cell.pop_back();
      cells.push_back(std::move(cell));
      return cells;
    } else {
      cell.push_back(c);
    }
  }
  HPAC_REQUIRE(!in_quotes, "CSV input ends inside a quoted cell");
  // Final record without a trailing newline.
  cells.push_back(std::move(cell));
  return cells;
}

CsvTable::CsvTable(std::vector<std::string> columns) : columns_(std::move(columns)) {
  HPAC_REQUIRE(!columns_.empty(), "CSV table needs at least one column");
}

void CsvTable::add_row(std::vector<CsvCell> cells) {
  HPAC_REQUIRE(cells.size() == columns_.size(),
               strings::format("row has %zu cells, table has %zu columns", cells.size(),
                               columns_.size()));
  rows_.push_back(std::move(cells));
}

const CsvCell& CsvTable::at(std::size_t row, std::size_t col) const {
  HPAC_REQUIRE(row < rows_.size(), "row out of range");
  HPAC_REQUIRE(col < columns_.size(), "column out of range");
  return rows_[row][col];
}

double CsvTable::number_at(std::size_t row, std::size_t col) const {
  const CsvCell& cell = at(row, col);
  if (const auto* d = std::get_if<double>(&cell)) return *d;
  if (const auto* i = std::get_if<long long>(&cell)) return static_cast<double>(*i);
  throw Error("CSV cell is not numeric");
}

const CsvCell& CsvTable::at(std::size_t row, const std::string& column) const {
  return at(row, column_index(column));
}

double CsvTable::number_at(std::size_t row, const std::string& column) const {
  return number_at(row, column_index(column));
}

std::string CsvTable::text_at(std::size_t row, std::size_t col) const {
  return cell_text(at(row, col));
}

std::string CsvTable::text_at(std::size_t row, const std::string& column) const {
  return cell_text(at(row, column_index(column)));
}

std::size_t CsvTable::column_index(const std::string& name) const {
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i] == name) return i;
  }
  throw Error("no such CSV column: " + name);
}

void CsvTable::write(std::ostream& os) const {
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    if (i) os << ',';
    os << columns_[i];
  }
  os << '\n';
  for (const auto& row : rows_) write_csv_row(os, row);
}

void CsvTable::save(const std::string& path) const {
  std::ostringstream out;
  write(out);
  fileops::write_file_atomic(path, out.view());
}

CsvTable CsvTable::load(std::istream& is, bool drop_torn_tail) {
  CsvReader reader(is);
  auto header = reader.next_row();
  HPAC_REQUIRE(header.has_value() && !(header->size() == 1 && header->front().empty()),
               "CSV input has no header row");
  CsvTable table(*header);
  std::size_t line = 1;
  for (;;) {
    std::optional<std::vector<std::string>> row;
    try {
      row = reader.next_row();
    } catch (const Error&) {
      // An unterminated quote is necessarily the input's final record.
      if (drop_torn_tail) break;
      throw;
    }
    if (!row) break;
    ++line;
    if (row->size() != table.columns_.size()) {
      const bool is_final = is.peek() == std::char_traits<char>::eof();
      if (drop_torn_tail && is_final) break;
      throw Error(strings::format("CSV record %zu has %zu cells, header has %zu", line,
                                  row->size(), table.columns_.size()));
    }
    std::vector<CsvCell> cells;
    cells.reserve(row->size());
    for (auto& text : *row) cells.push_back(typed_cell(std::move(text)));
    table.rows_.push_back(std::move(cells));
  }
  return table;
}

CsvTable CsvTable::load_file(const std::string& path, bool drop_torn_tail) {
  std::ifstream in(path, std::ios::binary);
  HPAC_REQUIRE(in.good(), "cannot open CSV input file: " + path);
  return load(in, drop_torn_tail);
}

}  // namespace hpac
