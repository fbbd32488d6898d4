#include "common/csv.hpp"

#include <charconv>
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

}  // namespace hpac
