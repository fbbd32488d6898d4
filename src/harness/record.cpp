#include "harness/record.hpp"

#include <fstream>
#include <istream>
#include <limits>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace hpac::harness {

void RunRecord::set_spec(const pragma::ApproxSpec& spec) {
  technique = spec.technique;
  spec_text = spec.to_string();
  level = spec.level;
  if (spec.taf) {
    history_size = spec.taf->history_size;
    prediction_size = spec.taf->prediction_size;
    threshold = spec.taf->rsd_threshold;
  }
  if (spec.iact) {
    table_size = spec.iact->table_size;
    tables_per_warp = spec.iact->tables_per_warp;
    threshold = spec.iact->threshold;
  }
  if (spec.perfo) {
    perfo_kind = pragma::perfo_kind_name(spec.perfo->kind);
    perfo_stride = spec.perfo->stride;
    perfo_fraction = spec.perfo->fraction;
  }
}

namespace {

CsvCell to_cell(const std::string& value) { return value; }
CsvCell to_cell(double value) { return value; }
CsvCell to_cell(int value) { return static_cast<long long>(value); }
CsvCell to_cell(std::uint64_t value) { return static_cast<long long>(value); }
CsvCell to_cell(bool value) { return static_cast<long long>(value ? 1 : 0); }
CsvCell to_cell(pragma::Technique value) { return pragma::technique_name(value); }
CsvCell to_cell(pragma::HierarchyLevel value) { return pragma::hierarchy_name(value); }

// The inverses of `to_cell`: false when the whole cell does not parse as
// the field's type (the enum parsers throw ParseError themselves).
bool from_cell(const std::string& cell, std::string& out) {
  out = cell;
  return true;
}

bool from_cell(const std::string& cell, double& out) { return strings::parse_double(cell, out); }

bool from_cell(const std::string& cell, int& out) {
  long long value = 0;
  if (!strings::parse_int(cell, value) || value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max()) {
    return false;
  }
  out = static_cast<int>(value);
  return true;
}

bool from_cell(const std::string& cell, std::uint64_t& out) {
  long long value = 0;
  if (!strings::parse_int(cell, value)) return false;
  out = static_cast<std::uint64_t>(value);  // mirrors to_cell's conversion
  return true;
}

bool from_cell(const std::string& cell, bool& out) {
  long long value = 0;
  if (!strings::parse_int(cell, value)) return false;
  out = value != 0;
  return true;
}

bool from_cell(const std::string& cell, pragma::Technique& out) {
  out = pragma::technique_from_name(cell);
  return true;
}

bool from_cell(const std::string& cell, pragma::HierarchyLevel& out) {
  out = pragma::hierarchy_from_name(cell);
  return true;
}

}  // namespace

const std::vector<std::string>& RunRecord::csv_columns() {
  static const std::vector<std::string> columns = [] {
    std::vector<std::string> names;
    const RunRecord r;
    for_each_field(r, [&names](const char* column, const auto&) { names.emplace_back(column); });
    return names;
  }();
  return columns;
}

std::vector<CsvCell> RunRecord::to_row() const {
  std::vector<CsvCell> row;
  row.reserve(csv_columns().size());
  for_each_field(*this, [&row](const char*, const auto& field) { row.push_back(to_cell(field)); });
  return row;
}

RunRecord RunRecord::from_cells(const std::vector<std::string>& cells) {
  HPAC_REQUIRE(cells.size() == csv_columns().size(),
               strings::format("CSV record has %zu cells, the schema has %zu", cells.size(),
                               csv_columns().size()));
  RunRecord r;
  std::size_t i = 0;
  for_each_field(r, [&](const char* column, auto& field) {
    const std::string& cell = cells[i++];
    HPAC_REQUIRE(from_cell(cell, field),
                 std::string("CSV column ") + column + " cannot hold '" + cell + "'");
  });
  return r;
}

void ResultDb::add(RunRecord record) { records_.push_back(std::move(record)); }

CsvTable ResultDb::to_csv() const {
  CsvTable csv(RunRecord::csv_columns());
  for (const auto& r : records_) csv.add_row(r.to_row());
  return csv;
}

void ResultDb::save(const std::string& path) const { to_csv().save(path); }

ResultDb ResultDb::read(std::istream& is, bool drop_torn_tail) {
  CsvReader reader(is);
  // Under drop_torn_tail the stream is left where the input after the
  // last accepted row starts.
  std::streampos accepted = drop_torn_tail ? is.tellg() : std::streampos(-1);
  const auto leave_after_accepted = [&] {
    if (!drop_torn_tail) return;
    is.clear();
    is.seekg(accepted);
  };
  const auto header = reader.next_row();
  // A header cut short of its newline is a torn tail too: the writer was
  // killed while creating the file, so nothing in it is durable.
  if (drop_torn_tail && header && is.eof()) {
    leave_after_accepted();
    return {};
  }
  HPAC_REQUIRE(header == RunRecord::csv_columns(),
               "CSV columns do not match the result database schema");
  ResultDb db;
  // A writer killed mid-append leaves at most the last record torn: cut
  // short of its newline (every writer ends a row with one), which may
  // also leave it ragged, inside an open quote or with a truncated cell.
  for (;;) {
    if (drop_torn_tail) accepted = is.tellg();
    try {
      const auto cells = reader.next_row();
      // eof() right after a record means it ended without its newline.
      if (!cells || (drop_torn_tail && is.eof())) break;
      db.add(RunRecord::from_cells(*cells));
    } catch (const Error&) {
      if (!drop_torn_tail || is.peek() != std::char_traits<char>::eof()) throw;
      break;
    }
  }
  leave_after_accepted();
  return db;
}

ResultDb ResultDb::load(const std::string& path, bool drop_torn_tail) {
  std::ifstream in(path, std::ios::binary);
  HPAC_REQUIRE(in.good(), "cannot open CSV input file: " + path);
  return read(in, drop_torn_tail);
}

}  // namespace hpac::harness
