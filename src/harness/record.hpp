#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/csv.hpp"
#include "pragma/spec.hpp"

namespace hpac::harness {

/// One row of the execution harness's result database: a single
/// (benchmark, platform, approximation configuration) measurement.
struct RunRecord {
  std::string benchmark;
  std::string device;
  pragma::Technique technique = pragma::Technique::kNone;
  std::string spec_text;  ///< canonical clause text (ApproxSpec::to_string)
  pragma::HierarchyLevel level = pragma::HierarchyLevel::kThread;
  std::uint64_t items_per_thread = 1;

  bool feasible = true;     ///< false when the config cannot run (e.g. AC state too big)
  std::string note;         ///< infeasibility reason or free-form remark

  double speedup = 0;         ///< baseline time / approximated time
  double error_percent = 0;   ///< MAPE or MCR vs the accurate program
  double approx_ratio = 0;    ///< fraction of items approximated/skipped
  double kernel_seconds = 0;
  double end_to_end_seconds = 0;
  double iterations = 0;        ///< solver iterations (K-Means convergence)
  double baseline_iterations = 0;

  // Technique parameters, denormalized for easy filtering/plotting.
  double threshold = 0;
  int history_size = 0;
  int prediction_size = 0;
  int table_size = 0;
  int tables_per_warp = 0;
  std::string perfo_kind;
  int perfo_stride = 0;
  double perfo_fraction = 0;

  /// Populate the denormalized parameter fields from a spec.
  void set_spec(const pragma::ApproxSpec& spec);

  /// The record's schema, written once: calls `fn(column_name, field)`
  /// for every field, in CSV column order — which is also protocol v2's
  /// wire order. `Self` is `RunRecord` or `const RunRecord`, so the same
  /// list drives the encoders and the decoders (CSV here, the wire in
  /// service/protocol.cpp).
  template <typename Self, typename Fn>
  static void for_each_field(Self& r, Fn&& fn) {
    fn("benchmark", r.benchmark);
    fn("device", r.device);
    fn("technique", r.technique);
    fn("spec", r.spec_text);
    fn("level", r.level);
    fn("items_per_thread", r.items_per_thread);
    fn("feasible", r.feasible);
    fn("note", r.note);
    fn("speedup", r.speedup);
    fn("error_percent", r.error_percent);
    fn("approx_ratio", r.approx_ratio);
    fn("kernel_seconds", r.kernel_seconds);
    fn("end_to_end_seconds", r.end_to_end_seconds);
    fn("iterations", r.iterations);
    fn("baseline_iterations", r.baseline_iterations);
    fn("threshold", r.threshold);
    fn("history_size", r.history_size);
    fn("prediction_size", r.prediction_size);
    fn("table_size", r.table_size);
    fn("tables_per_warp", r.tables_per_warp);
    fn("perfo_kind", r.perfo_kind);
    fn("perfo_stride", r.perfo_stride);
    fn("perfo_fraction", r.perfo_fraction);
  }

  /// The result database's canonical column set, in `for_each_field` order.
  static const std::vector<std::string>& csv_columns();

  /// One CSV row (matching `csv_columns`), and its positional inverse,
  /// which parses each cell once as its field's type and throws
  /// hpac::Error on a wrong cell count or an unparsable cell. A record
  /// round-trips: `from_cells` of a written `to_row` reproduces every
  /// field, and re-serializing yields byte-identical CSV — the property
  /// campaign resume depends on.
  std::vector<CsvCell> to_row() const;
  static RunRecord from_cells(const std::vector<std::string>& cells);
};

/// Append-only database of run records, persistable as CSV — the library
/// analogue of the HPAC harness's results database (paper §2.3).
class ResultDb {
 public:
  void add(RunRecord record);
  const std::vector<RunRecord>& records() const { return records_; }
  std::size_t size() const { return records_.size(); }

  /// Records matching a predicate.
  template <typename Pred>
  std::vector<RunRecord> where(Pred&& pred) const {
    std::vector<RunRecord> out;
    for (const auto& r : records_) {
      if (pred(r)) out.push_back(r);
    }
    return out;
  }

  /// Export to CSV (one column per RunRecord field).
  CsvTable to_csv() const;
  void save(const std::string& path) const;

  /// Rehydrate a database previously written by `save`: the header must
  /// equal `csv_columns`, and every record goes through `from_cells`.
  /// Throws hpac::Error otherwise — except that with `drop_torn_tail` the
  /// input's last record is dropped when it fails to read or to parse or
  /// lacks its final newline, so a journal whose writer was killed
  /// mid-append still loads and never keeps a half-written row (campaign
  /// resume and the fleet merge rely on this). A header that lacks its
  /// newline is such a tail too: the result is empty. An earlier bad
  /// record throws either way. With `drop_torn_tail` the stream is left,
  /// with its state cleared, just after the last row read accepted — the
  /// header or a record — or at its start when it accepted none; the
  /// input must be seekable.
  static ResultDb read(std::istream& is, bool drop_torn_tail = false);
  /// `read` of the file at `path`; throws when it cannot be opened.
  static ResultDb load(const std::string& path, bool drop_torn_tail = false);

 private:
  std::vector<RunRecord> records_;
};

}  // namespace hpac::harness
