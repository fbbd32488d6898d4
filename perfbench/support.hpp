#pragma once

// Shared pieces of the perfbench driver: metric and check accounting,
// percentiles, output digests, the reference-digest file, in-memory span
// tracing, a small JSON writer and child-process helpers.

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "harness/record.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- statistics ---------------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

// --- metrics and checks -------------------------------------------------------

/// Named metrics with units, kept in insertion order.
class Metrics {
 public:
  struct Entry {
    std::string name;
    double value = 0;
    std::string unit;
  };
  void set(const std::string& name, double value, const std::string& unit);
  const std::vector<Entry>& entries() const { return entries_; }
  /// {"name": {"value": v, "unit": "u"}, ...}
  std::string json() const;

 private:
  std::vector<Entry> entries_;
};

/// Counts operations and failed operations. An operation fails when its
/// answer is wrong: a digest mismatch, a non-kOk answer or a transport
/// error all count.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< the first few failure descriptions

  /// Count `ops` operations, all failed when `ok` is false.
  void op(bool ok, const std::string& what, std::uint64_t ops = 1);
};

// --- digests and the reference file ---------------------------------------------

/// 16-hex-digit FNV-1a digest of `bytes`.
std::string digest(std::string_view bytes);
/// The canonical CSV text of a result database.
std::string csv_text(const hpac::harness::ResultDb& db);
/// One record's canonical CSV row.
std::string row_text(const hpac::harness::RunRecord& record);
/// Every field of two records equal (doubles compared bit for bit).
bool same_record(const hpac::harness::RunRecord& a, const hpac::harness::RunRecord& b);

/// Reference digests captured from a known-good build: one `key digest`
/// pair per line. In capture mode `check` records instead of comparing.
class Reference {
 public:
  bool load(const std::string& path);
  bool save(const std::string& path) const;
  const std::string* find(const std::string& key) const;
  void set(const std::string& key, const std::string& value);

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
};

// --- tracing --------------------------------------------------------------------

/// One finished span. Times are seconds since the tracer's epoch.
struct SpanRecord {
  const char* name = "";
  const char* layer = "";
  const char* scenario = "";  ///< the workload running when the span opened
  double start = 0;
  double end = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 for a root span
  std::uint64_t request = 0;  ///< spans of one request share it; 0 = none
};

/// Turn span recording on or off for the whole process.
void set_tracing(bool enabled);
bool tracing();
/// Tag spans opened from now on (on any thread) with `scenario`, which
/// must be a string literal.
void set_scenario(const char* scenario);

/// RAII span around one call into a layer. Records nothing unless tracing
/// is on; spans nest per thread (the enclosing open span is the parent),
/// and a span without its own request id inherits its parent's.
class Span {
 public:
  Span(const char* name, const char* layer, std::uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
  SpanRecord record_;
};

/// Every span recorded so far, from all threads.
std::vector<SpanRecord> collected_spans();

/// Self time per span (duration minus the part its children cover), summed
/// per layer over the spans of `scenario`.
std::vector<std::pair<std::string, double>> self_seconds_by_layer(
    const std::vector<SpanRecord>& spans, const std::string& scenario);

/// Write the spans as JSON Lines.
bool write_spans(const std::vector<SpanRecord>& spans, const std::string& path);

// --- JSON -----------------------------------------------------------------------

std::string json_string(std::string_view text);
std::string json_number(double value);

/// Builds one JSON object field by field.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double value);
  JsonObject& str(const std::string& key, const std::string& value);
  JsonObject& raw(const std::string& key, const std::string& json);
  std::string text() const { return "{" + body_ + "}"; }

 private:
  void key(const std::string& name);
  std::string body_;
};

// --- processes -------------------------------------------------------------------

/// fork+exec `argv` with stdout/stderr appended to `log_path`; returns the pid.
int spawn(const std::vector<std::string>& argv, const std::string& log_path);
/// Wait for `pid`; true when it exited with status 0.
bool wait_ok(int pid);

// --- the run context ----------------------------------------------------------------

struct Context {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  bool capture = false;     ///< record reference digests instead of checking
  std::string work_dir;     ///< scratch space for this run
  std::string cache_dir;    ///< survives runs of one build
  std::string self_path;    ///< this executable (fleet workers re-exec it)
  std::string hpacd_path;

  Reference reference;
  Checks checks;
  Metrics e2e;    ///< end-to-end metrics (untraced run)
  Metrics layer;  ///< per-layer metrics (traced run)
  JsonObject modeled;  ///< modeled device time, never host wall time

  /// Compare `actual` against the reference digest under `key` (or record
  /// it when capturing). The digest stands for `ops` operations, which all
  /// count as failed on a mismatch.
  bool check_digest(const std::string& key, const std::string& actual,
                    std::uint64_t ops = 1);
};

/// What one workload measured. The entry points below check every output
/// into `ctx.checks`; with `traced` they also fill `ctx.layer` and run the
/// workload once instead of for the whole time budget.
struct E2e {
  double ops_per_s = 0;
  std::vector<double> op_latency_s;    ///< config, tuple or memo query latencies
  std::vector<double> cold_latency_s;  ///< hpacd_mix only: cold query latencies
  double job_wall_s = 0;
  std::vector<double> setup_s;
};

E2e run_explore(Context& ctx, bool traced);
E2e run_campaign(Context& ctx, bool traced);
E2e run_hpacd_mix(Context& ctx, bool traced);
void run_engine_layers(Context& ctx);

/// The campaign_fleet plan's finalized CSV, cached per build (built with
/// every core on first use and checked against the reference digest).
std::string campaign_csv(Context& ctx);

/// Fleet worker process entry (re-exec of this binary).
int fleet_worker_main(const std::string& dir, const std::string& worker);

}  // namespace perfbench
