#include "support.hpp"

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <unordered_map>

#include "common/csv.hpp"
#include "common/fileops.hpp"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

void Metrics::set(const std::string& name, double value, const std::string& unit) {
  for (auto& entry : entries_) {
    if (entry.name == name) {
      entry.value = value;
      entry.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

std::string Metrics::json() const {
  JsonObject out;
  for (const auto& entry : entries_) {
    out.raw(entry.name, JsonObject().num("value", entry.value).str("unit", entry.unit).text());
  }
  return out.text();
}

void Checks::op(bool ok, const std::string& what, std::uint64_t ops) {
  attempted += ops;
  if (ok) return;
  failed += ops;
  if (failures.size() < 20) failures.push_back(what);
}

std::string digest(std::string_view bytes) {
  return hpac::fileops::hex16(hpac::fileops::fnv1a64(bytes));
}

std::string csv_text(const hpac::harness::ResultDb& db) {
  std::ostringstream os;
  db.to_csv().write(os);
  return os.str();
}

std::string row_text(const hpac::harness::RunRecord& record) {
  std::ostringstream os;
  hpac::write_csv_row(os, record.to_row());
  return os.str();
}

namespace {
bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }
}  // namespace

bool same_record(const hpac::harness::RunRecord& a, const hpac::harness::RunRecord& b) {
  return a.benchmark == b.benchmark && a.device == b.device && a.technique == b.technique &&
         a.spec_text == b.spec_text && a.level == b.level &&
         a.items_per_thread == b.items_per_thread && a.feasible == b.feasible &&
         a.note == b.note && same_bits(a.speedup, b.speedup) &&
         same_bits(a.error_percent, b.error_percent) &&
         same_bits(a.approx_ratio, b.approx_ratio) &&
         same_bits(a.kernel_seconds, b.kernel_seconds) &&
         same_bits(a.end_to_end_seconds, b.end_to_end_seconds) &&
         same_bits(a.iterations, b.iterations) &&
         same_bits(a.baseline_iterations, b.baseline_iterations) &&
         same_bits(a.threshold, b.threshold) && a.history_size == b.history_size &&
         a.prediction_size == b.prediction_size && a.table_size == b.table_size &&
         a.tables_per_warp == b.tables_per_warp && a.perfo_kind == b.perfo_kind &&
         a.perfo_stride == b.perfo_stride && same_bits(a.perfo_fraction, b.perfo_fraction);
}

bool Reference::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return false;
  std::string key, value;
  while (in >> key >> value) entries_.emplace_back(key, value);
  return true;
}

bool Reference::save(const std::string& path) const {
  auto sorted = entries_;
  std::sort(sorted.begin(), sorted.end());
  std::ofstream out(path);
  for (const auto& [key, value] : sorted) out << key << ' ' << value << '\n';
  return static_cast<bool>(out);
}

const std::string* Reference::find(const std::string& key) const {
  for (const auto& [k, v] : entries_) {
    if (k == key) return &v;
  }
  return nullptr;
}

void Reference::set(const std::string& key, const std::string& value) {
  for (auto& [k, v] : entries_) {
    if (k == key) {
      v = value;
      return;
    }
  }
  entries_.emplace_back(key, value);
}

bool Context::check_digest(const std::string& key, const std::string& actual,
                           std::uint64_t ops) {
  if (capture) {
    reference.set(key, actual);
    checks.op(true, key, ops);
    return true;
  }
  const std::string* expected = reference.find(key);
  const bool ok = expected != nullptr && *expected == actual;
  checks.op(ok,
            key + ": digest " + actual + " != reference " +
                (expected != nullptr ? *expected : std::string("<missing>")),
            ops);
  return ok;
}

// --- tracing ----------------------------------------------------------------------

namespace {

std::atomic<bool> g_tracing{false};
std::atomic<const char*> g_scenario{""};
std::atomic<std::uint64_t> g_next_span{1};
const Clock::time_point g_epoch = Clock::now();

/// Spans are buffered per thread and collected at the end; a thread's
/// buffer outlives the thread (owned by the registry).
struct SpanRegistry {
  std::mutex mutex;
  std::vector<std::unique_ptr<std::vector<SpanRecord>>> buffers;
};
SpanRegistry& registry() {
  static SpanRegistry instance;
  return instance;
}

std::vector<SpanRecord>& thread_buffer() {
  thread_local std::vector<SpanRecord>* buffer = [] {
    auto owned = std::make_unique<std::vector<SpanRecord>>();
    std::vector<SpanRecord>* raw = owned.get();
    std::lock_guard<std::mutex> lock(registry().mutex);
    registry().buffers.push_back(std::move(owned));
    return raw;
  }();
  return *buffer;
}

/// Open spans of this thread, innermost last: (id, request).
thread_local std::vector<std::pair<std::uint64_t, std::uint64_t>> t_open;

double now_s() { return std::chrono::duration<double>(Clock::now() - g_epoch).count(); }

}  // namespace

void set_tracing(bool enabled) { g_tracing.store(enabled); }
bool tracing() { return g_tracing.load(std::memory_order_relaxed); }
void set_scenario(const char* scenario) { g_scenario.store(scenario); }

Span::Span(const char* name, const char* layer, std::uint64_t request) {
  if (!tracing()) return;
  active_ = true;
  record_.name = name;
  record_.layer = layer;
  record_.scenario = g_scenario.load(std::memory_order_relaxed);
  record_.id = g_next_span.fetch_add(1, std::memory_order_relaxed);
  if (!t_open.empty()) {
    record_.parent = t_open.back().first;
    if (request == 0) request = t_open.back().second;
  }
  record_.request = request;
  t_open.emplace_back(record_.id, request);
  record_.start = now_s();
}

Span::~Span() {
  if (!active_) return;
  record_.end = now_s();
  t_open.pop_back();
  thread_buffer().push_back(record_);
}

std::vector<SpanRecord> collected_spans() {
  std::vector<SpanRecord> all;
  std::lock_guard<std::mutex> lock(registry().mutex);
  for (const auto& buffer : registry().buffers) {
    all.insert(all.end(), buffer->begin(), buffer->end());
  }
  std::sort(all.begin(), all.end(),
            [](const SpanRecord& a, const SpanRecord& b) { return a.id < b.id; });
  return all;
}

std::vector<std::pair<std::string, double>> self_seconds_by_layer(
    const std::vector<SpanRecord>& spans, const std::string& scenario) {
  // Children of one parent run on the parent's thread, one after another,
  // so their durations add up to the covered part of the parent.
  std::unordered_map<std::uint64_t, double> child_seconds;
  for (const auto& span : spans) {
    if (span.parent != 0) child_seconds[span.parent] += span.end - span.start;
  }
  std::vector<std::pair<std::string, double>> out;
  for (const auto& span : spans) {
    if (scenario != span.scenario) continue;
    const double self = std::max(0.0, (span.end - span.start) - child_seconds[span.id]);
    auto it = std::find_if(out.begin(), out.end(),
                           [&span](const auto& entry) { return entry.first == span.layer; });
    if (it == out.end()) {
      out.emplace_back(span.layer, self);
    } else {
      it->second += self;
    }
  }
  return out;
}

bool write_spans(const std::vector<SpanRecord>& spans, const std::string& path) {
  std::ofstream out(path);
  for (const auto& span : spans) {
    out << JsonObject()
               .str("name", span.name)
               .str("layer", span.layer)
               .str("scenario", span.scenario)
               .num("start_s", span.start)
               .num("end_s", span.end)
               .num("id", static_cast<double>(span.id))
               .num("parent", static_cast<double>(span.parent))
               .num("request", static_cast<double>(span.request))
               .text()
        << '\n';
  }
  return static_cast<bool>(out);
}

// --- JSON -------------------------------------------------------------------------

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

void JsonObject::key(const std::string& name) {
  if (!body_.empty()) body_ += ", ";
  body_ += json_string(name) + ": ";
}

JsonObject& JsonObject::num(const std::string& name, double value) {
  key(name);
  body_ += json_number(value);
  return *this;
}

JsonObject& JsonObject::str(const std::string& name, const std::string& value) {
  key(name);
  body_ += json_string(value);
  return *this;
}

JsonObject& JsonObject::raw(const std::string& name, const std::string& json) {
  key(name);
  body_ += json;
  return *this;
}

// --- processes -------------------------------------------------------------------

int spawn(const std::vector<std::string>& argv, const std::string& log_path) {
  std::vector<char*> args;
  for (const auto& arg : argv) args.push_back(const_cast<char*>(arg.c_str()));
  args.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    const int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd >= 0) {
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
      ::close(fd);
    }
    ::execv(args[0], args.data());
    std::_Exit(127);
  }
  return static_cast<int>(pid);
}

bool wait_ok(int pid) {
  if (pid <= 0) return false;
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return false;
  }
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

}  // namespace perfbench
