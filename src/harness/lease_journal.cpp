#include "harness/lease_journal.hpp"

#include <limits.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <random>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace hpac::harness {

// The atomic-append transport is only torn-proof if every sealed record
// fits in one POSIX-atomic write(2). hpac_lint checks this assertion stays
// in place.
static_assert(LeaseJournal::kMaxRecordBytes < PIPE_BUF,
              "lease records must fit one atomic O_APPEND write");

namespace {

constexpr const char* kMagic = "hpac-leases";
constexpr const char* kVersion = "v1";

bool valid_worker_name(const std::string& name) {
  if (name.empty()) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

std::string seen_key(const std::string& worker, std::uint64_t nonce) {
  return worker + "#" + std::to_string(nonce);
}

bool parse_u64(std::string_view text, std::uint64_t& out) {
  long long value = 0;
  if (!strings::parse_int(text, value) || value < 0) return false;
  out = static_cast<std::uint64_t>(value);
  return true;
}

std::uint64_t generate_nonce() {
  std::random_device rd;
  std::uint64_t nonce = (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
  nonce ^= static_cast<std::uint64_t>(::getpid()) << 16;
  nonce ^= static_cast<std::uint64_t>(LeaseJournal::now_ms());
  // Keep nonces inside the signed-64 range the line parser accepts.
  nonce &= 0x7fffffffffffffffull;
  return nonce != 0 ? nonce : 1;
}

/// Fault-injection hook (tests only): HPAC_DIST_TEST_TORN_APPEND=<k>
/// makes this process write only HALF of its k-th lease-journal record
/// and then SIGKILL itself — the simulated torn append the reader's
/// skip-invalid-lines policy must absorb.
int torn_append_target() {
  static const int target = [] {
    const char* env = std::getenv("HPAC_DIST_TEST_TORN_APPEND");
    long long value = 0;
    return env != nullptr && strings::parse_int(env, value) ? static_cast<int>(value)
                                                            : 0;
  }();
  return target;
}

std::atomic<int> g_append_count{0};

}  // namespace

// --- record replay -----------------------------------------------------------

namespace {

using Inspection = LeaseJournal::Inspection;
using TupleState = LeaseJournal::TupleState;

/// Split a line into (body, valid): the last space-separated field must
/// be a 16-hex-digit FNV-1a of everything before it. Glued lines (a torn
/// partial record with another process's complete record appended after
/// it) fail here because the checksum covers the garbage prefix.
bool unseal_line(std::string_view line, std::string& body) {
  const std::size_t space = line.rfind(' ');
  if (space == std::string_view::npos) return false;
  std::uint64_t stated = 0;
  if (!fileops::parse_hex16(line.substr(space + 1), stated)) return false;
  if (fileops::fnv1a64(line.substr(0, space)) != stated) return false;
  body.assign(line.substr(0, space));
  return true;
}

void bump_seen(Inspection& state, const std::string& worker, std::uint64_t nonce,
               std::uint64_t ts) {
  std::uint64_t& slot = state.last_seen[seen_key(worker, nonce)];
  if (ts > slot) slot = ts;
}

/// Counts one applied record of a kind; always true.
bool counted(Inspection& state, std::size_t& kind_count) {
  ++kind_count;
  ++state.valid_records;
  return true;
}

/// Apply one unsealed line's tokens to `state` under the journal-order
/// rules. Returns false when the line is malformed, out of range or a
/// header after the first (the caller counts it as an invalid line).
bool apply_line(Inspection& state, const std::vector<std::string>& t) {
  if (t.empty()) return false;
  const std::string& kind = t[0];
  std::vector<TupleState>& tuples = state.tuples;
  if (kind == kMagic) {
    std::uint64_t domain = 0, fingerprint = 0;
    // A non-empty mode marks the header as seen; a later one is invalid.
    if (!state.mode.empty() || t.size() != 5 || t[1] != kVersion || t[2].empty() ||
        !parse_u64(t[3], domain) || !fileops::parse_hex16(t[4], fingerprint)) {
      return false;
    }
    state.mode = t[2];
    state.domain = domain;
    state.fingerprint = fingerprint;
    tuples.resize(domain);
    return true;
  }
  if (kind == "C") {
    std::uint64_t first = 0, count = 0, nonce = 0, ts = 0;
    if (t.size() != 6 || !parse_u64(t[1], first) || !parse_u64(t[2], count) ||
        !valid_worker_name(t[3]) || !parse_u64(t[4], nonce) || !parse_u64(t[5], ts) ||
        count == 0 || first + count > tuples.size()) {
      return false;
    }
    for (std::uint64_t i = first; i < first + count; ++i) {
      TupleState& st = tuples[i];
      if (!st.claimed && !st.released) {
        st.claimed = true;
        st.worker = t[3];
        st.nonce = nonce;
      }
    }
    bump_seen(state, t[3], nonce, ts);
    return counted(state, state.claims);
  }
  if (kind == "H") {
    std::uint64_t nonce = 0, ts = 0;
    if (t.size() != 4 || !valid_worker_name(t[1]) || !parse_u64(t[2], nonce) ||
        !parse_u64(t[3], ts)) {
      return false;
    }
    bump_seen(state, t[1], nonce, ts);
    return counted(state, state.heartbeats);
  }
  if (kind == "R") {
    std::uint64_t tuple = 0, nonce = 0;
    if (t.size() != 4 || !parse_u64(t[1], tuple) || !valid_worker_name(t[2]) ||
        !parse_u64(t[3], nonce) || tuple >= tuples.size()) {
      return false;
    }
    TupleState& st = tuples[tuple];
    // Only the current owner's release counts: a worker whose lease was
    // reclaimed mid-evaluation appends a release that every reader
    // ignores (the reclaimer's result is the one that stands).
    if (st.claimed && !st.released && st.worker == t[2] && st.nonce == nonce) {
      st.released = true;
    }
    return counted(state, state.releases);
  }
  if (kind == "X") {
    std::uint64_t tuple = 0, old_nonce = 0, nonce = 0, ts = 0;
    if (t.size() != 7 || !parse_u64(t[1], tuple) || !valid_worker_name(t[2]) ||
        !parse_u64(t[3], old_nonce) || !valid_worker_name(t[4]) ||
        !parse_u64(t[5], nonce) || !parse_u64(t[6], ts) || tuple >= tuples.size()) {
      return false;
    }
    TupleState& st = tuples[tuple];
    // Compare-and-swap: the record names the incumbent it observed.
    // The first reclaim in journal order transfers the lease; a racing
    // reclaim that lands later names an incumbent that no longer owns
    // the tuple and is ignored — expired leases transfer exactly once.
    if (st.claimed && !st.released && st.worker == t[2] && st.nonce == old_nonce) {
      st.worker = t[4];
      st.nonce = nonce;
    }
    bump_seen(state, t[4], nonce, ts);
    return counted(state, state.reclaims);
  }
  return false;
}

}  // namespace

// --- line framing ------------------------------------------------------------

std::string LeaseJournal::sealed_line(const std::string& body) {
  return body + " " + fileops::hex16(fileops::fnv1a64(body)) + "\n";
}

// --- construction ------------------------------------------------------------

LeaseJournal::LeaseJournal(Options options) : options_(std::move(options)) {
  HPAC_REQUIRE(valid_worker_name(options_.worker),
               "lease journal worker id must be [A-Za-z0-9_.-]+: '" + options_.worker +
                   "'");
  // The worker-name cap is what makes kMaxRecordBytes (and with it the
  // PIPE_BUF torn-write guarantee) a real bound rather than a hope.
  HPAC_REQUIRE(options_.worker.size() <= kMaxWorkerNameBytes,
               "lease journal worker id exceeds " +
                   std::to_string(kMaxWorkerNameBytes) + " bytes: '" +
                   options_.worker + "'");
  HPAC_REQUIRE(options_.domain > 0, "lease journal needs a non-empty tuple domain");
  HPAC_REQUIRE(options_.ttl_ms > 0, "lease journal TTL must be positive");
  if (options_.nonce == 0) options_.nonce = generate_nonce();

  // Create-or-join: write the header to a temp file and publish it with
  // an exclusive link, so exactly one of N racing workers creates the
  // journal and everyone else joins (and verifies) the winner's file.
  std::string existing;
  if (!fileops::read_file(options_.path, existing)) {
    const std::string header =
        std::string(kMagic) + " " + kVersion + " " + mode_name(options_.mode) + " " +
        std::to_string(options_.domain) + " " + fileops::hex16(options_.fingerprint);
    const std::string tmp = options_.path + ".create." + std::to_string(::getpid()) +
                            "." + std::to_string(options_.nonce);
    fileops::write_file_atomic(tmp, sealed_line(header));
    fileops::publish_exclusive(tmp, options_.path);  // loser just joins
  }
  if (options_.mode == AppendMode::kAtomicAppend) {
    appender_ = std::make_unique<fileops::AppendFile>(options_.path);
  }
  common::MutexLock lock(mutex_);
  refresh_locked();
  if (state_.mode != mode_name(options_.mode)) {
    throw ConfigError("lease journal " + options_.path +
                      " has an incompatible header/mode (expected " +
                      mode_name(options_.mode) + ")");
  }
  if (state_.domain != options_.domain || state_.fingerprint != options_.fingerprint) {
    throw ConfigError(
        "lease journal " + options_.path +
        " was created for a different campaign plan (domain/fingerprint mismatch); "
        "refusing to mix sweeps in one directory");
  }
}

LeaseJournal::~LeaseJournal() = default;

const char* LeaseJournal::mode_name(AppendMode mode) {
  return mode == AppendMode::kAtomicAppend ? "append" : "rename";
}

std::uint64_t LeaseJournal::now_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

// --- reading -----------------------------------------------------------------

std::size_t LeaseJournal::replay(std::string_view bytes, Inspection& state) {
  std::size_t consumed = 0;
  for (std::size_t nl = bytes.find('\n'); nl != std::string_view::npos;
       nl = bytes.find('\n', consumed)) {
    const std::string_view line = bytes.substr(consumed, nl - consumed);
    consumed = nl + 1;
    std::string body;
    if (!unseal_line(line, body) || !apply_line(state, strings::split(body, ' '))) {
      ++state.invalid_lines;
    }
  }
  return consumed;
}

void LeaseJournal::refresh_locked() {
  std::string bytes;
  if (!fileops::read_file(options_.path, bytes)) {
    throw Error("lease journal disappeared: " + options_.path);
  }
  if (bytes.size() <= read_offset_) return;
  read_offset_ += replay(std::string_view(bytes).substr(read_offset_), state_);
}

// --- writing -----------------------------------------------------------------

void LeaseJournal::append_record(const std::string& body) {
  const std::string line = sealed_line(body);
  // Belt over the static bound: no record may outgrow the single-write
  // atomicity window, whatever future record kinds get added.
  HPAC_REQUIRE(line.size() <= kMaxRecordBytes,
               "lease record exceeds the atomic-append bound: " +
                   std::to_string(line.size()) + " bytes");
  if (options_.mode == AppendMode::kAtomicAppend) {
    const int torn_target = torn_append_target();
    if (torn_target > 0 && g_append_count.fetch_add(1) + 1 == torn_target) {
      appender_->append_partial_for_test(
          std::string_view(line).substr(0, line.size() / 2));
      ::raise(SIGKILL);
      for (;;) ::pause();  // unreachable
    }
    appender_->append(line);
    return;
  }
  // Rename-rewrite fallback: serialize writers on the sidecar lock, then
  // republish the whole journal atomically so readers never see a torn
  // or half-appended file even without O_APPEND guarantees.
  fileops::FileLock lock(options_.path + ".lock");
  std::string bytes;
  if (!fileops::read_file(options_.path, bytes)) {
    throw Error("lease journal disappeared: " + options_.path);
  }
  bytes += line;
  fileops::write_file_atomic(options_.path, bytes);
}

std::vector<std::size_t> LeaseJournal::claim(std::size_t first, std::size_t count) {
  common::MutexLock lock(mutex_);
  HPAC_REQUIRE(count > 0 && first + count <= options_.domain,
               "lease claim out of range");
  append_record("C " + std::to_string(first) + " " + std::to_string(count) + " " +
                options_.worker + " " + std::to_string(options_.nonce) + " " +
                std::to_string(now_ms()));
  // Believe only the journal: re-read and keep the indices where our
  // record was first. (A torn/lost claim simply wins nothing.)
  refresh_locked();
  std::vector<std::size_t> won;
  for (std::size_t i = first; i < first + count; ++i) {
    const TupleState& st = state_.tuples[i];
    if (st.claimed && !st.released && st.worker == options_.worker &&
        st.nonce == options_.nonce) {
      won.push_back(i);
    }
  }
  return won;
}

void LeaseJournal::heartbeat() {
  common::MutexLock lock(mutex_);
  append_record("H " + options_.worker + " " + std::to_string(options_.nonce) + " " +
                std::to_string(now_ms()));
}

void LeaseJournal::release(std::size_t tuple) {
  common::MutexLock lock(mutex_);
  HPAC_REQUIRE(tuple < options_.domain, "lease release out of range");
  append_record("R " + std::to_string(tuple) + " " + options_.worker + " " +
                std::to_string(options_.nonce));
}

LeaseJournal::ReclaimOutcome LeaseJournal::try_reclaim(std::size_t tuple) {
  common::MutexLock lock(mutex_);
  HPAC_REQUIRE(tuple < options_.domain, "lease reclaim out of range");
  refresh_locked();
  const TupleState st = state_.tuples[tuple];
  ReclaimOutcome outcome;
  if (!st.claimed || st.released) return outcome;
  if (!owner_expired_locked(st, now_ms())) return outcome;
  outcome.prev_worker = st.worker;
  append_record("X " + std::to_string(tuple) + " " + st.worker + " " +
                std::to_string(st.nonce) + " " + options_.worker + " " +
                std::to_string(options_.nonce) + " " + std::to_string(now_ms()));
  refresh_locked();
  const TupleState& now = state_.tuples[tuple];
  outcome.won = now.claimed && !now.released && now.worker == options_.worker &&
                now.nonce == options_.nonce;
  return outcome;
}

// --- queries -----------------------------------------------------------------

bool LeaseJournal::owner_expired_locked(const TupleState& st, std::uint64_t now) const {
  const auto it = state_.last_seen.find(seen_key(st.worker, st.nonce));
  const std::uint64_t seen = it != state_.last_seen.end() ? it->second : 0;
  return now > seen && now - seen > options_.ttl_ms;
}

bool LeaseJournal::holds(std::size_t tuple) {
  common::MutexLock lock(mutex_);
  refresh_locked();
  const TupleState& st = state_.tuples[tuple];
  return st.claimed && !st.released && st.worker == options_.worker &&
         st.nonce == options_.nonce;
}

LeaseJournal::TupleState LeaseJournal::state(std::size_t tuple) {
  common::MutexLock lock(mutex_);
  HPAC_REQUIRE(tuple < options_.domain, "lease state out of range");
  refresh_locked();
  return state_.tuples[tuple];
}

bool LeaseJournal::all_released(std::size_t first, std::size_t count) {
  common::MutexLock lock(mutex_);
  refresh_locked();
  for (std::size_t i = first; i < first + count; ++i) {
    if (!state_.tuples[i].released) return false;
  }
  return true;
}

std::vector<std::size_t> LeaseJournal::expired(std::size_t first, std::size_t count) {
  common::MutexLock lock(mutex_);
  refresh_locked();
  const std::uint64_t now = now_ms();
  std::vector<std::size_t> out;
  for (std::size_t i = first; i < first + count; ++i) {
    const TupleState& st = state_.tuples[i];
    if (st.claimed && !st.released && owner_expired_locked(st, now)) out.push_back(i);
  }
  return out;
}

std::optional<std::pair<std::size_t, std::size_t>> LeaseJournal::next_unclaimed_run(
    std::size_t domain_count, std::size_t max_len, std::size_t rotate) {
  common::MutexLock lock(mutex_);
  HPAC_REQUIRE(domain_count <= options_.domain, "unclaimed scan out of range");
  if (domain_count == 0 || max_len == 0) return std::nullopt;
  refresh_locked();
  const auto free = [this](std::size_t i) {
    return !state_.tuples[i].claimed && !state_.tuples[i].released;
  };
  for (std::size_t k = 0; k < domain_count; ++k) {
    const std::size_t i = (rotate + k) % domain_count;
    if (!free(i)) continue;
    std::size_t len = 1;
    while (len < max_len && i + len < domain_count && free(i + len)) ++len;
    return std::make_pair(i, len);
  }
  return std::nullopt;
}

std::size_t LeaseJournal::invalid_lines() {
  common::MutexLock lock(mutex_);
  refresh_locked();
  return state_.invalid_lines;
}

// --- inspect -----------------------------------------------------------------

LeaseJournal::Inspection LeaseJournal::inspect(const std::string& path) {
  std::string bytes;
  if (!fileops::read_file(path, bytes)) {
    throw Error("no lease journal at " + path);
  }
  return inspect_bytes(bytes);
}

LeaseJournal::Inspection LeaseJournal::inspect_bytes(std::string_view bytes) {
  Inspection out;
  if (replay(bytes, out) < bytes.size()) ++out.invalid_lines;  // torn tail
  return out;
}

}  // namespace hpac::harness
