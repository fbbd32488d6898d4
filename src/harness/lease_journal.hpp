#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/annotated_mutex.hpp"
#include "common/fileops.hpp"

namespace hpac::harness {

/// Shared claim journal coordinating N independent worker processes over
/// one tuple domain (the distributed campaign's coordination layer). Every
/// coordination action — claim, heartbeat, release, reclaim — is one
/// appended record; the journal's record ORDER is the single source of
/// truth, so every process derives the identical lease state by replaying
/// it, and "who owns tuple T" never needs a lock shared between processes.
///
/// Record transport comes in two modes:
///  * kAtomicAppend (default): records are single O_APPEND write(2)s
///    sized well under PIPE_BUF, which local filesystems apply atomically
///    even across processes. A killed writer can therefore never leave a
///    half record via this path — torn bytes only enter through real
///    faults (simulated by the fault-injection rig), and the reader
///    SKIPS any line whose checksum or syntax is invalid instead of
///    trusting or rejecting it. Because every protocol decision is
///    "append, re-read, believe only what the journal shows", a lost or
///    mangled record degrades to a lost claim/release and the fleet
///    converges anyway (the tuple is re-claimed or re-evaluated; result
///    merging deduplicates).
///  * kRenameRewrite: the fallback for filesystems without trustworthy
///    cross-process O_APPEND atomicity (e.g. some NFS mounts). Appends
///    take an flock on a sidecar, rewrite the whole journal to a temp
///    file and rename(2) it into place, so readers only ever observe
///    complete journals. All workers of one journal must use one mode;
///    the header records it and a mismatched joiner is rejected.
///
/// Liveness: a lease is held by a (worker, nonce) incarnation and is kept
/// alive by heartbeat records. When the owner's newest timestamp is older
/// than the TTL, any worker may append a compare-and-swap reclaim record
/// naming the expired incumbent; the first such record in journal order
/// transfers the lease and every later racer sees a different incumbent
/// and loses — so an expired tuple is handed to exactly one new owner.
///
/// Record grammar (one line each, space-separated, terminated by a
/// 16-hex-digit FNV-1a checksum of the body):
///   hpac-leases v1 <mode> <domain> <fingerprint>   header (first line)
///   C <first> <count> <worker> <nonce> <ts_ms>     claim a tuple range
///   H <worker> <nonce> <ts_ms>                     heartbeat
///   R <tuple> <worker> <nonce>                     release (result durable)
///   X <tuple> <old_w> <old_nonce> <w> <nonce> <ts> CAS reclaim
class LeaseJournal {
 public:
  enum class AppendMode { kAtomicAppend, kRenameRewrite };

  struct Options {
    std::string path;
    /// Worker identity; [A-Za-z0-9_.-]+ so records stay parseable. Must
    /// be unique among concurrently LIVE workers (a restarted worker
    /// reuses its id with a fresh nonce).
    std::string worker;
    /// Incarnation tag; 0 = generate one (random ^ pid ^ clock).
    std::uint64_t nonce = 0;
    /// Total lease indices: one per campaign tuple.
    std::size_t domain = 0;
    /// Plan fingerprint; all joiners must present the identical value so
    /// two processes can never map one index to different tuples.
    std::uint64_t fingerprint = 0;
    AppendMode mode = AppendMode::kAtomicAppend;
    /// Lease time-to-live: an owner silent for longer is reclaimable.
    std::uint32_t ttl_ms = 3000;
  };

  struct TupleState {
    bool claimed = false;
    bool released = false;
    std::string worker;  ///< current owner (last claim/reclaim winner)
    std::uint64_t nonce = 0;

    bool operator==(const TupleState&) const = default;
  };

  /// The state a replay of journal lines builds: the first valid header
  /// (mode, domain, fingerprint), every tuple's lease and the record
  /// counts. A live journal keeps one as its view; inspect() returns one
  /// for tests and tooling. Invalid lines are skipped and counted.
  struct Inspection {
    std::string mode;
    std::size_t domain = 0;
    std::uint64_t fingerprint = 0;
    std::vector<TupleState> tuples;
    /// Newest timestamp per incarnation, keyed "worker#nonce" — what a
    /// status view compares against the TTL to call an owner live or
    /// expired.
    std::unordered_map<std::string, std::uint64_t> last_seen;
    std::size_t valid_records = 0;
    std::size_t invalid_lines = 0;  ///< torn tail or mangled/glued lines
    std::size_t claims = 0;
    std::size_t heartbeats = 0;
    std::size_t releases = 0;
    std::size_t reclaims = 0;

    bool operator==(const Inspection&) const = default;
  };

  /// Create or join the journal at options.path. Creation races resolve
  /// through an exclusive link publish; the loser verifies the winner's
  /// header (mode, domain, fingerprint) and joins it. Throws
  /// hpac::ConfigError on any mismatch.
  explicit LeaseJournal(Options options);
  ~LeaseJournal();

  LeaseJournal(const LeaseJournal&) = delete;
  LeaseJournal& operator=(const LeaseJournal&) = delete;

  /// Try to claim [first, first+count): appends one claim record, then
  /// re-reads and returns the indices this worker actually won (an
  /// earlier record may have claimed part of the range first).
  std::vector<std::size_t> claim(std::size_t first, std::size_t count);

  /// Record that this worker is alive. Thread-safe like every method; the
  /// campaign calls it from a dedicated heartbeat thread.
  void heartbeat();

  /// Mark a tuple complete. Only meaningful from the current owner — a
  /// stale release (lease since reclaimed) is appended but ignored by
  /// every reader, which is exactly what a worker that lost its lease
  /// mid-evaluation should produce.
  void release(std::size_t tuple);

  struct ReclaimOutcome {
    bool won = false;
    std::string prev_worker;  ///< incumbent the CAS named (set when attempted)
  };

  /// Attempt to take over an expired lease. Returns won=false when the
  /// tuple is unclaimed/released, its owner is still live, or another
  /// reclaimer's record landed first.
  ReclaimOutcome try_reclaim(std::size_t tuple);

  /// Does this worker currently own the (unreleased) tuple?
  bool holds(std::size_t tuple);

  TupleState state(std::size_t tuple);
  bool all_released(std::size_t first, std::size_t count);

  /// Claimed, unreleased tuples in [first, first+count) whose owner has
  /// been silent past the TTL.
  std::vector<std::size_t> expired(std::size_t first, std::size_t count);

  /// First contiguous run (length <= max_len) of unclaimed, unreleased
  /// tuples in [0, domain_count), scanning from a rotated start so
  /// concurrent workers spread over the space instead of racing on the
  /// lowest index. nullopt when everything is claimed or released.
  std::optional<std::pair<std::size_t, std::size_t>> next_unclaimed_run(
      std::size_t domain_count, std::size_t max_len, std::size_t rotate);

  const Options& options() const { return options_; }
  std::size_t invalid_lines();

  static Inspection inspect(const std::string& path);

  /// inspect() over bytes already in memory: one replay, plus one invalid
  /// line for an unterminated tail.
  static Inspection inspect_bytes(std::string_view bytes);

  /// The one journal reader. Applies every '\n'-terminated line of
  /// `bytes` to `state` in order: unseals it, records the first valid
  /// header, applies C/H/R/X records and counts anything else as an
  /// invalid line. Returns the length of the prefix consumed, through the
  /// last '\n'; an unterminated tail is left for the caller. A live
  /// journal replays the bytes past its read offset on every refresh and
  /// advances the offset by the return value — valid in both modes, since
  /// a rename rewrite republishes the old bytes plus one line.
  static std::size_t replay(std::string_view bytes, Inspection& state);

  static std::uint64_t now_ms();
  static const char* mode_name(AppendMode mode);

  /// Worker ids longer than this are rejected at construction. The cap is
  /// what makes kMaxRecordBytes a real bound: every record embeds at most
  /// two worker names.
  static constexpr std::size_t kMaxWorkerNameBytes = 64;

  /// Upper bound on one sealed record line (body + checksum + newline).
  /// The widest record is the CAS reclaim:
  ///   X <tuple> <old_w> <old_nonce> <w> <nonce> <ts>
  /// i.e. one kind byte, four u64 decimal fields (<= 20 digits each), two
  /// worker names (<= kMaxWorkerNameBytes each), seven separating spaces,
  /// the 16-hex-digit FNV-1a seal with its space, and the terminating
  /// newline. The atomic-append mode's whole correctness story rests on
  /// this staying under PIPE_BUF (static_assert in the .cpp), so a single
  /// O_APPEND write(2) can never be torn by the kernel.
  static constexpr std::size_t kMaxRecordBytes =
      1 + 4 * (1 + 20) + 2 * (1 + kMaxWorkerNameBytes) + (1 + 16) + 1;

 private:
  void append_record(const std::string& body) REQUIRES(mutex_);
  /// Replays the bytes appended past read_offset_ into state_.
  void refresh_locked() REQUIRES(mutex_);
  bool owner_expired_locked(const TupleState& st, std::uint64_t now) const
      REQUIRES(mutex_);
  static std::string sealed_line(const std::string& body);

  Options options_;
  mutable common::Mutex mutex_;
  std::unique_ptr<fileops::AppendFile> appender_
      GUARDED_BY(mutex_);  ///< kAtomicAppend only
  /// Replay of the journal's first read_offset_ bytes.
  Inspection state_ GUARDED_BY(mutex_);
  std::size_t read_offset_ GUARDED_BY(mutex_) = 0;
};

}  // namespace hpac::harness
