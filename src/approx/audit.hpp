#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/annotated_mutex.hpp"

namespace hpac::approx {

struct RegionBinding;

/// Commit-conflict auditing: runtime validation of a binding's
/// `independent_items` declaration (paper hazard class: silent errors from
/// mislabeled approximation regions).
///
/// The engine's team-sharded fast path is only sound when region
/// invocations of different items really touch disjoint state. Instead of
/// trusting the app author, the auditor tags every committed item with the
/// byte intervals its commit writes (declared by the binding's
/// `commit_extents` callback), folds the per-shard interval logs after the
/// launch, and flags any overlap between distinct items. A differential
/// mode additionally re-executes the launch under a deliberately different
/// — but equally legal — schedule and byte-compares the committed output,
/// catching read-side dependences that address tagging alone cannot see.
namespace audit {

/// What the executor does with audit findings (ExecTuning::audit_mode).
enum class AuditMode {
  kOff,      ///< no instrumentation at all (the dispatch path is untouched)
  kReport,   ///< collect ConflictReports into ExecStats::conflicts
  kEnforce,  ///< throw hpac::ConfigError on the first conflicting launch
};

const char* to_string(AuditMode mode);

/// Parse a CLI-style mode name ("off" / "report" / "enforce").
std::optional<AuditMode> audit_mode_from_string(std::string_view name);

/// The token every audit surface embeds in user-facing text (report-mode
/// record notes, enforce-mode ConfigError messages). Campaign counting
/// keys on it, so all three sites must share this constant rather than
/// re-spelling the word.
inline constexpr const char* kConflictToken = "commit-conflict";

/// One audit finding. Byte positions are offsets into the contiguous run
/// of audited bytes containing the conflict (for the typical one-array
/// commit surface: the offset into that array), not raw pointers, so
/// reports are deterministic across processes and safe to persist in
/// result notes. (Corner case: if the allocator happens to place two
/// audited arrays back-to-back they fold into one run and offsets in the
/// higher one shift by the lower one's size.)
struct ConflictReport {
  enum class Kind {
    kWriteWrite,      ///< two distinct items committed overlapping bytes
    kReadWrite,       ///< one item's declared reads overlap another's writes
    kDifferential,    ///< committed bytes changed under a reordered re-run
    kMissingExtents,  ///< independent_items binding without commit_extents
  };
  Kind kind = Kind::kWriteWrite;
  std::string binding;        ///< RegionBinding::name ("<unnamed>" if empty)
  std::uint64_t item_a = 0;   ///< lower item of the pair (owner, for kDifferential)
  std::uint64_t item_b = 0;   ///< higher item (== item_a for kDifferential)
  std::uint64_t begin = 0;    ///< first overlapping byte (relative offset)
  std::uint64_t end = 0;      ///< one past the last overlapping byte

  std::string to_string() const;
};

/// The channel a binding's extent callbacks declare intervals through.
/// `commit_extents` uses `writes` for item-exclusive output ranges and
/// `commuting` for shared state whose updates commute exactly (atomic
/// counters): commuting ranges are exempt from the overlap check but are
/// still snapshot/restored around differential re-runs so auditing never
/// changes what the application observes. `read_extents` uses `reads`.
class ExtentSink {
 public:
  void writes(const void* ptr, std::size_t len);
  void commuting(const void* ptr, std::size_t len);
  void reads(const void* ptr, std::size_t len);

  /// One tagged interval (implementation detail, public only so the log
  /// containers can name it).
  struct Entry {
    std::uintptr_t begin = 0;
    std::uintptr_t end = 0;
    std::uint64_t item = 0;
  };

 private:
  friend class ShardLog;
  friend class LaunchAudit;
  friend class ExtentImageCache;

  ExtentSink(std::vector<Entry>* writes, std::vector<Entry>* commuting,
             std::vector<Entry>* reads, std::uint64_t item)
      : writes_(writes), commuting_(commuting), reads_(reads), item_(item) {}

  void put(std::vector<Entry>* target, const void* ptr, std::size_t len) const;

  std::vector<Entry>* writes_;     ///< null → channel dropped
  std::vector<Entry>* commuting_;  ///< null → channel dropped
  std::vector<Entry>* reads_;      ///< null → channel dropped
  std::uint64_t item_;
};

/// Per-shard append-only log of audited intervals. Each executor shard
/// owns one log and records into it without synchronization (exactly like
/// its KernelTracker shard); LaunchAudit folds the logs deterministically
/// after the join.
class ShardLog {
 public:
  /// Record the intervals `binding.commit_extents` declares for `item`.
  void record_commit(const RegionBinding& binding, std::uint64_t item);
  /// Record the intervals `binding.read_extents` declares for `item`.
  void record_read(const RegionBinding& binding, std::uint64_t item);

 private:
  friend class LaunchAudit;
  std::vector<ExtentSink::Entry> writes_;
  std::vector<ExtentSink::Entry> reads_;
};

/// Opaque byte image of a launch's declared extents (see LaunchAudit).
class Snapshot {
 private:
  friend class LaunchAudit;
  std::vector<unsigned char> bytes_;
};

/// A merged contiguous byte range of audited memory.
struct ByteInterval {
  std::uintptr_t begin = 0;
  std::uintptr_t end = 0;
};

/// Memoizes the merged extent image a differential audit builds by walking
/// every item through `commit_extents` — the dominant audit cost in a
/// sweep, where the same binding launches hundreds of times with identical
/// extents. The first differential launch of a (binding, n) pair still
/// pays the full walk; while walking, the cache fits the *affine model*
/// (entry k of item i lives at `base_k + i * stride_k` with a constant
/// length — every `bind_row_commit_extents`-style binding). Later launches
/// probe only items {0, 1, n-1}: when the probes reproduce a previously
/// walk-validated shape, the cached merged intervals are reused and the
/// O(n) walk is skipped entirely. The probe includes the base addresses,
/// so a binding that commits into a different buffer each launch (ping-pong
/// stencils) simply occupies one variant slot per buffer. Non-affine
/// bindings are rebuilt exactly, per launch, as before.
///
/// Thread-safe; owned by the RegionExecutor (one cache per executor, so
/// binding addresses — the cache key — cannot collide across executors
/// whose bindings' lifetimes overlap).
class ExtentImageCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;        ///< walks skipped (probe matched a variant)
    std::uint64_t misses = 0;      ///< full walks performed
    std::uint64_t non_affine = 0;  ///< walks whose pattern was not cacheable
  };

  Stats stats() const {
    common::MutexLock lock(mutex_);
    return stats_;
  }

  /// Variants retained per (binding, n) key — enough for a ping-pong pair
  /// plus slack; the oldest variant is evicted beyond this.
  static constexpr std::size_t kMaxVariants = 4;

 private:
  friend class LaunchAudit;

  /// One extent-callback entry under the affine model. `stride` is the
  /// per-item displacement in wrapping address arithmetic, so "negative"
  /// strides work unchanged.
  struct AffineEntry {
    std::uintptr_t base = 0;
    std::uintptr_t stride = 0;
    std::size_t len = 0;
    bool operator==(const AffineEntry&) const = default;
  };
  struct Shape {
    std::vector<AffineEntry> exclusive;
    std::vector<AffineEntry> commuting;
    bool operator==(const Shape&) const = default;
  };
  struct Variant {
    Shape shape;
    std::vector<ByteInterval> exclusive_extents;
    std::vector<ByteInterval> all_extents;
  };
  using Key = std::pair<const void*, std::uint64_t>;  ///< (binding, n)

  /// Probe items {0, 1, n-1} and, on a shape match against a stored
  /// variant, fill the interval vectors and return true.
  bool lookup(const RegionBinding& binding, std::uint64_t n,
              std::vector<ByteInterval>& exclusive_extents,
              std::vector<ByteInterval>& all_extents);

  /// Record a walk-validated shape (missing shape = non-affine, counted
  /// but not stored).
  void store(const RegionBinding& binding, std::uint64_t n,
             std::optional<Shape> shape,
             const std::vector<ByteInterval>& exclusive_extents,
             const std::vector<ByteInterval>& all_extents);

  mutable common::Mutex mutex_;
  std::map<Key, std::vector<Variant>> variants_ GUARDED_BY(mutex_);
  Stats stats_ GUARDED_BY(mutex_);
};

/// Drives the audit of one region launch. Constructed before the launch
/// executes (so the differential pre-image is the true initial state),
/// handed one ShardLog per executor shard, and asked to `analyze()` after
/// the shard merge. The executor owns the policy (throw vs. report and
/// the differential re-run itself); this class owns the mechanism.
class LaunchAudit {
 public:
  /// `shards` is the launch's host-shard count (>= 1). When `differential`
  /// is set the constructor walks items [0, n) through `commit_extents`
  /// to build the union of declared intervals and snapshots its bytes —
  /// unless `cache` (optional) serves the merged image from a previous
  /// walk of the same (binding, n) shape, in which case only items
  /// {0, 1, n-1} are probed.
  LaunchAudit(const RegionBinding& binding, std::uint64_t n, std::size_t shards,
              bool differential, ExtentImageCache* cache = nullptr);

  /// False when the binding lacks `commit_extents`: no logging happens and
  /// `analyze()` yields a single kMissingExtents report instead.
  bool instrumented() const { return instrumented_; }
  bool missing_extents() const { return !instrumented_; }

  ShardLog& log(std::size_t shard) { return logs_[shard]; }

  /// Fold the shard logs and detect write/write and read/write overlaps
  /// between distinct items. Deterministic: the folded interval multiset
  /// is independent of the shard decomposition, reports are emitted in
  /// address order and capped at kMaxReports per kind.
  void analyze();

  /// Whether the executor should perform the differential re-run.
  bool differential_ready() const { return differential_ && instrumented_; }

  /// Byte image of every declared extent (exclusive and commuting).
  Snapshot take_snapshot() const;
  /// Write the pre-launch image (taken at construction) back into memory.
  void restore_pre() const;
  void restore(const Snapshot& snapshot) const;

  /// Compare `reference` (the audited run's post-image) against live
  /// memory (the re-run's post-image) over the item-exclusive extents;
  /// differing ranges become kDifferential reports attributed to the
  /// owning item via the folded write log.
  void compare_with(const Snapshot& reference);

  std::vector<ConflictReport> take_conflicts() { return std::move(conflicts_); }
  const std::string& binding_name() const { return name_; }

  /// Human-readable digest of the first few conflicts (ConfigError text).
  static std::string summarize(const std::vector<ConflictReport>& conflicts);

  static constexpr std::size_t kMaxReports = 8;
  /// Shard count of the differential re-run's reversed schedule. A fixed
  /// constant — never the machine's thread count — so findings are
  /// deterministic across hosts.
  static constexpr std::uint64_t kDifferentialShards = 4;

 private:
  using Interval = ByteInterval;

  void add_conflict(ConflictReport::Kind kind, std::uint64_t item_a, std::uint64_t item_b,
                    std::uintptr_t begin, std::uintptr_t end);
  /// Item of the folded write entry covering `addr` (first in sort order).
  std::uint64_t owner_of(std::uintptr_t addr) const;
  /// Base address of the contiguous audited run containing `addr` — the
  /// offset origin that keeps reports independent of heap layout.
  std::uintptr_t region_base_of(std::uintptr_t addr) const;

  const RegionBinding* binding_;
  std::string name_;
  bool instrumented_ = false;
  bool differential_ = false;
  std::vector<ShardLog> logs_;
  std::vector<ConflictReport> conflicts_;
  std::vector<ExtentSink::Entry> folded_writes_;  ///< sorted, kept by analyze()
  std::vector<Interval> regions_;  ///< merged contiguous audited runs (offset origins)
  std::vector<Interval> all_extents_;             ///< merged exclusive + commuting
  std::vector<Interval> exclusive_extents_;       ///< merged exclusive only
  Snapshot pre_;                                  ///< taken at construction
};

}  // namespace audit
}  // namespace hpac::approx
