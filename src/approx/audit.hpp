#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/annotated_mutex.hpp"
#include "sim/warp.hpp"

namespace hpac::approx {

struct RegionBinding;

/// Commit-conflict auditing: runtime validation of a binding's
/// `independent_items` declaration (paper hazard class: silent errors from
/// mislabeled approximation regions).
///
/// The engine's warp-sharded fast path is only sound when region
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
/// the ledgers of its own warps); LaunchAudit folds the logs
/// deterministically after the join.
class ShardLog {
 public:
  /// Record the intervals `binding.commit_extents` declares for item
  /// `first_item + lane` of every lane in `lanes`.
  void record_commits(const RegionBinding& binding, std::uint64_t first_item,
                      sim::LaneMask lanes);
  /// Record the intervals `binding.read_extents` declares for item
  /// `first_item + lane` of every lane in `lanes`.
  void record_reads(const RegionBinding& binding, std::uint64_t first_item, sim::LaneMask lanes);

 private:
  friend class LaunchAudit;
  std::vector<ExtentSink::Entry> writes_;
  std::vector<ExtentSink::Entry> reads_;
};

/// Memoizes the merged extent image a differential audit builds by walking
/// every item through `commit_extents` — the dominant audit cost in a
/// sweep, where the same binding launches hundreds of times with identical
/// extents. Every differential launch first probes items {0, 1, n-1} into
/// one *affine shape* (entry k of item i lives at `base_k + i * stride_k`
/// with a constant length — every `bind_row_commit_extents`-style
/// binding). When the shape equals a stored variant of the (binding, n)
/// pair, the cached merged intervals are reused and the O(n) walk is
/// skipped. Otherwise the launch walks every item, checks each against the
/// same shape and stores it as a variant unless some item broke it. The
/// shape includes the base addresses, so a binding that commits into a
/// different buffer each launch (ping-pong stencils) simply occupies one
/// variant slot per buffer. Non-affine bindings are rebuilt exactly, per
/// launch.
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
  using Entry = ExtentSink::Entry;

  /// A merged contiguous byte range of audited memory.
  struct Interval {
    std::uintptr_t begin = 0;
    std::uintptr_t end = 0;
  };
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
  /// The merged intervals a differential audit snapshots and compares.
  struct Image {
    std::vector<Interval> exclusive;  ///< item-exclusive extents only
    std::vector<Interval> all;        ///< exclusive and commuting
  };
  struct Variant {
    Shape shape;
    Image image;
  };
  using Key = std::pair<const void*, std::uint64_t>;  ///< (binding, n)

  /// The affine shape of items {0, 1, n-1}: item 0 fixes bases and
  /// lengths, item 1 the strides, item n-1 must match. Nullopt when they
  /// do not fit one shape.
  static std::optional<Shape> probe(const RegionBinding& binding, std::uint64_t n);
  /// Whether `item`'s logged entries are exactly what `shape` predicts.
  static bool matches(const Shape& shape, std::span<const Entry> exclusive,
                      std::span<const Entry> commuting, std::uint64_t item);

  /// The image of the stored variant of (binding, n) with this shape.
  std::optional<Image> lookup(const RegionBinding& binding, std::uint64_t n,
                              const Shape& shape);
  /// Count a full walk and keep its image under the shape that every
  /// walked item matched (nullopt = non-affine, counted but not stored).
  void store(const RegionBinding& binding, std::uint64_t n, std::optional<Shape> shape,
             const Image& image);

  mutable common::Mutex mutex_;
  std::map<Key, std::vector<Variant>> variants_ GUARDED_BY(mutex_);
  Stats stats_ GUARDED_BY(mutex_);
};

/// The audit of one region launch, opened before it executes and closed
/// after its shards join:
///
///   LaunchAudit audit(binding, n, shards, mode, differential, cache);
///   ... shard s logs its committed extents into audit.log(s) ...
///   conflicts = audit.close(rerun_reversed);
///
/// Opening before the launch makes the differential pre-image the true
/// initial state. Closing folds the shard logs, and with the differential
/// pass re-executes the launch through `rerun_reversed` from the restored
/// pre-image. Under kEnforce every finding becomes a ConfigError.
class LaunchAudit {
 public:
  /// `shards` is the launch's host-shard count (>= 1). Throws ConfigError
  /// under kEnforce when the binding declares no `commit_extents` (the
  /// independence claim cannot be verified); under kReport that launch is
  /// not instrumented and closes with one kMissingExtents report. When
  /// `differential` is set, builds the merged image of every item's
  /// declared extents (served by `cache` when it holds this shape) and
  /// snapshots its bytes; otherwise that image is built only if the launch
  /// has a finding, for its report offsets. `binding` must outlive the
  /// audit.
  LaunchAudit(const RegionBinding& binding, std::uint64_t n, std::size_t shards,
              AuditMode mode, bool differential, ExtentImageCache* cache);

  /// Shard `shard`'s log; null when the launch is not instrumented.
  ShardLog* log(std::size_t shard) { return logs_.empty() ? nullptr : &logs_[shard]; }

  /// Close the audit once every shard has finished. Folds the shard logs
  /// and detects write/write and read/write overlaps between distinct
  /// items; the folded multiset is independent of the shard decomposition
  /// and reports come out in address order, at most kMaxReports. With the
  /// differential pass: snapshots the audited post-image, restores the
  /// pre-image, calls `rerun_reversed` (which must re-execute the launch
  /// on another legal schedule), byte-compares the item-exclusive extents
  /// and restores the audited post-image, so the application observes the
  /// audited run's bytes. Returns the findings (empty when clean); under
  /// kEnforce any finding throws ConfigError instead.
  std::vector<ConflictReport> close(const std::function<void()>& rerun_reversed);

 private:
  using Interval = ExtentImageCache::Interval;
  using Entry = ExtentSink::Entry;
  static constexpr std::size_t kMaxReports = 8;

  /// Sort `entries` and merge overlapping or touching ones.
  static std::vector<Interval> merge(std::vector<Entry> entries);
  /// Walk every item's `commit_extents` into the merged image of the
  /// launch's declared extents; resets `shape` at the first item that does
  /// not fit it.
  ExtentImageCache::Image declared_image(std::optional<ExtentImageCache::Shape>& shape) const;
  void analyze();
  std::vector<unsigned char> snapshot() const;
  void restore(const std::vector<unsigned char>& bytes) const;
  /// Compare `reference` (the audited run's post-image) against live
  /// memory over the item-exclusive extents; differing ranges become
  /// kDifferential reports attributed to the owning item.
  void compare_with(const std::vector<unsigned char>& reference);
  void add_conflict(ConflictReport::Kind kind, std::uint64_t item_a, std::uint64_t item_b,
                    std::uintptr_t begin, std::uintptr_t end);
  /// Item of the folded write entry covering `addr` (first in sort order).
  std::uint64_t owner_of(std::uintptr_t addr) const;
  /// Base address of the contiguous audited run containing `addr` — the
  /// offset origin that keeps reports independent of heap layout.
  std::uintptr_t region_base_of(std::uintptr_t addr) const;

  const RegionBinding& binding_;
  std::uint64_t n_;
  std::string name_;
  AuditMode mode_;
  bool differential_;
  std::vector<ShardLog> logs_;  ///< empty when the launch is not instrumented
  std::vector<ConflictReport> conflicts_;
  std::vector<Entry> folded_writes_;  ///< sorted, kept by analyze()
  std::vector<Entry> folded_reads_;   ///< sorted, kept by analyze()
  std::vector<Interval> regions_;     ///< offset origins, built on the first finding
  ExtentImageCache::Image image_;     ///< differential, or built on the first finding
  std::vector<unsigned char> pre_;    ///< image bytes taken at construction
};

}  // namespace audit
}  // namespace hpac::approx
