#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
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
/// The engine's warp-sharded fast path is only sound when region
/// invocations of different items really touch disjoint state. Instead of
/// trusting the app author, the auditor checks the binding's own
/// declaration: every item of the launch declares the byte intervals its
/// commit writes (`commit_extents`) and, optionally, what it reads
/// (`read_extents`), and any overlap between distinct items is a finding.
/// The check covers items [0, n) whatever the technique skips, so findings
/// do not depend on the technique, and the engine's walk carries no audit
/// code. A differential mode additionally re-executes the launch under a
/// deliberately different — but equally legal — schedule and
/// byte-compares the committed output, catching read-side dependences the
/// declaration does not state.
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

  /// One declared interval and the channels that collect them
  /// (implementation detail, public only so the audit's containers can
  /// name them).
  struct Entry {
    std::uintptr_t begin = 0;
    std::uintptr_t end = 0;
    std::uint64_t item = 0;
  };
  enum Channel : std::size_t { kWrites, kCommuting, kReads, kChannels };
  using Channels = std::array<std::vector<Entry>, kChannels>;

 private:
  friend class LaunchAudit;
  friend class ExtentImageCache;

  ExtentSink(Channels& into, std::uint64_t item) : into_(into), item_(item) {}

  /// Append `item`'s declared extents (commits, then reads) to `into`.
  static void declare(const RegionBinding& binding, std::uint64_t item, Channels& into);
  void put(Channel channel, const void* ptr, std::size_t len);

  Channels& into_;
  std::uint64_t item_;
};

/// Memoizes the declared check of a launch — the walk over every item's
/// `commit_extents` and `read_extents` and everything derived from it —
/// for the same binding launching hundreds of times with identical
/// extents, as it does in a sweep. Every audited launch first probes items
/// {0, 1, n-1} into one *affine shape* (entry k of a channel for item i
/// lives at `base_k + i * stride_k` with a constant length — every
/// `bind_row_commit_extents`-style binding). When the shape equals a
/// stored variant of the (binding, n) pair, the variant's declaration is
/// reused and the O(n) walk is skipped. Otherwise the launch walks every
/// item, checks each against the same shape and stores it as a variant
/// unless some item broke it. The shape includes the base addresses, so a
/// binding that commits into a different buffer each launch (ping-pong
/// stencils) simply occupies one variant slot per buffer. Non-affine
/// bindings are walked exactly, per launch.
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
  using Channels = ExtentSink::Channels;

  /// A merged contiguous byte range of audited memory.
  struct Interval {
    std::uintptr_t begin = 0;
    std::uintptr_t end = 0;
  };
  /// One overlap between distinct items, in absolute addresses; turned
  /// into a ConflictReport (relative offsets) only when it is raised.
  struct Overlap {
    ConflictReport::Kind kind = ConflictReport::Kind::kWriteWrite;
    std::uint64_t item_a = 0;
    std::uint64_t item_b = 0;
    std::uintptr_t begin = 0;
    std::uintptr_t end = 0;
  };
  /// Everything the audit derives from one walk over items [0, n).
  struct Declaration {
    std::vector<Interval> exclusive;  ///< merged writes (differential compare)
    std::vector<Interval> all;        ///< merged writes and commuting (snapshot)
    std::vector<Entry> writes;        ///< sorted; differential owners
    std::vector<Entry> others;        ///< commuting and reads, unsorted; offset origins
    std::vector<Overlap> overlaps;    ///< write/write then read/write, capped
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
    std::array<std::vector<AffineEntry>, ExtentSink::kChannels> channels;
    bool operator==(const Shape&) const = default;
  };
  struct Variant {
    Shape shape;
    std::shared_ptr<const Declaration> declared;
  };
  using Key = std::pair<const void*, std::uint64_t>;  ///< (binding, n)

  /// The affine shape of items {0, 1, n-1}: item 0 fixes bases and
  /// lengths, item 1 the strides, item n-1 must match. Nullopt when they
  /// do not fit one shape.
  static std::optional<Shape> probe(const RegionBinding& binding, std::uint64_t n);
  /// Whether `item`'s entries — those of each channel of `extents` from
  /// index `from[channel]` on — are exactly what `shape` predicts.
  static bool matches(const Shape& shape, const Channels& extents,
                      const std::array<std::size_t, ExtentSink::kChannels>& from,
                      std::uint64_t item);

  /// The declaration of the stored variant of (binding, n) with this shape.
  std::shared_ptr<const Declaration> lookup(const RegionBinding& binding, std::uint64_t n,
                                            const Shape& shape);
  /// Count a full walk and keep its declaration under the shape that
  /// every walked item matched (nullopt = non-affine, counted but not
  /// stored).
  void store(const RegionBinding& binding, std::uint64_t n, std::optional<Shape> shape,
             std::shared_ptr<const Declaration> declared);

  mutable common::Mutex mutex_;
  std::map<Key, std::vector<Variant>> variants_ GUARDED_BY(mutex_);
  Stats stats_ GUARDED_BY(mutex_);
};

/// The audit of one region launch, opened before it executes and closed
/// after its shards join:
///
///   LaunchAudit audit(binding, n, mode, differential, cache);
///   ... the launch runs, unaware of the audit ...
///   conflicts = audit.close(rerun_reversed);
///
/// Opening checks the declaration: one walk over items [0, n) (or a cache
/// hit) gives the write/write and read/write overlaps, and with the
/// differential pass snapshots the declared bytes, so the pre-image is the
/// true initial state. Closing re-executes the launch through
/// `rerun_reversed` from the restored pre-image when the differential
/// pass is on, then raises every finding. Under kEnforce any finding
/// becomes a ConfigError.
class LaunchAudit {
 public:
  /// Throws ConfigError under kEnforce when the binding declares no
  /// `commit_extents` (the independence claim cannot be verified); under
  /// kReport that launch is not checked and closes with one
  /// kMissingExtents report. The walk is served by `cache` when it holds
  /// this launch's shape. `binding` must outlive the constructor only.
  LaunchAudit(const RegionBinding& binding, std::uint64_t n, AuditMode mode, bool differential,
              ExtentImageCache* cache);

  /// Close the audit once every shard has finished. With the differential
  /// pass: snapshots the audited post-image, restores the pre-image, calls
  /// `rerun_reversed` (which must re-execute the launch on another legal
  /// schedule), byte-compares the item-exclusive extents and restores the
  /// audited post-image, so the application observes the audited run's
  /// bytes. Reports come out overlaps first, in address order, then
  /// differential mismatches, at most kMaxReports. Returns the findings
  /// (empty when clean); under kEnforce any finding throws ConfigError
  /// instead.
  std::vector<ConflictReport> close(const std::function<void()>& rerun_reversed);

 private:
  using Interval = ExtentImageCache::Interval;
  using Entry = ExtentSink::Entry;
  using Declaration = ExtentImageCache::Declaration;
  static constexpr std::size_t kMaxReports = 8;

  /// Merge sorted entries into their overlapping or touching runs.
  static std::vector<Interval> merge_sorted(const std::vector<Entry>& sorted);
  /// Walk every item's declared extents and derive the declaration;
  /// resets `shape` at the first item that does not fit it.
  static std::shared_ptr<const Declaration> walk(const RegionBinding& binding, std::uint64_t n,
                                                 std::optional<ExtentImageCache::Shape>& shape);
  std::vector<unsigned char> snapshot() const;
  void restore(const std::vector<unsigned char>& bytes) const;
  /// Compare `reference` (the audited run's post-image) against live
  /// memory over the item-exclusive extents; differing ranges become
  /// kDifferential reports attributed to the owning item.
  void compare_with(const std::vector<unsigned char>& reference);
  void add_conflict(ConflictReport::Kind kind, std::uint64_t item_a, std::uint64_t item_b,
                    std::uintptr_t begin, std::uintptr_t end);
  /// Item of the declared write entry covering `addr` (first in sort order).
  std::uint64_t owner_of(std::uintptr_t addr) const;
  /// Base address of the contiguous audited run containing `addr` — the
  /// offset origin that keeps reports independent of heap layout.
  std::uintptr_t region_base_of(std::uintptr_t addr) const;

  std::string name_;
  AuditMode mode_;
  bool differential_;
  std::shared_ptr<const Declaration> declared_;  ///< null when commit_extents is missing
  std::vector<ConflictReport> conflicts_;
  std::vector<Interval> regions_;   ///< offset origins, built on the first finding
  std::vector<unsigned char> pre_;  ///< declared bytes taken at construction (differential)
};

}  // namespace audit
}  // namespace hpac::approx
