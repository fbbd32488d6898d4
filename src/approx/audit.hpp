#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace hpac::approx {

struct RegionBinding;

/// Commit-conflict auditing: runtime validation of a binding's
/// `independent_items` declaration (paper hazard class: silent errors from
/// mislabeled approximation regions).
///
/// The engine's warp-sharded fast path is only sound when region
/// invocations of different items really touch disjoint state. Instead of
/// trusting the app author, the auditor checks the binding's own
/// declaration: rows of data (`Extent`) give the bytes each item's commit
/// writes (`commit_extents`) and, optionally, what it reads
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

/// One row of a binding's declared extents (`RegionBinding::commit_extents`
/// or `read_extents`): each item i of [first, last) covers the `len` bytes
/// at `ptr + (i - first) * stride`, so `ptr` points at item `first`'s
/// bytes. The item range is clamped to the launch's [0, n); the default
/// covers every item. The stride may be negative (a reversed layout) or
/// zero (every item touches the same bytes). A null `ptr` or a zero `len`
/// declares nothing.
struct Extent {
  static constexpr std::uint64_t kAllItems = std::numeric_limits<std::uint64_t>::max();

  const void* ptr = nullptr;
  std::ptrdiff_t stride = 0;
  std::size_t len = 0;
  std::uint64_t first = 0;
  std::uint64_t last = kAllItems;
  /// Commit rows only: shared state whose updates commute exactly (an
  /// atomic counter). Commuting rows are exempt from the overlap check but
  /// are still snapshot/restored around differential re-runs, so auditing
  /// never changes what the application observes.
  bool commuting = false;
};

/// The dense row: item i covers the `per_item` consecutive `T`s at
/// `base + i * per_item`.
template <typename T>
Extent dense(const T* base, std::size_t per_item = 1) {
  const std::size_t len = per_item * sizeof(T);
  return Extent{base, static_cast<std::ptrdiff_t>(len), len};
}

/// The audit of one region launch, opened before it executes and closed
/// after its shards join:
///
///   LaunchAudit audit(binding, n, mode, differential, prove);
///   ... the launch runs, unaware of the audit ...
///   conflicts = audit.close(rerun_reversed);
///
/// Opening checks the declaration over items [0, n). With `prove`, the
/// rows alone are first tried: every write row must be self-disjoint,
/// and every pair of write rows and every read/write pair must be
/// hull-disjoint or share a stride at which no two distinct items'
/// bytes meet. A launch the rows prove clean is never walked. Otherwise
/// one walk over every item's entries gives the write/write and
/// read/write overlaps. With the differential pass, opening snapshots the
/// declared bytes, so the pre-image is the true initial state. Closing
/// re-executes the launch through `rerun_reversed` from the restored
/// pre-image when the differential pass is on, then raises every
/// finding. Under kEnforce any finding becomes a ConfigError.
class LaunchAudit {
 public:
  /// Throws ConfigError under kEnforce when the binding declares no
  /// `commit_extents` (the independence claim cannot be verified); under
  /// kReport that launch is not checked and closes with one
  /// kMissingExtents report. `binding` must outlive the constructor only.
  LaunchAudit(const RegionBinding& binding, std::uint64_t n, AuditMode mode, bool differential,
              bool prove);

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
  static constexpr std::size_t kMaxReports = 8;

  /// A merged contiguous byte range of audited memory.
  struct Interval {
    std::uintptr_t begin = 0;
    std::uintptr_t end = 0;
  };
  /// One item's bytes of one row, as the walk expands them; ordered by
  /// begin, then end, then item.
  struct Entry {
    std::uintptr_t begin = 0;
    std::uintptr_t end = 0;
    std::uint64_t item = 0;
    auto operator<=>(const Entry&) const = default;
  };

  /// The merged union of the rows' bytes: write rows, plus commuting
  /// rows when `with_commuting`. A row whose items' bytes abut or overlap
  /// adds its hull; any other row adds each item's bytes.
  static std::vector<Interval> image_of(const std::vector<Extent>& rows, bool with_commuting);
  /// Sort `spans` and merge them into their overlapping or touching runs.
  static std::vector<Interval> merged(std::vector<Interval> spans);
  /// Whether the rows alone show that no two distinct items' writes
  /// overlap and no item reads another's writes.
  bool prove_clean() const;
  /// Expand every row into its items' entries (the walk); the writes come
  /// out sorted, so they give differential owners.
  void expand();
  /// The walk's write/write and read/write overlaps between distinct
  /// items, in address order, raised as findings.
  void add_overlaps();
  std::vector<unsigned char> snapshot() const;
  void restore(const std::vector<unsigned char>& bytes) const;
  /// Compare `reference` (the audited run's post-image) against live
  /// memory over the item-exclusive extents; differing ranges become
  /// kDifferential reports attributed to the owning item.
  void compare_with(const std::vector<unsigned char>& reference);
  void add_conflict(ConflictReport::Kind kind, std::uint64_t item_a, std::uint64_t item_b,
                    std::uintptr_t begin, std::uintptr_t end);
  /// Item of the declared write entry covering `addr` (first in sort order).
  std::uint64_t owner_of(std::uintptr_t addr);
  /// Base address of the contiguous audited run containing `addr` — the
  /// offset origin that keeps reports independent of heap layout.
  std::uintptr_t region_base_of(std::uintptr_t addr);

  std::string name_;
  AuditMode mode_;
  bool differential_;
  bool declared_ = false;  ///< the binding declares commit_extents
  bool walked_ = false;
  std::vector<Extent> commit_rows_;  ///< clamped to [0, n); rows covering nothing dropped
  std::vector<Extent> read_rows_;
  std::vector<Interval> exclusive_;  ///< merged writes (walk, differential compare)
  std::vector<Interval> all_;        ///< merged writes and commuting (snapshot)
  std::vector<Entry> writes_;        ///< walked, sorted; differential owners
  std::vector<Entry> commuting_;     ///< walked; offset origins
  std::vector<Entry> reads_;         ///< walked; read/write overlaps, offset origins
  std::vector<Interval> regions_;    ///< offset origins, built on the first finding
  std::vector<ConflictReport> conflicts_;
  std::vector<unsigned char> pre_;  ///< declared bytes taken at construction (differential)
};

}  // namespace audit
}  // namespace hpac::approx
