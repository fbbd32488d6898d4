#include "approx/audit.hpp"

#include <algorithm>
#include <cstring>

#include "approx/region.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"

namespace hpac::approx::audit {

namespace {

/// The rows of `extents` that declare bytes, with item ranges clamped to
/// [0, n); rows left covering no item are dropped. `ptr` stays item
/// `first`'s bytes, since clamping only lowers `last`.
std::vector<Extent> clamped(const std::vector<Extent>& extents, std::uint64_t n) {
  std::vector<Extent> rows;
  for (Extent row : extents) {
    row.last = std::min(row.last, n);
    if (row.ptr == nullptr || row.len == 0 || row.first >= row.last) continue;
    rows.push_back(row);
  }
  return rows;
}

std::uintptr_t address(const Extent& row) { return reinterpret_cast<std::uintptr_t>(row.ptr); }

/// |stride| in bytes.
std::size_t magnitude(const Extent& row) {
  return row.stride < 0 ? static_cast<std::size_t>(0) - static_cast<std::size_t>(row.stride)
                        : static_cast<std::size_t>(row.stride);
}

/// The address range [lo, hi) spanned by a clamped row's items.
struct Hull {
  std::uintptr_t lo = 0;
  std::uintptr_t hi = 0;
};

Hull hull(const Extent& row) {
  const std::uintptr_t reach = (row.last - row.first - 1) * magnitude(row);
  const std::uintptr_t lo = row.stride < 0 ? address(row) - reach : address(row);
  return Hull{lo, lo + reach + row.len};
}

/// Call fn(begin, end, item) for every item of a clamped row.
template <typename Fn>
void for_each_item(const Extent& row, Fn fn) {
  std::uintptr_t begin = address(row);
  const auto step = static_cast<std::uintptr_t>(row.stride);  // wraps for negative strides
  for (std::uint64_t item = row.first; item < row.last; ++item, begin += step) {
    fn(begin, begin + row.len, item);
  }
}

/// Exact for any row the audit sees: addresses, strides and item indices
/// each fit 64 bits, so products of two of them fit 128.
using Wide = __int128;

Wide floor_div(Wide a, Wide b) {  // b > 0
  return a / b - (a % b != 0 && a < 0 ? 1 : 0);
}

/// Whether some item i of clamped row `a` and some item j != i of clamped
/// row `b` may cover overlapping bytes, given that their hulls overlap.
/// Rows of unequal stride are assumed to. With a common stride s, item i
/// of `a` starts d0 + k * s bytes past item j of `b`, where k = i - j and
/// d0 is fixed, so the two overlap exactly when -len_a < d0 + k * s <
/// len_b: the offsets k inside that window, among those the item ranges
/// realize, must all be zero.
bool distinct_items_may_meet(const Extent& a, const Extent& b) {
  if (a.stride != b.stride) return true;
  Wide s = a.stride;
  const Wide d0 = static_cast<Wide>(address(a)) - static_cast<Wide>(address(b)) -
                  (static_cast<Wide>(a.first) - static_cast<Wide>(b.first)) * s;
  Wide k_min = static_cast<Wide>(a.first) - static_cast<Wide>(b.last - 1);
  Wide k_max = static_cast<Wide>(a.last - 1) - static_cast<Wide>(b.first);
  const Wide len_a = static_cast<Wide>(a.len);
  const Wide len_b = static_cast<Wide>(b.len);
  if (s == 0) {
    if (d0 <= -len_a || d0 >= len_b) return false;
  } else {
    if (s < 0) {  // k -> -k: the same offsets at stride |s|
      s = -s;
      const Wide lo = -k_max;
      k_max = -k_min;
      k_min = lo;
    }
    // -len_a - d0 < k * s < len_b - d0
    k_min = std::max(k_min, floor_div(-len_a - d0, s) + 1);
    k_max = std::min(k_max, -floor_div(d0 - len_b, s) - 1);
  }
  return k_min <= k_max && (k_min != 0 || k_max != 0);
}

const char* kind_name(ConflictReport::Kind kind) {
  switch (kind) {
    case ConflictReport::Kind::kWriteWrite:
      return "write/write overlap";
    case ConflictReport::Kind::kReadWrite:
      return "read/write overlap";
    case ConflictReport::Kind::kDifferential:
      return "differential mismatch";
    case ConflictReport::Kind::kMissingExtents:
      return "missing extents";
  }
  return "?";
}

/// Digest of the first few conflicts (enforce-mode ConfigError text).
std::string summarize(const std::vector<ConflictReport>& conflicts) {
  std::string text;
  const std::size_t shown = std::min<std::size_t>(conflicts.size(), 3);
  for (std::size_t i = 0; i < shown; ++i) {
    if (!text.empty()) text += "; ";
    text += conflicts[i].to_string();
  }
  if (conflicts.size() > shown) {
    text += strings::format(" (+%zu more)", conflicts.size() - shown);
  }
  return text;
}

}  // namespace

const char* to_string(AuditMode mode) {
  switch (mode) {
    case AuditMode::kOff:
      return "off";
    case AuditMode::kReport:
      return "report";
    case AuditMode::kEnforce:
      return "enforce";
  }
  return "?";
}

std::optional<AuditMode> audit_mode_from_string(std::string_view name) {
  if (name == "off") return AuditMode::kOff;
  if (name == "report") return AuditMode::kReport;
  if (name == "enforce") return AuditMode::kEnforce;
  return std::nullopt;
}

std::string ConflictReport::to_string() const {
  if (kind == Kind::kMissingExtents) {
    return strings::format(
        "missing extents: binding '%s' declares independent_items but no commit_extents",
        binding.c_str());
  }
  if (kind == Kind::kDifferential) {
    return strings::format("differential mismatch: item %llu, bytes [%llu,%llu) of '%s'",
                           static_cast<unsigned long long>(item_a),
                           static_cast<unsigned long long>(begin),
                           static_cast<unsigned long long>(end), binding.c_str());
  }
  return strings::format("%s: items %llu and %llu, bytes [%llu,%llu) of '%s'",
                         kind_name(kind), static_cast<unsigned long long>(item_a),
                         static_cast<unsigned long long>(item_b),
                         static_cast<unsigned long long>(begin),
                         static_cast<unsigned long long>(end), binding.c_str());
}

// --- LaunchAudit -------------------------------------------------------------

LaunchAudit::LaunchAudit(const RegionBinding& binding, std::uint64_t n, AuditMode mode,
                         bool differential, bool prove)
    : name_(binding.name.empty() ? std::string("<unnamed>") : binding.name),
      mode_(mode),
      differential_(differential),
      declared_(!binding.commit_extents.empty()) {
  if (!declared_) {
    if (mode_ == AuditMode::kEnforce) {
      throw ConfigError(std::string(kConflictToken) + " audit: binding '" + name_ +
                        "' declares independent_items but no commit_extents; the claim "
                        "cannot be verified");
    }
    ConflictReport report;
    report.kind = ConflictReport::Kind::kMissingExtents;
    report.binding = name_;
    conflicts_.push_back(std::move(report));
    return;
  }
  commit_rows_ = clamped(binding.commit_extents, n);
  read_rows_ = clamped(binding.read_extents, n);

  // Cheap path first: a launch the rows prove clean has no overlap to
  // report, so it is never walked. Any other launch walks every item.
  exclusive_ = image_of(commit_rows_, /*with_commuting=*/false);
  if (!prove || !prove_clean()) {
    expand();
    add_overlaps();
  }
  if (differential_) {
    all_ = image_of(commit_rows_, /*with_commuting=*/true);
    pre_ = snapshot();
  }
}

std::vector<LaunchAudit::Interval> LaunchAudit::merged(std::vector<Interval> spans) {
  std::sort(spans.begin(), spans.end(),
            [](const Interval& a, const Interval& b) { return a.begin < b.begin; });
  std::vector<Interval> runs;
  for (const Interval& iv : spans) {
    if (!runs.empty() && iv.begin <= runs.back().end) {
      runs.back().end = std::max(runs.back().end, iv.end);
    } else {
      runs.push_back(iv);
    }
  }
  return runs;
}

std::vector<LaunchAudit::Interval> LaunchAudit::image_of(const std::vector<Extent>& rows,
                                                         bool with_commuting) {
  std::vector<Interval> spans;
  for (const Extent& row : rows) {
    if (row.commuting && !with_commuting) continue;
    if (row.last - row.first == 1 || magnitude(row) <= row.len) {
      const Hull h = hull(row);
      spans.push_back(Interval{h.lo, h.hi});
    } else {
      for_each_item(row, [&spans](std::uintptr_t begin, std::uintptr_t end, std::uint64_t) {
        spans.push_back(Interval{begin, end});
      });
    }
  }
  return merged(std::move(spans));
}

bool LaunchAudit::prove_clean() const {
  struct Hulled {
    Hull hull;
    const Extent* row;
    bool write;
  };
  std::vector<Hulled> rows;
  for (const Extent& w : commit_rows_) {
    if (w.commuting) continue;
    // Self-disjoint: consecutive items' bytes never meet.
    if (w.last - w.first > 1 && magnitude(w) < w.len) return false;
    rows.push_back(Hulled{hull(w), &w, true});
  }
  for (const Extent& r : read_rows_) rows.push_back(Hulled{hull(r), &r, false});
  // Sweep in hull order: each row meets only the later rows whose hulls
  // start inside its own, so disjoint rows cost a sort, however many
  // single-item rows an irregular pattern declares.
  std::sort(rows.begin(), rows.end(),
            [](const Hulled& a, const Hulled& b) { return a.hull.lo < b.hull.lo; });
  for (std::size_t a = 0; a < rows.size(); ++a) {
    for (std::size_t b = a + 1; b < rows.size() && rows[b].hull.lo < rows[a].hull.hi; ++b) {
      if ((rows[a].write || rows[b].write) &&
          distinct_items_may_meet(*rows[a].row, *rows[b].row)) {
        return false;
      }
    }
  }
  return true;
}

void LaunchAudit::expand() {
  walked_ = true;
  // The walk costs a few address computations per item and row, and only
  // on launches the rows do not prove clean (or that have a finding).
  for (const Extent& row : commit_rows_) {
    std::vector<Entry>& into = row.commuting ? commuting_ : writes_;
    for_each_item(row, [&into](std::uintptr_t begin, std::uintptr_t end, std::uint64_t item) {
      into.push_back(Entry{begin, end, item});
    });
  }
  for (const Extent& row : read_rows_) {
    for_each_item(row, [this](std::uintptr_t begin, std::uintptr_t end, std::uint64_t item) {
      reads_.push_back(Entry{begin, end, item});
    });
  }
  // Sorting makes every report independent of the declaration order; a
  // single row-major write row is in address order already.
  if (!std::is_sorted(writes_.begin(), writes_.end())) std::sort(writes_.begin(), writes_.end());
}

void LaunchAudit::add_overlaps() {
  // Write/write: each entry against the sorted tail it overlaps. The
  // inner scan ends at the first non-overlapping entry, so disjoint
  // (correct) bindings cost one comparison per entry; findings are
  // capped, and once the cap is hit the scan stops entirely.
  for (std::size_t i = 0; i < writes_.size() && conflicts_.size() < kMaxReports; ++i) {
    for (std::size_t j = i + 1; j < writes_.size() && writes_[j].begin < writes_[i].end; ++j) {
      if (writes_[i].item == writes_[j].item) continue;
      add_conflict(ConflictReport::Kind::kWriteWrite, writes_[i].item, writes_[j].item,
                   std::max(writes_[i].begin, writes_[j].begin),
                   std::min(writes_[i].end, writes_[j].end));
      if (conflicts_.size() >= kMaxReports) break;
    }
  }

  // Read/write: only reads that touch the merged writes can overlap
  // another item's write, and a correct binding's reads mostly miss them,
  // so only the touching reads are sorted — none, usually. A two-pointer
  // sweep then pairs them with the sorted writes: a read overlapping
  // another item's write observes whichever schedule committed (or did not
  // yet commit) that write.
  std::vector<Entry> touching;
  for (const Entry& r : reads_) {
    const auto it =
        std::partition_point(exclusive_.begin(), exclusive_.end(),
                             [&r](const Interval& iv) { return iv.end <= r.begin; });
    if (it != exclusive_.end() && it->begin < r.end) touching.push_back(r);
  }
  std::sort(touching.begin(), touching.end());
  std::size_t w = 0;
  for (const Entry& r : touching) {
    if (conflicts_.size() >= kMaxReports) break;
    while (w < writes_.size() && writes_[w].end <= r.begin) ++w;
    for (std::size_t j = w; j < writes_.size() && writes_[j].begin < r.end; ++j) {
      if (writes_[j].item == r.item || writes_[j].end <= r.begin) continue;
      add_conflict(ConflictReport::Kind::kReadWrite, r.item, writes_[j].item,
                   std::max(r.begin, writes_[j].begin), std::min(r.end, writes_[j].end));
      if (conflicts_.size() >= kMaxReports) break;
    }
  }
}

std::vector<ConflictReport> LaunchAudit::close(const std::function<void()>& rerun_reversed) {
  if (declared_ && differential_) {
    const std::vector<unsigned char> after = snapshot();
    restore(pre_);
    rerun_reversed();
    compare_with(after);
    restore(after);
  }
  if (!conflicts_.empty() && mode_ == AuditMode::kEnforce) {
    throw ConfigError(std::string(kConflictToken) + " audit failed for binding '" + name_ +
                      "': " + summarize(conflicts_));
  }
  return std::move(conflicts_);
}

void LaunchAudit::add_conflict(ConflictReport::Kind kind, std::uint64_t item_a,
                               std::uint64_t item_b, std::uintptr_t begin,
                               std::uintptr_t end) {
  if (conflicts_.size() >= kMaxReports) return;
  ConflictReport report;
  report.kind = kind;
  report.binding = name_;
  report.item_a = std::min(item_a, item_b);
  report.item_b = std::max(item_a, item_b);
  const std::uintptr_t origin = region_base_of(begin);
  report.begin = static_cast<std::uint64_t>(begin - origin);
  report.end = static_cast<std::uint64_t>(end - origin);
  conflicts_.push_back(std::move(report));
}

std::uintptr_t LaunchAudit::region_base_of(std::uintptr_t addr) {
  if (regions_.empty()) {
    // Offset origins, built on a launch's first finding (a clean launch
    // never reads them): the contiguous runs of every item's declared
    // bytes. A report's byte range is expressed relative to its containing
    // run, so multi-array bindings produce the same offsets regardless of
    // where the allocator placed each array.
    if (!walked_) expand();
    std::vector<Interval> spans;
    for (const std::vector<Entry>* entries : {&writes_, &commuting_, &reads_}) {
      for (const Entry& e : *entries) spans.push_back(Interval{e.begin, e.end});
    }
    regions_ = merged(std::move(spans));
  }
  std::uintptr_t origin = 0;
  for (const Interval& region : regions_) {
    if (region.begin > addr) break;  // sorted: nothing later can contain addr
    if (addr < region.end) return region.begin;
    origin = region.begin;
  }
  return origin;  // unreachable for declared addresses; keep offsets sane anyway
}

std::uint64_t LaunchAudit::owner_of(std::uintptr_t addr) {
  if (!walked_) expand();
  for (const Entry& e : writes_) {
    if (e.begin > addr) break;  // sorted by begin: nothing later can cover addr
    if (addr < e.end) return e.item;
  }
  return 0;
}

std::vector<unsigned char> LaunchAudit::snapshot() const {
  std::vector<unsigned char> bytes;
  for (const Interval& iv : all_) {
    const auto* begin = reinterpret_cast<const unsigned char*>(iv.begin);
    bytes.insert(bytes.end(), begin, begin + (iv.end - iv.begin));
  }
  return bytes;
}

void LaunchAudit::restore(const std::vector<unsigned char>& bytes) const {
  std::size_t offset = 0;
  for (const Interval& iv : all_) {
    const std::size_t len = iv.end - iv.begin;
    std::memcpy(reinterpret_cast<void*>(iv.begin), bytes.data() + offset, len);
    offset += len;
  }
}

void LaunchAudit::compare_with(const std::vector<unsigned char>& reference) {
  // Map each exclusive interval into the snapshot's `all` layout. Every
  // exclusive interval lies inside exactly one merged all-interval (the
  // all set is a superset and both are merged).
  std::size_t all_index = 0;
  std::size_t all_offset = 0;
  for (const Interval& iv : exclusive_) {
    while (all_index < all_.size() && all_[all_index].end <= iv.begin) {
      all_offset += all_[all_index].end - all_[all_index].begin;
      ++all_index;
    }
    if (all_index >= all_.size()) break;
    const std::size_t start = all_offset + (iv.begin - all_[all_index].begin);
    const auto* live = reinterpret_cast<const unsigned char*>(iv.begin);
    const unsigned char* ref = reference.data() + start;
    const std::size_t len = iv.end - iv.begin;
    std::size_t b = 0;
    while (b < len && conflicts_.size() < kMaxReports) {
      if (live[b] == ref[b]) {
        ++b;
        continue;
      }
      std::size_t e = b + 1;
      while (e < len && live[e] != ref[e]) ++e;
      const std::uintptr_t addr = iv.begin + b;
      const std::uint64_t item = owner_of(addr);
      add_conflict(ConflictReport::Kind::kDifferential, item, item, addr, iv.begin + e);
      b = e;
    }
    if (conflicts_.size() >= kMaxReports) break;
  }
}

}  // namespace hpac::approx::audit
