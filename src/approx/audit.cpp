#include "approx/audit.hpp"

#include <algorithm>
#include <cstring>

#include "approx/region.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"

namespace hpac::approx::audit {

namespace {

using Entry = ExtentSink::Entry;

bool entry_less(const Entry& a, const Entry& b) {
  if (a.begin != b.begin) return a.begin < b.begin;
  if (a.end != b.end) return a.end < b.end;
  return a.item < b.item;
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

// --- ExtentSink --------------------------------------------------------------

void ExtentSink::put(std::vector<Entry>* target, const void* ptr, std::size_t len) const {
  if (target == nullptr || ptr == nullptr || len == 0) return;
  const auto begin = reinterpret_cast<std::uintptr_t>(ptr);
  target->push_back(Entry{begin, begin + len, item_});
}

void ExtentSink::writes(const void* ptr, std::size_t len) { put(writes_, ptr, len); }
void ExtentSink::commuting(const void* ptr, std::size_t len) { put(commuting_, ptr, len); }
void ExtentSink::reads(const void* ptr, std::size_t len) { put(reads_, ptr, len); }

// --- ShardLog ----------------------------------------------------------------

void ShardLog::record_commits(const RegionBinding& binding, std::uint64_t first_item,
                              sim::LaneMask lanes) {
  sim::for_each_lane(lanes, [&](int lane) {
    const std::uint64_t item = first_item + static_cast<std::uint64_t>(lane);
    ExtentSink sink(&writes_, nullptr, nullptr, item);
    binding.commit_extents(item, sink);
  });
}

void ShardLog::record_reads(const RegionBinding& binding, std::uint64_t first_item,
                            sim::LaneMask lanes) {
  sim::for_each_lane(lanes, [&](int lane) {
    const std::uint64_t item = first_item + static_cast<std::uint64_t>(lane);
    ExtentSink sink(nullptr, nullptr, &reads_, item);
    binding.read_extents(item, sink);
  });
}

// --- ExtentImageCache --------------------------------------------------------

std::optional<ExtentImageCache::Shape> ExtentImageCache::probe(const RegionBinding& binding,
                                                               std::uint64_t n) {
  const auto extents_of = [&binding](std::uint64_t item) {
    std::pair<std::vector<Entry>, std::vector<Entry>> channels;
    ExtentSink sink(&channels.first, &channels.second, nullptr, item);
    binding.commit_extents(item, sink);
    return channels;
  };
  const auto first = extents_of(0);
  const auto second = n > 1 ? extents_of(1) : first;
  // Bases and lengths from item 0, strides (wrapping, so any direction)
  // from item 1; matching item 1 below then checks its lengths.
  const auto fit = [](const std::vector<Entry>& at0, const std::vector<Entry>& at1,
                      std::vector<AffineEntry>& model) {
    if (at0.size() != at1.size()) return false;
    for (std::size_t k = 0; k < at0.size(); ++k) {
      model.push_back(AffineEntry{at0[k].begin, at1[k].begin - at0[k].begin,
                                  static_cast<std::size_t>(at0[k].end - at0[k].begin)});
    }
    return true;
  };
  Shape shape;
  if (!fit(first.first, second.first, shape.exclusive) ||
      !fit(first.second, second.second, shape.commuting) ||
      !matches(shape, second.first, second.second, n > 1 ? 1 : 0)) {
    return std::nullopt;
  }
  if (n > 2) {
    const auto last = extents_of(n - 1);
    if (!matches(shape, last.first, last.second, n - 1)) return std::nullopt;
  }
  return shape;
}

bool ExtentImageCache::matches(const Shape& shape, std::span<const Entry> exclusive,
                               std::span<const Entry> commuting, std::uint64_t item) {
  const auto fits = [item](const std::vector<AffineEntry>& model, std::span<const Entry> entries) {
    if (entries.size() != model.size()) return false;
    for (std::size_t k = 0; k < model.size(); ++k) {
      if (static_cast<std::size_t>(entries[k].end - entries[k].begin) != model[k].len ||
          entries[k].begin != model[k].base + static_cast<std::uintptr_t>(item) * model[k].stride) {
        return false;
      }
    }
    return true;
  };
  return fits(shape.exclusive, exclusive) && fits(shape.commuting, commuting);
}

std::optional<ExtentImageCache::Image> ExtentImageCache::lookup(const RegionBinding& binding,
                                                                std::uint64_t n,
                                                                const Shape& shape) {
  common::MutexLock lock(mutex_);
  const auto it = variants_.find(Key{&binding, n});
  if (it == variants_.end()) return std::nullopt;
  for (const Variant& variant : it->second) {
    if (variant.shape == shape) {
      ++stats_.hits;
      return variant.image;
    }
  }
  return std::nullopt;
}

void ExtentImageCache::store(const RegionBinding& binding, std::uint64_t n,
                             std::optional<Shape> shape, const Image& image) {
  common::MutexLock lock(mutex_);
  ++stats_.misses;
  if (!shape) {
    ++stats_.non_affine;
    return;
  }
  std::vector<Variant>& variants = variants_[Key{&binding, n}];
  for (const Variant& variant : variants) {
    if (variant.shape == *shape) return;  // raced with an identical walk
  }
  if (variants.size() >= kMaxVariants) variants.erase(variants.begin());
  variants.push_back(Variant{std::move(*shape), image});
}

// --- LaunchAudit -------------------------------------------------------------

LaunchAudit::LaunchAudit(const RegionBinding& binding, std::uint64_t n, std::size_t shards,
                         AuditMode mode, bool differential, ExtentImageCache* cache)
    : binding_(binding),
      n_(n),
      name_(binding.name.empty() ? std::string("<unnamed>") : binding.name),
      mode_(mode),
      differential_(differential) {
  if (!binding.commit_extents) {
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
  logs_.resize(std::max<std::size_t>(1, shards));

  if (!differential_) return;

  // Cheap path first: three probes give the launch's affine shape, and a
  // previous launch of this (binding, n) pair may have walk-validated it.
  std::optional<ExtentImageCache::Shape> shape;
  if (cache != nullptr) shape = ExtentImageCache::probe(binding, n);
  std::optional<ExtentImageCache::Image> cached;
  if (shape) cached = cache->lookup(binding, n, *shape);
  if (cached) {
    image_ = std::move(*cached);
    pre_ = snapshot();
    return;
  }

  // The byte image the differential re-run must be able to save, restore
  // and compare.
  image_ = declared_image(shape);
  if (cache != nullptr) cache->store(binding, n, std::move(shape), image_);
  pre_ = snapshot();
}

ExtentImageCache::Image LaunchAudit::declared_image(
    std::optional<ExtentImageCache::Shape>& shape) const {
  // The walk costs one extent callback per item — audit-mode only, and
  // cheap address arithmetic inside. Each item is checked against the
  // probed shape, so a pattern that is affine only at the probes is not
  // cached.
  std::vector<Entry> exclusive;
  std::vector<Entry> commuting;
  for (std::uint64_t item = 0; item < n_; ++item) {
    const std::size_t exclusive_from = exclusive.size();
    const std::size_t commuting_from = commuting.size();
    ExtentSink sink(&exclusive, &commuting, nullptr, item);
    binding_.commit_extents(item, sink);
    if (shape && !ExtentImageCache::matches(*shape,
                                            std::span(exclusive).subspan(exclusive_from),
                                            std::span(commuting).subspan(commuting_from), item)) {
      shape.reset();
    }
  }
  ExtentImageCache::Image image;
  image.exclusive = merge(exclusive);
  exclusive.insert(exclusive.end(), commuting.begin(), commuting.end());
  image.all = merge(std::move(exclusive));
  return image;
}

std::vector<ConflictReport> LaunchAudit::close(const std::function<void()>& rerun_reversed) {
  if (!logs_.empty()) {
    analyze();
    if (differential_) {
      const std::vector<unsigned char> after = snapshot();
      restore(pre_);
      rerun_reversed();
      compare_with(after);
      restore(after);
    }
  }
  if (!conflicts_.empty() && mode_ == AuditMode::kEnforce) {
    throw ConfigError(std::string(kConflictToken) + " audit failed for binding '" + name_ +
                      "': " + summarize(conflicts_));
  }
  return std::move(conflicts_);
}

std::vector<LaunchAudit::Interval> LaunchAudit::merge(std::vector<Entry> entries) {
  std::vector<Interval> merged;
  std::sort(entries.begin(), entries.end(), entry_less);
  for (const Entry& e : entries) {
    if (!merged.empty() && e.begin <= merged.back().end) {
      merged.back().end = std::max(merged.back().end, e.end);
    } else {
      merged.push_back(Interval{e.begin, e.end});
    }
  }
  return merged;
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
  if (regions_.empty()) {
    // Offset origins, built on a launch's first finding (a clean launch
    // never reads them): the contiguous runs of audited bytes (folded
    // writes, folded reads, and every item's declared commit extents,
    // which the differential pass already holds). A report's byte range is
    // expressed relative to its containing run, so multi-array bindings
    // produce the same offsets regardless of where the allocator placed
    // each array, and items a technique skipped (perforation logs none)
    // cannot split a run and move the origin.
    if (!differential_) {
      std::optional<ExtentImageCache::Shape> no_shape;
      image_ = declared_image(no_shape);
    }
    std::vector<Entry> all(folded_writes_);
    all.insert(all.end(), folded_reads_.begin(), folded_reads_.end());
    for (const Interval& iv : image_.all) all.push_back(Entry{iv.begin, iv.end, 0});
    regions_ = merge(std::move(all));
  }
  const std::uintptr_t origin = region_base_of(begin);
  report.begin = static_cast<std::uint64_t>(begin - origin);
  report.end = static_cast<std::uint64_t>(end - origin);
  conflicts_.push_back(std::move(report));
}

std::uintptr_t LaunchAudit::region_base_of(std::uintptr_t addr) const {
  std::uintptr_t origin = 0;
  for (const Interval& region : regions_) {
    if (region.begin > addr) break;  // sorted: nothing later can contain addr
    if (addr < region.end) return region.begin;
    origin = region.begin;
  }
  return origin;  // unreachable for logged addresses; keep offsets sane anyway
}

std::uint64_t LaunchAudit::owner_of(std::uintptr_t addr) const {
  for (const Entry& e : folded_writes_) {
    if (e.begin > addr) break;  // sorted by begin: nothing later can cover addr
    if (addr < e.end) return e.item;
  }
  return 0;
}

void LaunchAudit::analyze() {
  std::vector<Entry>& writes = folded_writes_;
  std::vector<Entry>& reads = folded_reads_;
  for (const ShardLog& log : logs_) {
    writes.insert(writes.end(), log.writes_.begin(), log.writes_.end());
    reads.insert(reads.end(), log.reads_.begin(), log.reads_.end());
  }
  // Sorting makes the folded multiset — and therefore every report —
  // independent of which shard executed which warp.
  std::sort(writes.begin(), writes.end(), entry_less);
  std::sort(reads.begin(), reads.end(), entry_less);

  // Write/write: each entry against the sorted tail it overlaps. The
  // inner scan ends at the first non-overlapping entry, so disjoint
  // (correct) bindings cost one comparison per entry; reports are capped,
  // and once the cap is hit the scan stops entirely.
  for (std::size_t i = 0; i < writes.size() && conflicts_.size() < kMaxReports; ++i) {
    for (std::size_t j = i + 1; j < writes.size() && writes[j].begin < writes[i].end; ++j) {
      if (writes[i].item == writes[j].item) continue;
      add_conflict(ConflictReport::Kind::kWriteWrite, writes[i].item, writes[j].item,
                   std::max(writes[i].begin, writes[j].begin),
                   std::min(writes[i].end, writes[j].end));
      if (conflicts_.size() >= kMaxReports) break;
    }
  }

  // Read/write: a two-pointer sweep over the sorted interval lists. A
  // read overlapping another item's write means the reader observes
  // whichever schedule committed (or did not yet commit) that write.
  std::size_t w = 0;
  for (const Entry& r : reads) {
    if (conflicts_.size() >= kMaxReports) break;
    while (w < writes.size() && writes[w].end <= r.begin) ++w;
    for (std::size_t j = w; j < writes.size() && writes[j].begin < r.end; ++j) {
      if (writes[j].item == r.item || writes[j].end <= r.begin) continue;
      add_conflict(ConflictReport::Kind::kReadWrite, r.item, writes[j].item,
                   std::max(r.begin, writes[j].begin), std::min(r.end, writes[j].end));
      if (conflicts_.size() >= kMaxReports) break;
    }
  }
}

std::vector<unsigned char> LaunchAudit::snapshot() const {
  std::vector<unsigned char> bytes;
  for (const Interval& iv : image_.all) {
    const auto* begin = reinterpret_cast<const unsigned char*>(iv.begin);
    bytes.insert(bytes.end(), begin, begin + (iv.end - iv.begin));
  }
  return bytes;
}

void LaunchAudit::restore(const std::vector<unsigned char>& bytes) const {
  std::size_t offset = 0;
  for (const Interval& iv : image_.all) {
    const std::size_t len = iv.end - iv.begin;
    std::memcpy(reinterpret_cast<void*>(iv.begin), bytes.data() + offset, len);
    offset += len;
  }
}

void LaunchAudit::compare_with(const std::vector<unsigned char>& reference) {
  // Map each exclusive interval into the snapshot's image_.all layout.
  // Every exclusive interval lies inside exactly one merged all-interval
  // (the all set is a superset and both are merged).
  std::size_t all_index = 0;
  std::size_t all_offset = 0;
  for (const Interval& iv : image_.exclusive) {
    while (all_index < image_.all.size() && image_.all[all_index].end <= iv.begin) {
      all_offset += image_.all[all_index].end - image_.all[all_index].begin;
      ++all_index;
    }
    if (all_index >= image_.all.size()) break;
    const std::size_t start = all_offset + (iv.begin - image_.all[all_index].begin);
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
