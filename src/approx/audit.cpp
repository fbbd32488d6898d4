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

void ExtentSink::declare(const RegionBinding& binding, std::uint64_t item, Channels& into) {
  ExtentSink sink(into, item);
  binding.commit_extents(item, sink);
  if (binding.read_extents) binding.read_extents(item, sink);
}

void ExtentSink::put(Channel channel, const void* ptr, std::size_t len) {
  if (ptr == nullptr || len == 0) return;
  const auto begin = reinterpret_cast<std::uintptr_t>(ptr);
  into_[channel].push_back(Entry{begin, begin + len, item_});
}

void ExtentSink::writes(const void* ptr, std::size_t len) { put(kWrites, ptr, len); }
void ExtentSink::commuting(const void* ptr, std::size_t len) { put(kCommuting, ptr, len); }
void ExtentSink::reads(const void* ptr, std::size_t len) { put(kReads, ptr, len); }

// --- ExtentImageCache --------------------------------------------------------

std::optional<ExtentImageCache::Shape> ExtentImageCache::probe(const RegionBinding& binding,
                                                               std::uint64_t n) {
  const auto extents_of = [&binding](std::uint64_t item) {
    Channels extents;
    ExtentSink::declare(binding, item, extents);
    return extents;
  };
  const Channels first = extents_of(0);
  const Channels second = n > 1 ? extents_of(1) : first;
  // Bases and lengths from item 0, strides (wrapping, so any direction)
  // from item 1; matching item 1 below then checks its lengths.
  Shape shape;
  for (std::size_t c = 0; c < ExtentSink::kChannels; ++c) {
    if (first[c].size() != second[c].size()) return std::nullopt;
    for (std::size_t k = 0; k < first[c].size(); ++k) {
      shape.channels[c].push_back(
          AffineEntry{first[c][k].begin, second[c][k].begin - first[c][k].begin,
                      static_cast<std::size_t>(first[c][k].end - first[c][k].begin)});
    }
  }
  const std::array<std::size_t, ExtentSink::kChannels> whole{};
  if (!matches(shape, second, whole, n > 1 ? 1 : 0)) return std::nullopt;
  if (n > 2 && !matches(shape, extents_of(n - 1), whole, n - 1)) return std::nullopt;
  return shape;
}

bool ExtentImageCache::matches(const Shape& shape, const Channels& extents,
                               const std::array<std::size_t, ExtentSink::kChannels>& from,
                               std::uint64_t item) {
  for (std::size_t c = 0; c < ExtentSink::kChannels; ++c) {
    const std::vector<AffineEntry>& model = shape.channels[c];
    if (extents[c].size() - from[c] != model.size()) return false;
    for (std::size_t k = 0; k < model.size(); ++k) {
      const Entry& entry = extents[c][from[c] + k];
      if (static_cast<std::size_t>(entry.end - entry.begin) != model[k].len ||
          entry.begin != model[k].base + static_cast<std::uintptr_t>(item) * model[k].stride) {
        return false;
      }
    }
  }
  return true;
}

std::shared_ptr<const ExtentImageCache::Declaration> ExtentImageCache::lookup(
    const RegionBinding& binding, std::uint64_t n, const Shape& shape) {
  common::MutexLock lock(mutex_);
  const auto it = variants_.find(Key{&binding, n});
  if (it == variants_.end()) return nullptr;
  for (const Variant& variant : it->second) {
    if (variant.shape == shape) {
      ++stats_.hits;
      return variant.declared;
    }
  }
  return nullptr;
}

void ExtentImageCache::store(const RegionBinding& binding, std::uint64_t n,
                             std::optional<Shape> shape,
                             std::shared_ptr<const Declaration> declared) {
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
  variants.push_back(Variant{std::move(*shape), std::move(declared)});
}

// --- LaunchAudit -------------------------------------------------------------

std::vector<LaunchAudit::Interval> LaunchAudit::merge_sorted(const std::vector<Entry>& sorted) {
  std::vector<Interval> merged;
  for (const Entry& e : sorted) {
    if (!merged.empty() && e.begin <= merged.back().end) {
      merged.back().end = std::max(merged.back().end, e.end);
    } else {
      merged.push_back(Interval{e.begin, e.end});
    }
  }
  return merged;
}

LaunchAudit::LaunchAudit(const RegionBinding& binding, std::uint64_t n, AuditMode mode,
                         bool differential, ExtentImageCache* cache)
    : name_(binding.name.empty() ? std::string("<unnamed>") : binding.name),
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

  // Cheap path first: three probes give the launch's affine shape, and a
  // previous launch of this (binding, n) pair may have walked it already.
  std::optional<ExtentImageCache::Shape> shape;
  if (cache != nullptr) {
    shape = ExtentImageCache::probe(binding, n);
    if (shape) declared_ = cache->lookup(binding, n, *shape);
  }
  if (!declared_) {
    declared_ = walk(binding, n, shape);
    if (cache != nullptr) cache->store(binding, n, std::move(shape), declared_);
  }
  if (differential_) pre_ = snapshot();
}

std::shared_ptr<const LaunchAudit::Declaration> LaunchAudit::walk(
    const RegionBinding& binding, std::uint64_t n,
    std::optional<ExtentImageCache::Shape>& shape) {
  // The walk costs the extent callbacks once per item — audit-mode only,
  // and cheap address arithmetic inside. Each item is checked against the
  // probed shape, so a pattern that is affine only at the probes is not
  // cached.
  ExtentSink::Channels extents;
  for (std::uint64_t item = 0; item < n; ++item) {
    const std::array<std::size_t, ExtentSink::kChannels> from{
        extents[ExtentSink::kWrites].size(), extents[ExtentSink::kCommuting].size(),
        extents[ExtentSink::kReads].size()};
    ExtentSink::declare(binding, item, extents);
    if (shape && !ExtentImageCache::matches(*shape, extents, from, item)) shape.reset();
  }
  std::vector<Entry>& writes = extents[ExtentSink::kWrites];
  std::vector<Entry>& commuting = extents[ExtentSink::kCommuting];
  std::vector<Entry>& reads = extents[ExtentSink::kReads];

  auto declared = std::make_shared<Declaration>();
  // Sorting makes every report independent of the declaration order; a
  // row-major layout declares its writes in address order already.
  if (!std::is_sorted(writes.begin(), writes.end(), entry_less)) {
    std::sort(writes.begin(), writes.end(), entry_less);
  }
  declared->exclusive = merge_sorted(writes);
  if (commuting.empty()) {
    declared->all = declared->exclusive;
  } else {
    std::vector<Entry> both(writes);
    both.insert(both.end(), commuting.begin(), commuting.end());
    std::sort(both.begin(), both.end(), entry_less);
    declared->all = merge_sorted(both);
  }

  // Write/write: each entry against the sorted tail it overlaps. The
  // inner scan ends at the first non-overlapping entry, so disjoint
  // (correct) bindings cost one comparison per entry; findings are
  // capped, and once the cap is hit the scan stops entirely.
  std::vector<ExtentImageCache::Overlap>& overlaps = declared->overlaps;
  for (std::size_t i = 0; i < writes.size() && overlaps.size() < kMaxReports; ++i) {
    for (std::size_t j = i + 1; j < writes.size() && writes[j].begin < writes[i].end; ++j) {
      if (writes[i].item == writes[j].item) continue;
      overlaps.push_back({ConflictReport::Kind::kWriteWrite, writes[i].item, writes[j].item,
                          std::max(writes[i].begin, writes[j].begin),
                          std::min(writes[i].end, writes[j].end)});
      if (overlaps.size() >= kMaxReports) break;
    }
  }

  // Read/write: only reads that touch the merged writes can overlap
  // another item's write, and a correct binding's reads mostly miss them,
  // so only the touching reads are sorted — none, usually. A two-pointer
  // sweep then pairs them with the sorted writes: a read overlapping
  // another item's write observes whichever schedule committed (or did not
  // yet commit) that write.
  std::vector<Entry> touching;
  for (const Entry& r : reads) {
    const auto it = std::partition_point(
        declared->exclusive.begin(), declared->exclusive.end(),
        [&r](const Interval& iv) { return iv.end <= r.begin; });
    if (it != declared->exclusive.end() && it->begin < r.end) touching.push_back(r);
  }
  std::sort(touching.begin(), touching.end(), entry_less);
  std::size_t w = 0;
  for (const Entry& r : touching) {
    if (overlaps.size() >= kMaxReports) break;
    while (w < writes.size() && writes[w].end <= r.begin) ++w;
    for (std::size_t j = w; j < writes.size() && writes[j].begin < r.end; ++j) {
      if (writes[j].item == r.item || writes[j].end <= r.begin) continue;
      overlaps.push_back({ConflictReport::Kind::kReadWrite, r.item, writes[j].item,
                          std::max(r.begin, writes[j].begin), std::min(r.end, writes[j].end)});
      if (overlaps.size() >= kMaxReports) break;
    }
  }

  declared->writes = std::move(writes);
  declared->others = std::move(commuting);
  declared->others.insert(declared->others.end(), reads.begin(), reads.end());
  return declared;
}

std::vector<ConflictReport> LaunchAudit::close(const std::function<void()>& rerun_reversed) {
  if (declared_) {
    for (const ExtentImageCache::Overlap& o : declared_->overlaps) {
      add_conflict(o.kind, o.item_a, o.item_b, o.begin, o.end);
    }
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
    // never reads them): the contiguous runs of every item's declared
    // bytes. A report's byte range is expressed relative to its containing
    // run, so multi-array bindings produce the same offsets regardless of
    // where the allocator placed each array.
    std::vector<Entry> all(declared_->writes);
    all.insert(all.end(), declared_->others.begin(), declared_->others.end());
    std::sort(all.begin(), all.end(), entry_less);
    regions_ = merge_sorted(all);
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
  return origin;  // unreachable for declared addresses; keep offsets sane anyway
}

std::uint64_t LaunchAudit::owner_of(std::uintptr_t addr) const {
  for (const Entry& e : declared_->writes) {
    if (e.begin > addr) break;  // sorted by begin: nothing later can cover addr
    if (addr < e.end) return e.item;
  }
  return 0;
}

std::vector<unsigned char> LaunchAudit::snapshot() const {
  std::vector<unsigned char> bytes;
  for (const Interval& iv : declared_->all) {
    const auto* begin = reinterpret_cast<const unsigned char*>(iv.begin);
    bytes.insert(bytes.end(), begin, begin + (iv.end - iv.begin));
  }
  return bytes;
}

void LaunchAudit::restore(const std::vector<unsigned char>& bytes) const {
  std::size_t offset = 0;
  for (const Interval& iv : declared_->all) {
    const std::size_t len = iv.end - iv.begin;
    std::memcpy(reinterpret_cast<void*>(iv.begin), bytes.data() + offset, len);
    offset += len;
  }
}

void LaunchAudit::compare_with(const std::vector<unsigned char>& reference) {
  // Map each exclusive interval into the snapshot's `all` layout. Every
  // exclusive interval lies inside exactly one merged all-interval (the
  // all set is a superset and both are merged).
  const std::vector<Interval>& all = declared_->all;
  std::size_t all_index = 0;
  std::size_t all_offset = 0;
  for (const Interval& iv : declared_->exclusive) {
    while (all_index < all.size() && all[all_index].end <= iv.begin) {
      all_offset += all[all_index].end - all[all_index].begin;
      ++all_index;
    }
    if (all_index >= all.size()) break;
    const std::size_t start = all_offset + (iv.begin - all[all_index].begin);
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
