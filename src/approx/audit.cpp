#include "approx/audit.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

#include "approx/region.hpp"
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

// --- LaunchAudit -------------------------------------------------------------

LaunchAudit::LaunchAudit(const RegionBinding& binding, std::uint64_t n, std::size_t shards,
                         bool differential, ExtentImageCache* cache)
    : binding_(&binding),
      name_(binding.name.empty() ? std::string("<unnamed>") : binding.name),
      differential_(differential) {
  if (!binding.commit_extents) {
    ConflictReport report;
    report.kind = ConflictReport::Kind::kMissingExtents;
    report.binding = name_;
    conflicts_.push_back(std::move(report));
    return;
  }
  instrumented_ = true;
  logs_.resize(std::max<std::size_t>(1, shards));

  if (!differential_) return;

  // Cheap path first: a previous launch of this (binding, n) pair may have
  // walk-validated the affine extent shape, in which case three endpoint
  // probes replace the O(n) walk below.
  if (cache != nullptr && cache->lookup(binding, n, exclusive_extents_, all_extents_)) {
    pre_ = take_snapshot();
    return;
  }

  // Union of every item's declared intervals: the byte image the
  // differential re-run must be able to save, restore and compare. The
  // walk costs one extent callback per item — audit-mode only, and cheap
  // address arithmetic inside.
  std::vector<Entry> exclusive;
  std::vector<Entry> commuting;
  // Fit the affine model alongside the walk so this full-price launch can
  // seed the cache. Item 0 fixes bases and lengths, item 1 fixes strides,
  // every further item only verifies — one comparison per logged entry.
  std::optional<ExtentImageCache::Shape> shape;
  if (cache != nullptr) shape.emplace();
  const auto fit_channel = [](std::vector<ExtentImageCache::AffineEntry>& model,
                              const std::vector<Entry>& log, std::size_t from,
                              std::uint64_t item) {
    const std::size_t count = log.size() - from;
    if (item == 0) {
      model.reserve(count);
      for (std::size_t k = 0; k < count; ++k) {
        const Entry& e = log[from + k];
        model.push_back(ExtentImageCache::AffineEntry{
            e.begin, 0, static_cast<std::size_t>(e.end - e.begin)});
      }
      return true;
    }
    if (count != model.size()) return false;
    for (std::size_t k = 0; k < count; ++k) {
      const Entry& e = log[from + k];
      ExtentImageCache::AffineEntry& m = model[k];
      if (static_cast<std::size_t>(e.end - e.begin) != m.len) return false;
      if (item == 1) {
        m.stride = e.begin - m.base;  // wrapping arithmetic: any direction
      } else if (e.begin != m.base + static_cast<std::uintptr_t>(item) * m.stride) {
        return false;
      }
    }
    return true;
  };
  for (std::uint64_t item = 0; item < n; ++item) {
    const std::size_t exclusive_from = exclusive.size();
    const std::size_t commuting_from = commuting.size();
    ExtentSink sink(&exclusive, &commuting, nullptr, item);
    binding.commit_extents(item, sink);
    if (shape && !(fit_channel(shape->exclusive, exclusive, exclusive_from, item) &&
                   fit_channel(shape->commuting, commuting, commuting_from, item))) {
      shape.reset();  // not affine: keep walking, skip caching
    }
  }
  const auto merge = [](std::vector<Entry> entries) {
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
  };
  exclusive_extents_ = merge(exclusive);
  exclusive.insert(exclusive.end(), commuting.begin(), commuting.end());
  all_extents_ = merge(std::move(exclusive));
  if (cache != nullptr) {
    cache->store(binding, n, std::move(shape), exclusive_extents_, all_extents_);
  }
  pre_ = take_snapshot();
}

// --- ExtentImageCache --------------------------------------------------------

bool ExtentImageCache::lookup(const RegionBinding& binding, std::uint64_t n,
                              std::vector<ByteInterval>& exclusive_extents,
                              std::vector<ByteInterval>& all_extents) {
  // Probe outside the lock — the extent callbacks are application code.
  const auto probe = [&binding](std::uint64_t item) {
    std::pair<std::vector<ExtentSink::Entry>, std::vector<ExtentSink::Entry>> channels;
    ExtentSink sink(&channels.first, &channels.second, nullptr, item);
    binding.commit_extents(item, sink);
    return channels;
  };
  const auto fix_strides = [](std::vector<AffineEntry>& model,
                              const std::vector<ExtentSink::Entry>& entries) {
    if (entries.size() != model.size()) return false;
    for (std::size_t k = 0; k < model.size(); ++k) {
      if (static_cast<std::size_t>(entries[k].end - entries[k].begin) != model[k].len) {
        return false;
      }
      model[k].stride = entries[k].begin - model[k].base;
    }
    return true;
  };
  const auto check_item = [](const std::vector<AffineEntry>& model,
                             const std::vector<ExtentSink::Entry>& entries,
                             std::uint64_t item) {
    if (entries.size() != model.size()) return false;
    for (std::size_t k = 0; k < model.size(); ++k) {
      if (static_cast<std::size_t>(entries[k].end - entries[k].begin) != model[k].len ||
          entries[k].begin !=
              model[k].base + static_cast<std::uintptr_t>(item) * model[k].stride) {
        return false;
      }
    }
    return true;
  };

  Shape shape;
  {
    const auto first = probe(0);
    for (const ExtentSink::Entry& e : first.first) {
      shape.exclusive.push_back(
          AffineEntry{e.begin, 0, static_cast<std::size_t>(e.end - e.begin)});
    }
    for (const ExtentSink::Entry& e : first.second) {
      shape.commuting.push_back(
          AffineEntry{e.begin, 0, static_cast<std::size_t>(e.end - e.begin)});
    }
  }
  if (n > 1) {
    const auto second = probe(1);
    if (!fix_strides(shape.exclusive, second.first) ||
        !fix_strides(shape.commuting, second.second)) {
      return false;
    }
  }
  if (n > 2) {
    const auto last = probe(n - 1);
    if (!check_item(shape.exclusive, last.first, n - 1) ||
        !check_item(shape.commuting, last.second, n - 1)) {
      return false;
    }
  }

  common::MutexLock lock(mutex_);
  const auto it = variants_.find(Key{&binding, n});
  if (it == variants_.end()) return false;
  for (const Variant& variant : it->second) {
    if (variant.shape == shape) {
      exclusive_extents = variant.exclusive_extents;
      all_extents = variant.all_extents;
      ++stats_.hits;
      return true;
    }
  }
  return false;
}

void ExtentImageCache::store(const RegionBinding& binding, std::uint64_t n,
                             std::optional<Shape> shape,
                             const std::vector<ByteInterval>& exclusive_extents,
                             const std::vector<ByteInterval>& all_extents) {
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
  variants.push_back(Variant{std::move(*shape), exclusive_extents, all_extents});
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
  if (!instrumented_) return;

  std::vector<Entry> writes;
  std::vector<Entry> reads;
  for (const ShardLog& log : logs_) {
    writes.insert(writes.end(), log.writes_.begin(), log.writes_.end());
    reads.insert(reads.end(), log.reads_.begin(), log.reads_.end());
  }
  // Sorting makes the folded multiset — and therefore every report —
  // independent of which shard executed which team. Exact duplicates are
  // dropped: an item's reads are logged at both the gather and accurate
  // wrap points (whichever of the two its technique executes), and a
  // duplicate entry would re-report the same conflict, burning slots of
  // the kMaxReports cap.
  const auto fold = [](std::vector<Entry>& entries) {
    std::sort(entries.begin(), entries.end(), entry_less);
    entries.erase(std::unique(entries.begin(), entries.end(),
                              [](const Entry& a, const Entry& b) {
                                return a.begin == b.begin && a.end == b.end &&
                                       a.item == b.item;
                              }),
                  entries.end());
  };
  fold(writes);
  fold(reads);

  // Offset origins: the contiguous runs of audited bytes (logged writes,
  // logged reads, and — for differential — every declared extent). A
  // report's byte range is expressed relative to its containing run, so
  // multi-array bindings produce the same offsets regardless of where the
  // allocator placed each array.
  {
    std::vector<Entry> all;
    all.reserve(writes.size() + reads.size() + all_extents_.size());
    all.insert(all.end(), writes.begin(), writes.end());
    all.insert(all.end(), reads.begin(), reads.end());
    for (const Interval& iv : all_extents_) all.push_back(Entry{iv.begin, iv.end, 0});
    std::sort(all.begin(), all.end(), entry_less);
    regions_.clear();
    for (const Entry& e : all) {
      if (!regions_.empty() && e.begin <= regions_.back().end) {
        regions_.back().end = std::max(regions_.back().end, e.end);
      } else {
        regions_.push_back(Interval{e.begin, e.end});
      }
    }
  }

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

  folded_writes_ = std::move(writes);
}

Snapshot LaunchAudit::take_snapshot() const {
  Snapshot snapshot;
  std::size_t total = 0;
  for (const Interval& iv : all_extents_) total += iv.end - iv.begin;
  snapshot.bytes_.resize(total);
  std::size_t offset = 0;
  for (const Interval& iv : all_extents_) {
    const std::size_t len = iv.end - iv.begin;
    std::memcpy(snapshot.bytes_.data() + offset, reinterpret_cast<const void*>(iv.begin), len);
    offset += len;
  }
  return snapshot;
}

void LaunchAudit::restore(const Snapshot& snapshot) const {
  std::size_t offset = 0;
  for (const Interval& iv : all_extents_) {
    const std::size_t len = iv.end - iv.begin;
    std::memcpy(reinterpret_cast<void*>(iv.begin), snapshot.bytes_.data() + offset, len);
    offset += len;
  }
}

void LaunchAudit::restore_pre() const { restore(pre_); }

void LaunchAudit::compare_with(const Snapshot& reference) {
  // Map each exclusive interval into the snapshot's all_extents_ layout.
  // Every exclusive interval lies inside exactly one merged all-interval
  // (the all set is a superset and both are merged).
  std::size_t all_index = 0;
  std::size_t all_offset = 0;
  for (const Interval& iv : exclusive_extents_) {
    while (all_index < all_extents_.size() && all_extents_[all_index].end <= iv.begin) {
      all_offset += all_extents_[all_index].end - all_extents_[all_index].begin;
      ++all_index;
    }
    if (all_index >= all_extents_.size()) break;
    const std::size_t start = all_offset + (iv.begin - all_extents_[all_index].begin);
    const auto* live = reinterpret_cast<const unsigned char*>(iv.begin);
    const unsigned char* ref = reference.bytes_.data() + start;
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

std::string LaunchAudit::summarize(const std::vector<ConflictReport>& conflicts) {
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

}  // namespace hpac::approx::audit
