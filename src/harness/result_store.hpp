#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>

#include "common/annotated_mutex.hpp"
#include "harness/record.hpp"

namespace hpac::harness {

/// Versioned, snapshot-readable result store over the Campaign journal —
/// the persistence layer that turns one-shot batch sweeps into a serving
/// substrate. One writer appends records through the existing
/// flushed-CSV journal path (so files stay byte-compatible with pre-store
/// campaigns and a killed writer loses at most the in-flight record); any
/// number of readers take immutable snapshots.
///
/// Records are never replaced or removed, so version k is always the
/// prefix [0, k) of one append-only log. A snapshot is that log plus a
/// length.
///
/// Concurrency contract:
///  * `append` serializes writers on the writer mutex, writes + flushes
///    the journal row, and only then inserts the record into the log —
///    a version is never visible before its row is durable.
///  * Readers (`snapshot`, and every lookup on a snapshot) take the log
///    mutex, never the writer lock: a slow writer or journal IO cannot
///    stall them. The trade is that readers are not lock-free — each
///    lookup takes the log mutex — but the writer holds it only for one
///    in-memory insert, so readers wait at most that long.
///  * A snapshot is an immutable value: it sees exactly the records below
///    its length, and record addresses stay valid across later appends
///    (the log is a deque) for as long as any snapshot or the store holds
///    the log — a snapshot may outlive its store.
class ResultStore {
  struct Log;

 public:
  /// An immutable view of the store at one version. Copies are cheap
  /// (one shared pointer); all methods are const and thread-safe.
  class Snapshot {
   public:
    Snapshot() = default;

    /// Number of appends absorbed (restored rows included). Strictly
    /// monotonic across the store's lifetime; two snapshots with equal
    /// versions are the same value.
    std::uint64_t version() const { return size_; }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /// Record for a (benchmark, device, spec, items-per-thread) tuple, or
    /// nullptr. The pointee lives in the store's log and stays valid while
    /// any snapshot of that store (or the store itself) is alive — copy
    /// it out to keep it longer.
    const RunRecord* find(const std::string& benchmark, const std::string& device,
                          const std::string& spec_text,
                          std::uint64_t items_per_thread) const;
    const RunRecord* find_key(const std::string& tuple_key) const;
    bool contains_key(const std::string& tuple_key) const {
      return find_key(tuple_key) != nullptr;
    }

    /// Record by append order (0 = oldest); throws past this snapshot's size.
    const RunRecord& at(std::size_t index) const;

    /// Visit every record in append order. `fn` runs with no lock held,
    /// so it may call back into this snapshot.
    template <typename Fn>
    void for_each(Fn&& fn) const {
      for (std::size_t i = 0; i < size_; ++i) fn(at(i));
    }

    /// Materialize as a ResultDb (append order) for the analysis helpers.
    ResultDb to_db() const;

   private:
    friend class ResultStore;

    Snapshot(std::shared_ptr<const Log> log, std::size_t size)
        : log_(std::move(log)), size_(size) {}

    std::shared_ptr<const Log> log_;
    std::size_t size_ = 0;
  };

  /// Counters of the journal absorption performed by the constructor.
  struct LoadStats {
    std::size_t restored = 0;    ///< rows loaded into the index
    std::size_t duplicates = 0;  ///< journal rows whose tuple was already present
  };

  /// Open (or create) a store journaling to `path`; empty = in-memory
  /// only. An existing journal is absorbed first through
  /// `ResultDb::read(..., drop_torn_tail=true)` — a torn trailing row
  /// (writer killed mid-append) is dropped, duplicate tuples keep the
  /// first occurrence — and subsequent appends continue the same file in
  /// append mode. Before appending resumes, the file is truncated to the
  /// end of the last row that read accepted: a torn row left in place
  /// would swallow the next append (glued onto it, or inside its open
  /// quote). A file with no complete header counts as fresh and gets the
  /// canonical CSV header immediately, so journal and final CSV share one
  /// format.
  ///
  /// `read_only` opens an existing journal (or finalized CSV) for serving
  /// only: the file is never opened for writing, never truncated, and
  /// every append throws. This is what lets a daemon serve a store that
  /// another process owns — or a finalized artifact — without risking a
  /// write to it.
  explicit ResultStore(std::string path = "", bool read_only = false);
  ~ResultStore();

  ResultStore(const ResultStore&) = delete;
  ResultStore& operator=(const ResultStore&) = delete;

  /// The current version: the log's length, read under the log mutex,
  /// never the writer lock.
  Snapshot snapshot() const;

  /// Append one record: journal row written and flushed under the writer
  /// lock, then the record is made visible in the log. Throws hpac::Error
  /// when the record's tuple is already present (the resume paths check
  /// first). Returns the published version.
  std::uint64_t append(const RunRecord& record);

  /// Like `append`, but when the tuple is already present it writes
  /// nothing and returns 0 (never a real version: the first append
  /// publishes version >= 1). For producers racing on one store — e.g. a
  /// TuningService evaluation vs. a concurrent campaign.
  std::uint64_t append_if_absent(const RunRecord& record);

  /// `version()` / `size()` of the latest snapshot.
  std::uint64_t version() const { return snapshot().version(); }
  std::size_t size() const { return snapshot().size(); }

  const std::string& path() const { return path_; }
  bool persistent() const { return !path_.empty(); }
  bool read_only() const { return read_only_; }
  const LoadStats& load_stats() const { return load_stats_; }

  /// Rewrite the journal file as the canonical CSV `db` serializes to
  /// (write-to-temp + atomic rename — the Campaign's final rewrite). The
  /// in-memory index keeps serving the appended order; only the file
  /// changes. No-op for in-memory stores. The journal stream is closed:
  /// finalize is terminal, appends afterwards throw.
  void finalize(const ResultDb& canonical);

  /// The canonical identity key of a record (Campaign::tuple_key order).
  static std::string key_of(const RunRecord& record);

 private:
  std::string path_;
  bool read_only_ = false;
  LoadStats load_stats_;
  common::Mutex writer_mutex_;  ///< serializes append/finalize
  /// Journal stream, open while persistent() && !finalized_. Written by
  /// the constructor (single-threaded) and then only under writer_mutex_.
  std::ofstream journal_ GUARDED_BY(writer_mutex_);
  bool finalized_ GUARDED_BY(writer_mutex_) = false;
  /// Shared with every snapshot; appended to only under writer_mutex_.
  const std::shared_ptr<Log> log_;
};

}  // namespace hpac::harness
