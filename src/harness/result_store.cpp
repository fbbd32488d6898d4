#include "harness/result_store.hpp"

#include <unistd.h>

#include <cstdint>
#include <deque>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/fileops.hpp"
#include "harness/campaign.hpp"

namespace hpac::harness {

// --- Log ---------------------------------------------------------------------

/// The append-only record log every snapshot shares. Appends come only
/// from the store's writer (under its writer mutex); the log mutex is held
/// for one in-memory insert or one lookup at a time.
struct ResultStore::Log {
  mutable common::Mutex mutex;
  std::deque<RunRecord> records GUARDED_BY(mutex);  ///< push_back keeps references valid
  std::unordered_map<std::string, std::size_t> index GUARDED_BY(mutex);  ///< key -> position

  std::size_t size() const {
    common::MutexLock lock(mutex);
    return records.size();
  }

  /// Record for `key` if it is among the first `limit` records.
  const RunRecord* find(const std::string& key, std::size_t limit) const {
    common::MutexLock lock(mutex);
    const auto it = index.find(key);
    return it != index.end() && it->second < limit ? &records[it->second] : nullptr;
  }

  const RunRecord& at(std::size_t position) const {
    common::MutexLock lock(mutex);
    return records[position];
  }

  /// Appends `record` under `key` and returns the new length, or 0 (and
  /// changes nothing) when `key` is already present.
  std::size_t add(std::string key, const RunRecord& record) {
    common::MutexLock lock(mutex);
    const auto [slot, inserted] = index.try_emplace(std::move(key), records.size());
    if (!inserted) return 0;
    try {
      records.push_back(record);
    } catch (...) {
      index.erase(slot);  // a failed append leaves the log unchanged
      throw;
    }
    return records.size();
  }
};

// --- Snapshot ----------------------------------------------------------------

const RunRecord* ResultStore::Snapshot::find_key(const std::string& tuple_key) const {
  return size_ == 0 ? nullptr : log_->find(tuple_key, size_);
}

const RunRecord* ResultStore::Snapshot::find(const std::string& benchmark,
                                             const std::string& device,
                                             const std::string& spec_text,
                                             std::uint64_t items_per_thread) const {
  return find_key(Campaign::tuple_key(benchmark, device, spec_text, items_per_thread));
}

const RunRecord& ResultStore::Snapshot::at(std::size_t index) const {
  HPAC_REQUIRE(index < size_, "result store snapshot index out of range");
  return log_->at(index);
}

ResultDb ResultStore::Snapshot::to_db() const {
  ResultDb db;
  for_each([&db](const RunRecord& record) { db.add(record); });
  return db;
}

// --- ResultStore -------------------------------------------------------------

std::string ResultStore::key_of(const RunRecord& record) {
  return Campaign::tuple_key(record.benchmark, record.device, record.spec_text,
                             record.items_per_thread);
}

ResultStore::ResultStore(std::string path, bool read_only)
    : path_(std::move(path)), read_only_(read_only), log_(std::make_shared<Log>()) {
  // Serialize against writers in OTHER processes sharing this journal:
  // append_if_absent holds the same flock around each row. Without it, a
  // peer's complete rows landing between the journal read and the
  // truncate below would be destroyed as a "torn tail". Read-only opens
  // never truncate, so they take no lock (and must work on read-only
  // filesystems where the lock file cannot be created).
  std::optional<fileops::FileLock> open_lock;
  if (persistent() && !read_only_) open_lock.emplace(path_ + ".lock");
  // One read of the journal decides everything: what ResultDb::read
  // accepts resumes, and the stream is left where that ends. Anything
  // past it is a torn tail from a writer killed mid-append — or
  // mid-header, which leaves nothing to resume.
  std::string bytes;
  if (persistent()) fileops::read_file(path_, bytes);
  const std::size_t size = bytes.size();
  std::size_t durable = 0;
  if (size > 0) {
    std::istringstream in(std::move(bytes));
    const ResultDb journal = ResultDb::read(in, /*drop_torn_tail=*/true);
    for (const RunRecord& record : journal.records()) {
      if (log_->add(key_of(record), record) == 0) {
        ++load_stats_.duplicates;  // e.g. two writers raced on one file
      } else {
        ++load_stats_.restored;
      }
    }
    durable = static_cast<std::size_t>(in.tellg());
  }
  const bool resuming = durable > 0;
  HPAC_REQUIRE(!read_only_ || resuming,
               "read-only result store needs an existing journal: " + path_);
  if (persistent() && !read_only_) {
    // The file must shed its torn tail too, or the append stream below
    // would continue it: glued onto a half row, or inside its open quote,
    // the next row would be lost on the following reload.
    if (durable < size) {
      HPAC_REQUIRE(::truncate(path_.c_str(), static_cast<off_t>(durable)) == 0,
                   "cannot drop torn tail of result store journal: " + path_);
    }
    journal_.open(path_, std::ios::app);
    HPAC_REQUIRE(journal_.good(), "cannot open result store journal: " + path_);
    if (!resuming) {
      // An empty table writes exactly the header line, guaranteeing the
      // journal and any final canonical rewrite share one format.
      CsvTable(RunRecord::csv_columns()).write(journal_);
      journal_.flush();
    }
  }
}

ResultStore::~ResultStore() = default;

ResultStore::Snapshot ResultStore::snapshot() const { return Snapshot(log_, log_->size()); }

std::uint64_t ResultStore::append(const RunRecord& record) {
  const std::uint64_t version = append_if_absent(record);
  HPAC_REQUIRE(version != 0, "result store already holds tuple: " + record.benchmark +
                                 " on " + record.device + " '" + record.spec_text + "'");
  return version;
}

std::uint64_t ResultStore::append_if_absent(const RunRecord& record) {
  common::MutexLock lock(writer_mutex_);
  HPAC_REQUIRE(!read_only_, "result store is read-only: " + path_);
  HPAC_REQUIRE(!finalized_, "result store was finalized; no further appends");
  std::string key = key_of(record);
  // The writer lock makes this check-then-add atomic against other appends.
  if (log_->find(key, SIZE_MAX) != nullptr) return 0;
  // Journal first, log second: a version is only ever visible once its
  // row is flushed, so a snapshot can never lead the durable journal.
  if (persistent()) {
    // The flock pairs with the constructor's open-time truncation window
    // in peer processes; O_APPEND then lands the flushed row at the
    // (possibly just-truncated) real end of file.
    fileops::FileLock append_lock(path_ + ".lock");
    write_csv_row(journal_, record.to_row());
    journal_.flush();
  }
  return log_->add(std::move(key), record);
}

void ResultStore::finalize(const ResultDb& canonical) {
  common::MutexLock lock(writer_mutex_);
  HPAC_REQUIRE(!read_only_, "result store is read-only: " + path_);
  HPAC_REQUIRE(!finalized_, "result store was already finalized");
  finalized_ = true;
  if (!persistent()) return;
  journal_.close();
  canonical.save(path_);
}

}  // namespace hpac::harness
