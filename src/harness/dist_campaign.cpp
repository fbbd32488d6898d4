#include "harness/dist_campaign.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/annotated_mutex.hpp"
#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/fileops.hpp"
#include "common/strings.hpp"
#include "harness/result_store.hpp"

namespace hpac::harness {

namespace {

constexpr std::uint32_t kPollMs = 20;

/// Fault-injection hook (tests only): HPAC_DIST_TEST_KILL_AFTER=<k>
/// SIGKILLs this process right after its k-th result row is flushed —
/// after the append, before the release record — the worst-ordered crash
/// the recovery contract has to absorb.
int kill_after_target() {
  static const int target = [] {
    const char* env = std::getenv("HPAC_DIST_TEST_KILL_AFTER");
    long long value = 0;
    return env != nullptr && strings::parse_int(env, value) ? static_cast<int>(value)
                                                            : 0;
  }();
  return target;
}

std::atomic<int> g_appends{0};

void maybe_kill_after_append() {
  const int target = kill_after_target();
  if (target > 0 && g_appends.fetch_add(1) + 1 == target) {
    ::raise(SIGKILL);
    for (;;) ::pause();  // unreachable
  }
}

/// Fault-injection hook (tests only): HPAC_DIST_TEST_STALL_MS=<ms> makes
/// the FIRST evaluation of this process touch HPAC_DIST_TEST_STALL_MARKER
/// and then sleep — a deterministic window in which the test can SIGSTOP
/// the worker while it holds live leases (the lease-expiry scenario).
void maybe_stall_for_test() {
  static const long stall_ms = [] {
    const char* env = std::getenv("HPAC_DIST_TEST_STALL_MS");
    long long value = 0;
    return env != nullptr && strings::parse_int(env, value)
               ? static_cast<long>(value)
               : 0L;
  }();
  if (stall_ms <= 0) return;
  static std::atomic<bool> done{false};
  if (done.exchange(true)) return;
  if (const char* marker = std::getenv("HPAC_DIST_TEST_STALL_MARKER")) {
    fileops::write_file_atomic(marker, "stalled\n");
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms));
}

std::string row_signature(const RunRecord& record) {
  std::ostringstream os;
  write_csv_row(os, record.to_row());
  return os.str();
}

}  // namespace

// --- construction / paths ----------------------------------------------------

DistributedCampaign::DistributedCampaign(const Campaign& campaign, Options options)
    : campaign_(campaign), options_(std::move(options)) {
  HPAC_REQUIRE(!options_.dir.empty(), "distributed campaign needs a directory");
  HPAC_REQUIRE(!options_.worker.empty(), "distributed campaign needs a worker id");
  HPAC_REQUIRE(options_.claim_chunk > 0, "claim chunk must be positive");
  if (options_.heartbeat_ms == 0) {
    options_.heartbeat_ms = std::max<std::uint32_t>(options_.ttl_ms / 3, 10);
  }
  fileops::ensure_dir(options_.dir);
  fingerprint_ = plan_fingerprint(campaign_);
}

std::uint64_t DistributedCampaign::plan_fingerprint(const Campaign& campaign) {
  std::string all;
  for (const std::string& key : campaign.tuple_keys()) {
    all += key;
    all += '\n';
  }
  return fileops::fnv1a64(all);
}

std::string DistributedCampaign::lease_path() const {
  return lease_path_in(options_.dir);
}

std::string DistributedCampaign::lease_path_in(const std::string& dir) {
  return dir + "/leases.journal";
}

std::string DistributedCampaign::results_path() const {
  return options_.dir + "/results.csv";
}

std::string DistributedCampaign::worker_journal_path() const {
  return options_.dir + "/results." + options_.worker + ".csv";
}

// --- worker loop -------------------------------------------------------------

struct DistributedCampaign::Runner {
  const DistributedCampaign& dist;
  const Campaign& campaign;
  LeaseJournal journal;
  ResultStore store;
  TupleEvaluator evaluator;
  WorkerStats stats;

  // Heartbeat thread state.
  common::Mutex hb_mutex;
  common::CondVar hb_cv;
  bool hb_stop GUARDED_BY(hb_mutex) = false;
  std::thread hb_thread;

  explicit Runner(const DistributedCampaign& d)
      : dist(d),
        campaign(d.campaign_),
        journal(LeaseJournal::Options{
            d.lease_path(), d.options_.worker, /*nonce=*/0, d.campaign_.tuple_count(),
            d.fingerprint_, d.options_.mode, d.options_.ttl_ms}),
        store(d.worker_journal_path()) {}

  void start_heartbeats() {
    hb_thread = std::thread([this] {
      common::UniqueMutexLock lock(hb_mutex);
      while (!hb_stop) {
        journal.heartbeat();
        // Explicit deadline loop (not a predicate lambda, which the
        // thread-safety analysis cannot see into): sleep until the next
        // beat is due or stop_heartbeats() wakes us.
        const auto next_beat = std::chrono::steady_clock::now() +
                               std::chrono::milliseconds(dist.options_.heartbeat_ms);
        while (!hb_stop &&
               hb_cv.wait_until(lock, next_beat) != std::cv_status::timeout) {
        }
      }
    });
  }

  void stop_heartbeats() {
    {
      common::MutexLock lock(hb_mutex);
      hb_stop = true;
    }
    hb_cv.notify_all();
    hb_thread.join();
  }

  void process_tuple(std::size_t tuple) {
    const std::string& key = campaign.tuple_keys()[tuple];
    if (store.snapshot().contains_key(key)) {
      // Restart path: a previous incarnation persisted this tuple but died
      // before releasing it. The result is durable; just release.
      journal.release(tuple);
      ++stats.restored;
      return;
    }
    if (!journal.holds(tuple)) {
      // Lease was reclaimed (e.g. while this worker was frozen); the new
      // owner evaluates it.
      ++stats.lost;
      return;
    }
    maybe_stall_for_test();
    const Campaign::Tuple t = campaign.tuple(tuple);
    const RunRecord record =
        evaluator.evaluate(t.benchmark, t.device, t.spec, t.items_per_thread);
    // Result row flushed BEFORE the release record: a released tuple
    // always has a durable result somewhere, and a crash between the two
    // leaves at most a duplicate evaluation for the merge to drop.
    if (store.append_if_absent(record) != 0) maybe_kill_after_append();
    journal.release(tuple);
    ++stats.evaluated;
  }

  WorkerStats run() {
    const std::size_t n = campaign.tuple_count();
    start_heartbeats();
    try {
      // Spread workers over the tuple space instead of racing on index 0.
      std::size_t rotate = static_cast<std::size_t>(journal.options().nonce) % n;
      for (;;) {
        const auto run = journal.next_unclaimed_run(n, dist.options_.claim_chunk, rotate);
        if (run.has_value()) {
          rotate = (run->first + run->second) % n;
          for (const std::size_t tuple : journal.claim(run->first, run->second)) {
            process_tuple(tuple);
          }
          continue;
        }
        if (journal.all_released(0, n)) break;
        bool progress = false;
        for (const std::size_t tuple : journal.expired(0, n)) {
          const auto outcome = journal.try_reclaim(tuple);
          if (outcome.won) {
            ++stats.reclaimed;
            process_tuple(tuple);
            progress = true;
          }
        }
        if (!progress) {
          // Everything is claimed by live owners (or just released);
          // wait for releases to land or leases to expire.
          std::this_thread::sleep_for(std::chrono::milliseconds(kPollMs));
        }
      }
    } catch (...) {
      stop_heartbeats();
      throw;
    }
    stop_heartbeats();
    return stats;
  }
};

DistributedCampaign::WorkerStats DistributedCampaign::run_worker() {
  Runner runner(*this);
  return runner.run();
}

// --- finalize ----------------------------------------------------------------

DistributedCampaign::FinalizeStats DistributedCampaign::finalize() const {
  namespace fs = std::filesystem;
  FinalizeStats stats;
  stats.planned = campaign_.tuple_count();

  // Deterministic merge order: every worker journal, sorted by name.
  // (Order only affects which duplicate is "first"; duplicates are
  // byte-identical for deterministic evaluations anyway.)
  std::vector<std::string> journals;
  const std::string self = fs::path(results_path()).filename().string();
  for (const auto& entry : fs::directory_iterator(options_.dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("results.", 0) == 0 && name.size() > 4 &&
        name.compare(name.size() - 4, 4, ".csv") == 0 && name != self) {
      journals.push_back(entry.path().string());
    }
  }
  std::sort(journals.begin(), journals.end());
  stats.journals = journals.size();

  const std::vector<std::string>& keys = campaign_.tuple_keys();
  std::unordered_map<std::string, std::size_t> index_of;
  index_of.reserve(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) index_of.emplace(keys[i], i);

  std::vector<std::optional<RunRecord>> chosen(keys.size());
  std::vector<std::string> signatures(keys.size());
  for (const std::string& path : journals) {
    // drop_torn_tail: a worker killed mid-row must not block the merge.
    const ResultDb db = ResultDb::load(path, /*drop_torn_tail=*/true);
    for (const RunRecord& record : db.records()) {
      const auto it = index_of.find(ResultStore::key_of(record));
      if (it == index_of.end()) {
        ++stats.stale;
        continue;
      }
      const std::size_t i = it->second;
      if (chosen[i].has_value()) {
        ++stats.duplicates;  // kept-first: a re-evaluated (reclaimed) tuple
        if (signatures[i] != row_signature(record)) ++stats.conflicting;
        continue;
      }
      chosen[i] = record;
      signatures[i] = row_signature(record);
    }
  }

  std::size_t missing = 0;
  for (const auto& record : chosen) missing += record.has_value() ? 0 : 1;
  if (missing > 0) {
    throw Error("distributed campaign incomplete: " + std::to_string(missing) + " of " +
                std::to_string(keys.size()) + " tuples have no result in " +
                options_.dir);
  }

  // Canonical plan order, published atomically — the same bytes
  // Campaign::run + ResultStore::finalize produce (ResultDb::save both
  // times).
  ResultDb canonical;
  for (auto& record : chosen) canonical.add(std::move(*record));
  stats.merged = canonical.size();
  canonical.save(results_path());
  return stats;
}

}  // namespace hpac::harness
