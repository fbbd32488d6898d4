#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/campaign.hpp"
#include "harness/lease_journal.hpp"

namespace hpac::harness {

/// Multi-process campaign execution over one shared directory (ROADMAP
/// item 2): N independent worker processes — possibly on different nodes
/// sharing a filesystem — split one CampaignPlan's tuple space through a
/// LeaseJournal and write results through per-worker ResultStore journals;
/// `finalize` merges everything into the canonical CSV an uninterrupted
/// single-process Campaign produces, byte for byte. The class is claiming
/// plus finalize: each worker evaluates through its own TupleEvaluator,
/// computing the baseline of every (benchmark, device) pair it touches, so
/// workers share nothing but the directory's files.
///
/// Directory layout (`options.dir`):
///   leases.journal          shared claim journal (+ .lock sidecars)
///   results.<worker>.csv    per-worker ResultStore journal (single writer)
///   results.csv             canonical merged CSV, written by finalize()
///
/// Crash-recovery contract:
///  * A tuple's result row is flushed to the owner's journal BEFORE its
///    release record, so a released tuple always has a durable result.
///  * A worker killed at ANY point loses only leases, never results: its
///    unreleased claims expire after the TTL and are reclaimed (and
///    re-evaluated) by surviving workers; the at-most-one extra result a
///    crashed-after-append worker left behind is deduplicated by the
///    kept-first merge. All evaluations are deterministic, so duplicate
///    evaluations are byte-identical and the merged CSV equals the serial
///    reference regardless of kills, restarts, and reclaim interleavings.
///  * A restarted worker (same id, fresh nonce) resumes its own journal:
///    tuples it already persisted are released without re-evaluation.
class DistributedCampaign {
 public:
  struct Options {
    std::string dir;     ///< shared output directory (created if missing)
    std::string worker;  ///< unique-per-live-process id, [A-Za-z0-9_.-]+
    LeaseJournal::AppendMode mode = LeaseJournal::AppendMode::kAtomicAppend;
    std::uint32_t ttl_ms = 3000;        ///< lease expiry
    std::uint32_t heartbeat_ms = 0;     ///< 0 = ttl_ms / 3
    std::size_t claim_chunk = 4;        ///< max tuples claimed per journal record
  };

  /// What one run_worker() invocation did, for logs and test assertions.
  struct WorkerStats {
    std::size_t evaluated = 0;  ///< tuples this worker ran
    std::size_t restored = 0;   ///< tuples released from this worker's own journal
    std::size_t reclaimed = 0;  ///< expired leases this worker took over
    std::size_t lost = 0;       ///< held leases lost to a reclaimer (skipped/stale)
  };

  struct FinalizeStats {
    std::size_t planned = 0;
    std::size_t merged = 0;       ///< == planned on success
    std::size_t duplicates = 0;   ///< extra rows dropped by the kept-first merge
    std::size_t conflicting = 0;  ///< duplicates that were NOT byte-identical
    std::size_t stale = 0;        ///< journal rows not part of this plan
    std::size_t journals = 0;     ///< worker journals merged
  };

  /// `campaign` supplies the tuple enumeration and must outlive this
  /// object. Every cooperating process must construct its Campaign from
  /// the identical plan — the lease journal's fingerprint (FNV-1a over
  /// the canonical tuple keys) rejects joiners for which that is not true.
  DistributedCampaign(const Campaign& campaign, Options options);

  /// Run this process's worker loop to fleet completion: claim unclaimed
  /// tuple runs, evaluate, persist, release; when nothing is unclaimed,
  /// reclaim expired leases; return once every campaign tuple is released.
  /// Heartbeats run on an internal thread for the duration of the call.
  WorkerStats run_worker();

  /// Merge every results.<worker>.csv (kept-first, canonical plan order)
  /// and atomically publish results.csv. Throws hpac::Error when any plan
  /// tuple has no result (the fleet has not finished). Safe to call from
  /// any process once run_worker() returned everywhere.
  FinalizeStats finalize() const;

  static std::uint64_t plan_fingerprint(const Campaign& campaign);

  std::string lease_path() const;
  /// The journal location inside any fleet directory — for tooling (e.g.
  /// a status view) that inspects a fleet without joining it.
  static std::string lease_path_in(const std::string& dir);
  std::string results_path() const;
  std::string worker_journal_path() const;  ///< this worker's

  const Options& options() const { return options_; }

 private:
  struct Runner;  // per-run_worker state (journal, store, evaluator)

  const Campaign& campaign_;
  Options options_;
  std::uint64_t fingerprint_ = 0;
};

}  // namespace hpac::harness
