#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/annotated_mutex.hpp"
#include "harness/campaign.hpp"
#include "harness/record.hpp"
#include "harness/result_store.hpp"
#include "pragma/spec.hpp"

namespace hpac::harness {

/// One tuning question: a single campaign tuple. `spec_text` is parsed and
/// canonicalized by the service, so clients may send any text
/// `pragma::parse_approx` accepts — equivalent spellings resolve to the
/// same store key.
struct TuningQuery {
  std::string benchmark;
  std::string device;  ///< preset name for sim::device_by_name
  std::string spec_text;
  std::uint64_t items_per_thread = 0;
  /// Per-query answer deadline in milliseconds, 0 = none. A cold query
  /// whose evaluation cannot finish in time degrades to the nearest known
  /// config (kDegraded) instead of blocking past the deadline; with an
  /// empty store it returns kDeadlineExceeded. Memoized answers are
  /// always in time.
  std::uint32_t deadline_ms = 0;
};

enum class TuningStatus : std::uint8_t {
  kOk = 0,    ///< record available (memoized or freshly evaluated)
  kRejected,  ///< admission queue full and nothing to degrade to — retry later
  kError,     ///< malformed query, or evaluation quarantined with no fallback
  kDeadlineExceeded,  ///< deadline elapsed and nothing to degrade to
  kDegraded,  ///< `record` is the nearest KNOWN config, not the asked tuple
};

/// What a query returns. `memoized` is true when the answer came straight
/// from a store snapshot — no evaluation ran and the scheduler was never
/// touched on behalf of this query. A kDegraded answer also carries a
/// record, but for a *different* tuple (compare its identity fields to
/// the query to see how far it is); `error` then explains why the exact
/// answer was unavailable.
struct TuningAnswer {
  TuningStatus status = TuningStatus::kError;
  bool memoized = false;
  RunRecord record;   ///< valid when status is kOk or kDegraded
  std::string error;  ///< set when status != kOk
};

struct TuningServiceConfig {
  /// Bounded admission queue: total tuples enqueued-but-unfinished across
  /// all clients. A query whose tuple would exceed this is answered with
  /// the nearest known config (kDegraded) — or kRejected when the store
  /// knows nothing useful — instead of queued.
  std::size_t max_pending = 64;
  /// Evaluation retry budget per tuple: a tuple whose evaluation throws
  /// is retried on later demand up to this many total attempts, then
  /// quarantined — further queries answer degraded (or kError carrying
  /// the recorded failure) without touching the evaluator again.
  std::size_t max_eval_failures = 3;
  /// Serve-only mode: cold tuples are never admitted or evaluated —
  /// they answer kDegraded from the nearest known config, or kError when
  /// the store has nothing for the benchmark. Pairs with a read-only
  /// ResultStore serving a finalized CSV.
  bool read_only = false;
  /// Test seam: when set, cold tuples are answered by this function
  /// instead of the service's TupleEvaluator — admission, fairness
  /// and memoization behave identically, but evaluation is deterministic
  /// and scheduler-free. Identity fields of the returned record are
  /// overwritten with the tuple's canonical identity.
  std::function<RunRecord(const TuningQuery&, const pragma::ApproxSpec&)> evaluate_override;
};

/// Serving layer over a ResultStore: answers memoized tuples from store
/// snapshots (one log-mutex lookup, never the writer lock) and admits only
/// the *missing* tuples for evaluation, with per-client round-robin
/// fairness and a bounded admission queue (hpacd's core, minus the socket).
///
/// Concurrency contract:
///  * Memoized queries read one store snapshot and touch a short stats
///    lock — they never wait on an evaluation in progress.
///  * Cold queries enqueue their tuple and block until it is in the store
///    or their deadline passes. Identical concurrent queries coalesce
///    onto one evaluation.
///  * Evaluation is work-conserving and client-fair: whichever query
///    thread finds no evaluator running becomes it, and drains the
///    admission queue one tuple per client in rotation, so a client that
///    floods the queue cannot starve a client asking for one tuple.
///  * Cold tuples are evaluated one at a time through one TupleEvaluator,
///    so baselines are cached per (benchmark, device): the first cold
///    tuple of a pair pays for the accurate run, subsequent tuples reuse
///    it — the Campaign's shard economics, applied incrementally.
///
/// Failure contract (the daemon stays up no matter what a tuple does):
///  * A throwing evaluation never propagates: the failure is recorded
///    against the tuple, the evaluator keeps draining other clients'
///    tuples, and the querying thread re-admits for a bounded number of
///    retries before the tuple is quarantined.
///  * Saturation, missed deadlines and quarantined tuples degrade to the
///    nearest known config in the current snapshot instead of stalling —
///    trading exactness for availability, like the approximations the
///    service is tuning.
class TuningService {
 public:
  struct Stats {
    std::uint64_t queries = 0;    ///< total query() calls
    std::uint64_t memoized = 0;   ///< served from a snapshot, no evaluation
    std::uint64_t evaluated = 0;  ///< tuples actually evaluated
    std::uint64_t coalesced = 0;  ///< queries that waited on another's evaluation
    std::uint64_t rejected = 0;   ///< refused outright (nothing to degrade to)
    std::uint64_t degraded = 0;   ///< answered with a nearest-known config
    std::uint64_t deadline_exceeded = 0;  ///< queries whose deadline fired
    std::uint64_t eval_failures = 0;      ///< evaluations that threw
    std::uint64_t quarantined = 0;  ///< tuples that exhausted their retry budget
  };

  /// The store is caller-owned and may be concurrently written by a
  /// Campaign::run(store) on another thread; the service tolerates (and
  /// benefits from) tuples appearing underneath it.
  explicit TuningService(ResultStore& store, TuningServiceConfig config = {});
  ~TuningService();

  TuningService(const TuningService&) = delete;
  TuningService& operator=(const TuningService&) = delete;

  /// Answer one tuple on behalf of `client` (the fairness identity —
  /// e.g. one socket connection). Blocking: cold tuples return once
  /// evaluated, memoized tuples immediately, deadline-bearing queries no
  /// later than (roughly) their deadline.
  TuningAnswer query(const TuningQuery& query, const std::string& client = "default");

  Stats stats() const;
  const ResultStore& store() const { return store_; }

 private:
  struct Pending {
    std::string key;  ///< canonical tuple key
    TuningQuery query;
    pragma::ApproxSpec spec;
  };

  /// Failure history of one tuple; the tuple is quarantined once
  /// `count >= config_.max_eval_failures`.
  struct FailureState {
    std::size_t count = 0;
    std::string last_error;
  };

  using Clock = std::chrono::steady_clock;

  /// Drain the admission queue; called with mutex_ held, returns with it
  /// held, releases it around each evaluation (directly on the annotated
  /// mutex — the caller's scoped lock object is not touched, so the
  /// analysis tracks the drop/retake precisely). Stops early (leaving work
  /// queued for the next evaluator) once `deadline` passes. A throwing
  /// evaluation is absorbed into failures_, never thrown.
  void run_evaluator(Clock::time_point deadline) REQUIRES(mutex_);

  /// Pick the next tuple fairly (round-robin over clients with queued
  /// work). Requires the lock; pops the tuple from its client queue.
  Pending take_next_fair() REQUIRES(mutex_);

  RunRecord evaluate(const Pending& pending);

  /// Nearest known config for `pending` in `snap` (same benchmark
  /// required; prefers feasible, same device, same technique, closest
  /// items-per-thread — deterministically). Returns false when the store
  /// knows nothing about the benchmark.
  static bool nearest_known(const ResultStore::Snapshot& snap, const Pending& pending,
                            RunRecord& out);

  /// Build the answer for a query that cannot get its exact tuple:
  /// kDegraded with the nearest known config when one exists, else
  /// `fallback` with `reason`. Requires the lock (bumps stats).
  TuningAnswer degrade_or(TuningStatus fallback, const Pending& pending,
                          const std::string& reason) REQUIRES(mutex_);

  ResultStore& store_;
  TuningServiceConfig config_;

  mutable common::Mutex mutex_;
  common::CondVar progress_;
  /// Per-client FIFO of admitted tuples plus the rotation order; a client
  /// leaves the rotation when its queue drains.
  std::map<std::string, std::deque<Pending>> queues_ GUARDED_BY(mutex_);
  std::vector<std::string> rotation_ GUARDED_BY(mutex_);
  std::size_t rotation_next_ GUARDED_BY(mutex_) = 0;
  /// Admitted or evaluating keys.
  std::unordered_set<std::string> inflight_ GUARDED_BY(mutex_);
  std::size_t pending_total_ GUARDED_BY(mutex_) = 0;
  bool evaluator_running_ GUARDED_BY(mutex_) = false;
  /// key -> failure history.
  std::unordered_map<std::string, FailureState> failures_ GUARDED_BY(mutex_);
  Stats stats_ GUARDED_BY(mutex_);

  /// Touched only by the single active evaluator thread, with mutex_
  /// RELEASED (the evaluator_running_ flag is the exclusion protocol, so
  /// baselines never run under a lock). Deliberately unannotated: no
  /// capability expresses "guarded by being the evaluator".
  TupleEvaluator evaluator_;
};

}  // namespace hpac::harness
