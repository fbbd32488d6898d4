#pragma once

#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

#include "common/annotated_mutex.hpp"

namespace hpac {

/// Process-wide task scheduler shared by every host-side fan-out in the
/// harness: the Explorer's configuration sweep, the Campaign's
/// (benchmark, device) shard fan-out and the region executor's team
/// sharding all submit to one set of workers, so inner and outer
/// parallelism cooperate instead of carving up the cores per layer.
///
/// Structure: one list of open jobs, oldest first, guarded by the
/// scheduler's one mutex. An idle worker takes the next free participant
/// slot of the oldest open job that still has unclaimed indices; a job
/// leaves the list when its last slot is handed out, when its caller
/// finishes claiming, or when a worker finds it exhausted. Tasks here are
/// coarse (a benchmark configuration, a launch's warp range — milliseconds and up),
/// so a plain mutex costs nothing measurable and every transition stays
/// visible to ThreadSanitizer.
///
/// `parallel_for` is a *blocking join in which the caller works*: the
/// calling thread claims indices exactly like a worker instead of parking
/// on a condition variable while the job runs. Nesting is re-entrant by
/// construction — a body may call `parallel_for` again; the nested job
/// joins the open list, where any idle worker (including one whose outer
/// shard finished early) can join it. A thread only ever blocks waiting for
/// indices that are actively executing on other threads, so nested joins
/// cannot deadlock.
class Scheduler {
 public:
  /// Spawn `num_workers` workers. A scheduler with 0 workers is valid:
  /// `parallel_for` then runs every index inline on the calling thread.
  explicit Scheduler(std::size_t num_workers);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  std::size_t workers() const { return workers_.size(); }

  /// Threads that can cooperate on one job: every worker plus the calling
  /// thread itself.
  std::size_t parallelism() const { return workers_.size() + 1; }

  /// Run `body(slot, index)` for every index in [0, count), blocking until
  /// all indices complete. Indices are claimed dynamically (uneven costs
  /// balance); the calling thread participates. `slot` is dense in
  /// [0, limit) where limit = min(max_participants or parallelism(),
  /// count, parallelism()), and is exclusive to one participating thread
  /// for the whole job — callers may index per-participant state (e.g. a
  /// forked benchmark) with it, unsynchronized.
  ///
  /// If a body throws, unstarted indices are abandoned and the first
  /// exception is rethrown here once in-flight indices drain
  /// (first-exception-wins across all participants).
  ///
  /// `max_participants` bounds the number of threads that may execute
  /// bodies concurrently (0 = no bound beyond parallelism()). It is an
  /// upper bound, not a reservation: busy workers simply never join.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t, std::size_t)>& body,
                    std::size_t max_participants = 0);

  /// The process-wide instance every harness layer shares. Sized
  /// max(2, hardware_concurrency) so joining is exercisable even on
  /// one-core machines.
  static Scheduler& shared();

  /// Participant count worth using for `count` independent tasks:
  /// `requested` if nonzero, otherwise the hardware concurrency; clamped
  /// to `count` and never less than 1.
  static std::size_t recommended_threads(std::size_t requested, std::size_t count);

 private:
  struct Job;

  void worker_loop();
  void claim(Job& job, std::size_t slot);

  common::Mutex mutex_;
  common::CondVar wake_cv_;
  std::vector<Job*> open_ GUARDED_BY(mutex_);  ///< oldest first
  bool stop_ GUARDED_BY(mutex_) = false;
  std::vector<std::thread> workers_;
};

}  // namespace hpac
