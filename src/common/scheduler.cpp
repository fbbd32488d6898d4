#include "common/scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

namespace hpac {

/// One fan-out job, owned by the `parallel_for` frame that opened it. A
/// thread handed one of its `limit` slots becomes a *participant* and loops
/// claiming indices from `next` until none remain, exactly like the
/// submitting thread (slot 0) does. `slots`, `active` and `error` are
/// guarded by the scheduler's mutex. The caller takes the job off the open
/// list before waiting for `active == 0`, so no thread can reach the job
/// once that wait returns.
struct Scheduler::Job {
  const std::function<void(std::size_t, std::size_t)>* body = nullptr;
  std::size_t count = 0;
  std::size_t limit = 1;
  std::atomic<std::size_t> next{0};  ///< next unclaimed index
  std::atomic<bool> cancelled{false};
  std::size_t slots = 1;      ///< slots handed out; slot 0 is the caller's
  std::size_t active = 1;     ///< participants inside the claim loop
  std::exception_ptr error;   ///< first failure
  common::CondVar done_cv;

  bool exhausted() const {
    return cancelled.load(std::memory_order_acquire) ||
           next.load(std::memory_order_acquire) >= count;
  }
};

Scheduler::Scheduler(std::size_t num_workers) {
  workers_.reserve(num_workers);
  for (std::size_t w = 0; w < num_workers; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Scheduler::~Scheduler() {
  {
    common::MutexLock lock(mutex_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

Scheduler& Scheduler::shared() {
  static Scheduler scheduler(
      std::max<std::size_t>(2, std::thread::hardware_concurrency()));
  return scheduler;
}

std::size_t Scheduler::recommended_threads(std::size_t requested, std::size_t count) {
  std::size_t threads = requested != 0 ? requested : std::thread::hardware_concurrency();
  if (threads == 0) threads = 1;
  return std::min(threads, std::max<std::size_t>(count, 1));
}

void Scheduler::claim(Job& job, std::size_t slot) {
  for (;;) {
    if (job.cancelled.load(std::memory_order_acquire)) break;
    const std::size_t index = job.next.fetch_add(1, std::memory_order_acq_rel);
    if (index >= job.count) break;
    try {
      (*job.body)(slot, index);
    } catch (...) {
      common::MutexLock lock(mutex_);
      if (!job.error) job.error = std::current_exception();
      job.cancelled.store(true, std::memory_order_release);
    }
  }
}

void Scheduler::worker_loop() {
  common::UniqueMutexLock lock(mutex_);
  while (!stop_) {
    // Oldest job first; exhausted jobs are dropped where they are found.
    while (!open_.empty() && open_.front()->exhausted()) open_.erase(open_.begin());
    if (open_.empty()) {
      wake_cv_.wait(lock);
      continue;
    }
    Job& job = *open_.front();
    const std::size_t slot = job.slots++;
    if (job.slots == job.limit) open_.erase(open_.begin());
    ++job.active;
    lock.unlock();
    claim(job, slot);
    lock.lock();
    // Notify under the lock: the caller destroys the job (and done_cv)
    // as soon as it observes active == 0.
    if (--job.active == 0) job.done_cv.notify_all();
  }
}

void Scheduler::parallel_for(
    std::size_t count, const std::function<void(std::size_t, std::size_t)>& body,
    std::size_t max_participants) {
  if (count == 0) return;
  std::size_t limit = max_participants != 0 ? max_participants : parallelism();
  limit = std::min({limit, count, parallelism()});
  if (limit <= 1 || workers_.empty()) {
    // Serial path: run inline, exceptions propagate directly and abandon
    // the remaining indices — the same contract the parallel path keeps.
    for (std::size_t index = 0; index < count; ++index) body(0, index);
    return;
  }

  Job job;
  job.body = &body;
  job.count = count;
  job.limit = limit;
  {
    common::MutexLock lock(mutex_);
    open_.push_back(&job);
  }
  wake_cv_.notify_all();
  claim(job, 0);  // the caller claims indices too — it never idles

  common::UniqueMutexLock lock(mutex_);
  std::erase(open_, &job);
  --job.active;
  while (job.active != 0) job.done_cv.wait(lock);
  if (job.error) std::rethrow_exception(job.error);
}

}  // namespace hpac
