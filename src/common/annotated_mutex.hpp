#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

/// Clang thread-safety annotations (-Wthread-safety) over the standard
/// synchronization types. The std types themselves carry no capability
/// attributes, so locking discipline stated only in comments ("guarded by
/// mutex_") is invisible to the compiler; these wrappers attach the
/// attributes so clang proves, at compile time, that every GUARDED_BY
/// field is touched only under its mutex and every REQUIRES method is
/// called with the right lock held. Under any other compiler the macros
/// expand to nothing and every wrapper is a zero-overhead pass-through —
/// the clang CI job is where the analysis gates (promoted to -Werror).
///
/// Conventions used across the tree:
///  * fields:    `T x GUARDED_BY(mutex_);`
///  * methods:   `void f() REQUIRES(mutex_);` for "caller holds the lock"
///  * waiting:   explicit loops — `while (!cond) cv_.wait(lock);` — never
///    predicate lambdas, which the analysis cannot see into (a lambda body
///    is analyzed as its own function with no capabilities held).

#if defined(__clang__)
#define HPAC_TSA_(x) __attribute__((x))
#else
#define HPAC_TSA_(x)
#endif

#ifndef CAPABILITY
#define CAPABILITY(x) HPAC_TSA_(capability(x))
#endif
#ifndef SCOPED_CAPABILITY
#define SCOPED_CAPABILITY HPAC_TSA_(scoped_lockable)
#endif
#ifndef GUARDED_BY
#define GUARDED_BY(x) HPAC_TSA_(guarded_by(x))
#endif
#ifndef REQUIRES
#define REQUIRES(...) HPAC_TSA_(requires_capability(__VA_ARGS__))
#endif
#ifndef ACQUIRE
#define ACQUIRE(...) HPAC_TSA_(acquire_capability(__VA_ARGS__))
#endif
#ifndef RELEASE
#define RELEASE(...) HPAC_TSA_(release_capability(__VA_ARGS__))
#endif

namespace hpac::common {

/// std::mutex with the `capability` attribute. Lock it through MutexLock /
/// UniqueMutexLock in new code; the raw lock()/unlock() exist for the rare
/// REQUIRES method that must drop and retake its caller's lock around a
/// blocking section (TuningService::run_evaluator) — a pattern the
/// analysis tracks precisely on the mutex itself but not through a scoped
/// guard passed by reference.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { m_.lock(); }
  void unlock() RELEASE() { m_.unlock(); }

 private:
  friend class CondVar;
  friend class MutexLock;
  friend class UniqueMutexLock;
  std::mutex m_;
};

/// Scoped std::lock_guard equivalent over Mutex.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) ACQUIRE(mutex) : lock_(mutex.m_) {}
  ~MutexLock() RELEASE() {}

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  std::lock_guard<std::mutex> lock_;
};

/// Scoped std::unique_lock equivalent over Mutex — the lock type CondVar
/// waits on. Manual unlock()/lock() mid-scope are annotated so the
/// analysis tracks the held state through them.
class SCOPED_CAPABILITY UniqueMutexLock {
 public:
  explicit UniqueMutexLock(Mutex& mutex) ACQUIRE(mutex) : lock_(mutex.m_) {}
  ~UniqueMutexLock() RELEASE() {}

  UniqueMutexLock(const UniqueMutexLock&) = delete;
  UniqueMutexLock& operator=(const UniqueMutexLock&) = delete;

  void lock() ACQUIRE() { lock_.lock(); }
  void unlock() RELEASE() { lock_.unlock(); }

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;
};

/// std::condition_variable over UniqueMutexLock. Deliberately offers no
/// predicate overloads: the waiting convention is an explicit loop in the
/// caller's body, where the analysis can see the guarded reads.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_all() noexcept { cv_.notify_all(); }

  void wait(UniqueMutexLock& lock) { cv_.wait(lock.lock_); }

  template <typename Rep, typename Period>
  std::cv_status wait_for(UniqueMutexLock& lock,
                          const std::chrono::duration<Rep, Period>& timeout) {
    return cv_.wait_for(lock.lock_, timeout);
  }

  template <typename Clock, typename Duration>
  std::cv_status wait_until(UniqueMutexLock& lock,
                            const std::chrono::time_point<Clock, Duration>& deadline) {
    return cv_.wait_until(lock.lock_, deadline);
  }

 private:
  std::condition_variable cv_;
};

}  // namespace hpac::common
