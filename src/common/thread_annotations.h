// Clang thread-safety-analysis annotations (no-ops elsewhere) and a tiny
// annotated Mutex/MutexLock pair built on std::mutex.
//
// Simulator state is single-threaded (one serial dispatcher per Simulator),
// but several substrates are specified as concurrently accessible and are exercised by real threads in tests and the
// TSan CI leg:
//   - kvstore/sharded_store.h: one mutex per shard (per-core sharding, §6)
//   - server/storage_server.*: the KV store is reachable from both the
//     simulated data path and the controller's control channel
//   - common/thread_pool.h: the sweep engine's task queue
//   - common/profiler.{h,cc}: lane registration (first span of each thread)
//   - common/trace_recorder.*: the span ring buffer
// Annotating those paths lets `clang -Wthread-safety` prove lock discipline
// statically; under GCC the macros compile away.

#ifndef NETCACHE_COMMON_THREAD_ANNOTATIONS_H_
#define NETCACHE_COMMON_THREAD_ANNOTATIONS_H_

#include <condition_variable>
#include <mutex>

#if defined(__clang__)
#define NC_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define NC_THREAD_ANNOTATION(x)
#endif

#define NC_CAPABILITY(x) NC_THREAD_ANNOTATION(capability(x))
#define NC_SCOPED_CAPABILITY NC_THREAD_ANNOTATION(scoped_lockable)
#define NC_GUARDED_BY(x) NC_THREAD_ANNOTATION(guarded_by(x))
#define NC_PT_GUARDED_BY(x) NC_THREAD_ANNOTATION(pt_guarded_by(x))
#define NC_REQUIRES(...) NC_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define NC_ACQUIRE(...) NC_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define NC_RELEASE(...) NC_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define NC_TRY_ACQUIRE(...) NC_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define NC_EXCLUDES(...) NC_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define NC_RETURN_CAPABILITY(x) NC_THREAD_ANNOTATION(lock_returned(x))
#define NC_NO_THREAD_SAFETY_ANALYSIS NC_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace netcache {

class NC_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() NC_ACQUIRE() { mu_.lock(); }
  void Unlock() NC_RELEASE() { mu_.unlock(); }
  bool TryLock() NC_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;  // Wait() releases/reacquires the underlying mutex
  std::mutex mu_;
};

// Condition variable bound to the annotated Mutex. Wait() declares via
// NC_REQUIRES that the caller holds the mutex, so the analysis verifies the
// hold at every wait site; use the classic loop form:
//
//   MutexLock lock(mu_);
//   while (!ReadyLocked()) cv_.Wait(mu_);
//
// (a predicate-lambda overload is deliberately omitted — the analysis cannot
// see through std::condition_variable invoking the closure under the lock).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) NC_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // the caller's scope still owns the mutex
  }
  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

// RAII lock whose scope the analysis understands.
class NC_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) NC_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() NC_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

}  // namespace netcache

#endif  // NETCACHE_COMMON_THREAD_ANNOTATIONS_H_
