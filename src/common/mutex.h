// Annotated mutex / shared_mutex / condvar wrappers.
//
// Thin wrappers over the std primitives that add clang -Wthread-safety
// capability annotations (thread_annotations.h), so GUARDED_BY/REQUIRES
// contracts are machine-checked at compile time under
// -DPE_THREAD_SAFETY=ON. Lock-order cycles are caught at run time by
// TSan's deadlock detector (tools/check.sh thread; DESIGN.md §8).
//
// libstdc++'s std::lock_guard/unique_lock are not annotated, so use the
// scoped guards defined here (MutexLock, UniqueLock, ReaderLock,
// WriterLock) instead. The wrappers are layout-identical to the std types
// (static_asserts below).
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>
#include <utility>

#include "common/thread_annotations.h"

namespace pe {

class CondVar;

class PE_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() PE_ACQUIRE() { mu_.lock(); }
  bool try_lock() PE_TRY_ACQUIRE(true) { return mu_.try_lock(); }
  void unlock() PE_RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;

  std::mutex& native() noexcept { return mu_; }

  std::mutex mu_;
};

class PE_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() PE_ACQUIRE() { mu_.lock(); }
  void unlock() PE_RELEASE() { mu_.unlock(); }
  void lock_shared() PE_ACQUIRE_SHARED() { mu_.lock_shared(); }
  void unlock_shared() PE_RELEASE_SHARED() { mu_.unlock_shared(); }

 private:
  std::shared_mutex mu_;
};

/// RAII exclusive lock (annotated std::lock_guard replacement).
class PE_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) PE_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() PE_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// RAII exclusive lock with early unlock (for unlock-before-notify) and
/// CondVar waits.
class PE_SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(Mutex& mu) PE_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~UniqueLock() PE_RELEASE() {
    if (owns_) mu_.unlock();
  }

  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  void unlock() PE_RELEASE() {
    mu_.unlock();
    owns_ = false;
  }

  /// Re-acquires after an explicit unlock() (group-commit style critical
  /// sections that release the lock around a blocking syscall and then
  /// come back to publish the result).
  void lock() PE_ACQUIRE() {
    mu_.lock();
    owns_ = true;
  }

  bool owns_lock() const noexcept { return owns_; }

 private:
  friend class CondVar;

  Mutex& mu_;
  bool owns_ = true;
};

/// RAII shared (reader) lock on SharedMutex.
class PE_SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& mu) PE_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.lock_shared();
  }
  ~ReaderLock() PE_RELEASE_GENERIC() { mu_.unlock_shared(); }

  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// RAII exclusive (writer) lock on SharedMutex.
class PE_SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& mu) PE_ACQUIRE(mu) : mu_(mu) {
    mu_.lock();
  }
  ~WriterLock() PE_RELEASE() { mu_.unlock(); }

  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// Condition variable over pe::Mutex via UniqueLock. The wait adopts the
/// already-held native mutex and hands it back still held.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

  template <typename Pred>
  void wait(UniqueLock& lock, Pred pred) {
    std::unique_lock<std::mutex> native(lock.mu_.native(), std::adopt_lock);
    cv_.wait(native, std::move(pred));
    native.release();
  }

  template <typename TimeSource, typename Dur, typename Pred>
  bool wait_until(UniqueLock& lock,
                  const std::chrono::time_point<TimeSource, Dur>& deadline,
                  Pred pred) {
    std::unique_lock<std::mutex> native(lock.mu_.native(), std::adopt_lock);
    const bool ok = cv_.wait_until(native, deadline, std::move(pred));
    native.release();
    return ok;
  }

 private:
  std::condition_variable cv_;
};

static_assert(sizeof(Mutex) == sizeof(std::mutex),
              "pe::Mutex must be layout-identical to std::mutex");
static_assert(sizeof(SharedMutex) == sizeof(std::shared_mutex),
              "pe::SharedMutex must be layout-identical to "
              "std::shared_mutex");
static_assert(sizeof(CondVar) == sizeof(std::condition_variable),
              "pe::CondVar must be layout-identical to "
              "std::condition_variable");

}  // namespace pe
