// Bounded, blocking multi-producer multi-consumer queue: ThreadPool's job
// inbox. close() unblocks all waiters; pops after close drain remaining
// items and then report closure.
#pragma once

#include <deque>
#include <optional>
#include <utility>

#include "common/mutex.h"

namespace pe {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity = 1024) : capacity_(capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Blocks until space is available. Returns false if the queue was closed.
  bool push(T item) {
    UniqueLock lock(mutex_);
    not_full_.wait(lock, [this]() PE_NO_THREAD_SAFETY_ANALYSIS {
      return closed_ || items_.size() < capacity_;
    });
    if (closed_) return false;
    items_.push_back(std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Blocks until an item is available or the queue is closed and drained.
  std::optional<T> pop() {
    UniqueLock lock(mutex_);
    not_empty_.wait(lock, [this]() PE_NO_THREAD_SAFETY_ANALYSIS {
      return closed_ || !items_.empty();
    });
    if (items_.empty()) return std::nullopt;  // closed and drained
    T item = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  /// Unblocks all waiters. Remaining items can still be drained with pop.
  void close() {
    {
      MutexLock lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

 private:
  const std::size_t capacity_;
  Mutex mutex_;
  CondVar not_empty_;
  CondVar not_full_;
  std::deque<T> items_ PE_GUARDED_BY(mutex_);
  bool closed_ PE_GUARDED_BY(mutex_) = false;
};

}  // namespace pe
