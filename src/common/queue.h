// Bounded, blocking multi-producer multi-consumer queue.
//
// Used for worker task inboxes and for pipeline hand-off between stages.
// close() unblocks all waiters; pops after close drain remaining items and
// then report closure.
#pragma once

#include <deque>
#include <optional>
#include <utility>

#include "common/clock.h"
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

  /// Non-blocking push. Returns false when full or closed.
  bool try_push(T item) {
    {
      MutexLock lock(mutex_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
    }
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

  /// Waits up to `timeout`; returns nullopt on timeout or closed+drained.
  std::optional<T> pop_for(Duration timeout) {
    UniqueLock lock(mutex_);
    if (!not_empty_.wait_for(lock, timeout,
                             [this]() PE_NO_THREAD_SAFETY_ANALYSIS {
                               return closed_ || !items_.empty();
                             })) {
      return std::nullopt;
    }
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  /// Non-blocking pop.
  std::optional<T> try_pop() {
    UniqueLock lock(mutex_);
    if (items_.empty()) return std::nullopt;
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

  bool closed() const {
    MutexLock lock(mutex_);
    return closed_;
  }

  std::size_t size() const {
    MutexLock lock(mutex_);
    return items_.size();
  }

  bool empty() const { return size() == 0; }
  std::size_t capacity() const { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable Mutex mutex_;
  CondVar not_empty_;
  CondVar not_full_;
  std::deque<T> items_ PE_GUARDED_BY(mutex_);
  bool closed_ PE_GUARDED_BY(mutex_) = false;
};

}  // namespace pe
