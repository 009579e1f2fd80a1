// Waiter: the one wake-up for in-process reads and acks (an eventcount).
//
// A waiting thread reads epoch(), checks its condition, then calls
// wait(seen, deadline). A change that lands after the epoch() read has
// notified, so the wait returns at once: no wake-up is lost. A reader
// that finds nothing parks its waiter with the source (weakly, at most
// once), and the source's next change takes the list and notifies it
// outside the source's lock: Kafka's fetch purgatory. The mutex is a
// leaf: nothing else is locked while it is held.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"

namespace pe {

class Waiter {
 public:
  std::uint64_t epoch() const {
    MutexLock lock(mutex_);
    return epoch_;
  }

  void notify() {
    {
      MutexLock lock(mutex_);
      ++epoch_;
    }
    cv_.notify_all();
  }

  /// Waits until the epoch moves past `seen` or the wall `deadline`
  /// passes; true when it moved.
  bool wait(std::uint64_t seen, TimePoint deadline) {
    UniqueLock lock(mutex_);
    return cv_.wait_until(lock, deadline, [&]() PE_NO_THREAD_SAFETY_ANALYSIS {
      return epoch_ != seen;
    });
  }

 private:
  mutable Mutex mutex_;
  CondVar cv_;
  std::uint64_t epoch_ PE_GUARDED_BY(mutex_) = 0;
};

/// The waiters parked on one source, guarded by the source's lock.
using ParkedWaiters = std::vector<std::weak_ptr<Waiter>>;

/// Adds `waiter` (if set) unless it is parked already; drops expired
/// entries.
inline void park(ParkedWaiters& parked, const std::shared_ptr<Waiter>& waiter) {
  if (!waiter) return;
  bool present = false;
  std::erase_if(parked, [&](const std::weak_ptr<Waiter>& entry) {
    const auto live = entry.lock();
    present = present || live == waiter;
    return live == nullptr;
  });
  if (!present) parked.push_back(waiter);
}

inline void notify_all(const ParkedWaiters& taken) {
  for (const auto& entry : taken) {
    if (const auto live = entry.lock()) live->notify();
  }
}

}  // namespace pe
