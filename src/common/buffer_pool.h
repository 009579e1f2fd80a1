// BufferPool: a thread-safe free-list of reusable byte buffers.
//
// The data plane allocates a fresh heap buffer per message — when a
// producer encodes a DataBlock payload and when a socket receives a
// frame — and frees it moments later. At fan-out rates that malloc/free
// churn dominates the encode cost. The pool keeps a bounded free-list of
// heap-owned `Bytes` whose *capacity* is recycled.
//
// acquire_shared() hands out a shared_ptr<Bytes> whose deleter returns
// the buffer to the pool when the last reference drops — the shape
// `broker::Payload` stores, so pooled buffers can escape into the
// zero-copy data plane. The pool must outlive every shared handle; use
// the leaked global() pool for buffers with unbounded lifetime. A
// component that needs one scratch buffer for itself keeps a member
// `Bytes` instead: a scratch buffer in this LIFO pool would be handed to
// the next payload and pinned by it for the payload's whole life.
//
// The free-list stores unique_ptr<Bytes>, so steady-state cycles recycle
// the heap `Bytes` object itself along with its capacity. (The
// shared_ptr control block is the one allocation that remains: a custom
// deleter rules out make_shared.)
//
// Buffers that grew past `max_buffer_bytes` and buffers arriving when the
// free-list is full are simply dropped (freed) — the pool bounds its own
// worst-case footprint at max_buffers * max_buffer_bytes.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/serialize.h"

namespace pe {

class BufferPool {
 public:
  struct Options {
    /// Free-list capacity (buffers returned beyond this are freed).
    std::size_t max_buffers = 64;
    /// Buffers whose capacity outgrew this are not recycled.
    std::size_t max_buffer_bytes = 4u << 20;  // 4 MiB
  };

  struct Stats {
    std::uint64_t hits = 0;      // acquire served from the free-list
    std::uint64_t misses = 0;    // acquire had to hand out a fresh buffer
    std::uint64_t discards = 0;  // a returned buffer was freed instead
  };

  BufferPool() : BufferPool(Options()) {}
  explicit BufferPool(Options options) : options_(options) {
    free_.reserve(options_.max_buffers);
  }

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// A shared buffer handle, empty with capacity >= reserve_hint, that
  /// returns its allocation to this pool when the last reference drops.
  /// Convertible to shared_ptr<const Bytes>, the form broker::Payload
  /// owns — so a pooled encode buffer can ride a record through
  /// append/fetch/fan-out and still come back. Recycled buffers are
  /// handed out LIFO, so hot buffers stay cache-warm.
  std::shared_ptr<Bytes> acquire_shared(std::size_t reserve_hint = 0) {
    std::unique_ptr<Bytes> owner;
    {
      MutexLock lock(mutex_);
      if (!free_.empty()) {
        owner = std::move(free_.back());
        free_.pop_back();
        hits_.fetch_add(1, std::memory_order_relaxed);
      } else {
        misses_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (!owner) owner = std::make_unique<Bytes>();  // recycled ones are empty
    if (owner->capacity() < reserve_hint) owner->reserve(reserve_hint);
    return std::shared_ptr<Bytes>(owner.release(), [this](Bytes* b) {
      recycle_owned(std::unique_ptr<Bytes>(b));
    });
  }

  std::size_t free_count() const {
    MutexLock lock(mutex_);
    return free_.size();
  }

  Stats stats() const {
    Stats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.discards = discards_.load(std::memory_order_relaxed);
    return s;
  }

  const Options& options() const { return options_; }

  /// Process-wide pool for buffers whose lifetime is unbounded (payloads
  /// in flight through the data plane). Leaked on purpose: shared handles
  /// may outlive static destruction order.
  static BufferPool& global() {
    static BufferPool* pool = new BufferPool();
    return *pool;
  }

 private:
  /// acquire_shared's deleter: returns the buffer, object and capacity
  /// together, to the free-list. Empty, over-sized and surplus buffers
  /// are freed instead.
  void recycle_owned(std::unique_ptr<Bytes> owner) {
    if (owner->capacity() == 0) return;
    if (owner->capacity() > options_.max_buffer_bytes) {
      discards_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    owner->clear();
    MutexLock lock(mutex_);
    if (free_.size() >= options_.max_buffers) {
      discards_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    free_.push_back(std::move(owner));
  }

  const Options options_;
  // Leaf lock: nothing else is ever acquired while it is held.
  mutable Mutex mutex_;
  std::vector<std::unique_ptr<Bytes>> free_ PE_GUARDED_BY(mutex_);
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> discards_{0};
};

}  // namespace pe
