// BufferPool: a thread-safe free-list of reusable byte buffers.
//
// The broker data plane allocates a fresh heap buffer per message twice —
// once to frame records for the durable log and once when a producer
// encodes a DataBlock payload — and frees it moments later. At fan-out
// rates that malloc/free churn dominates the encode cost. The pool keeps
// a bounded free-list of heap-owned `Bytes` whose *capacity* is recycled:
// acquire() hands out an empty vector that usually already owns a large
// enough allocation, release() puts it back.
//
// Two hand-out forms:
//   - acquire()/release(): scoped use inside one component (e.g. the
//     batched segment-frame encoder);
//   - acquire_shared(): a shared_ptr<Bytes> whose deleter returns the
//     buffer to the pool when the last reference drops — the shape
//     `broker::Payload` stores, so pooled buffers can escape into the
//     zero-copy data plane. The pool must outlive every shared handle;
//     use the leaked global() pool for buffers with unbounded lifetime.
//
// The free-list stores unique_ptr<Bytes>, so acquire_shared() recycles
// the heap `Bytes` object itself along with its capacity — steady-state
// cycles do not allocate a fresh control object per acquire. (The
// shared_ptr control block is the one allocation that remains: a custom
// deleter rules out make_shared.) The value-form acquire()/release() keeps
// a small side-list of empty shells so moving contents in and out of the
// pool does not churn allocations either.
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
    /// Free-list capacity (buffers beyond this are freed on release).
    std::size_t max_buffers = 64;
    /// Buffers whose capacity outgrew this are not recycled.
    std::size_t max_buffer_bytes = 4u << 20;  // 4 MiB
  };

  struct Stats {
    std::uint64_t hits = 0;      // acquire served from the free-list
    std::uint64_t misses = 0;    // acquire had to hand out a fresh buffer
    std::uint64_t discards = 0;  // release dropped the buffer instead
  };

  BufferPool() : BufferPool(Options()) {}
  explicit BufferPool(Options options) : options_(options) {
    free_.reserve(options_.max_buffers);
    shells_.reserve(options_.max_buffers);
  }

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// An empty buffer with capacity >= reserve_hint, recycled when the
  /// free-list has one (LIFO, so repeated large acquires converge instead
  /// of regrowing a cold recycled buffer).
  Bytes acquire(std::size_t reserve_hint = 0) {
    Bytes out;
    {
      MutexLock lock(mutex_);
      if (!free_.empty()) {
        // Move the contents out and keep the emptied heap shell for the
        // next release(): the shell swap costs pointer moves, not mallocs.
        std::unique_ptr<Bytes> owner = std::move(free_.back());
        free_.pop_back();
        out = std::move(*owner);
        if (shells_.size() < options_.max_buffers) {
          shells_.push_back(std::move(owner));
        }
        hits_.fetch_add(1, std::memory_order_relaxed);
      } else {
        misses_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    out.clear();
    if (out.capacity() < reserve_hint) out.reserve(reserve_hint);
    return out;
  }

  /// Returns a buffer's allocation to the pool (or frees it when the pool
  /// is full / the buffer is over-sized). The content is discarded.
  void release(Bytes&& buf) {
    if (buf.capacity() == 0 ||
        buf.capacity() > options_.max_buffer_bytes) {
      discards_.fetch_add(buf.capacity() > 0 ? 1 : 0,
                          std::memory_order_relaxed);
      return;  // let it free on scope exit
    }
    buf.clear();
    MutexLock lock(mutex_);
    if (free_.size() >= options_.max_buffers) {
      discards_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    std::unique_ptr<Bytes> owner;
    if (!shells_.empty()) {
      owner = std::move(shells_.back());
      shells_.pop_back();
      *owner = std::move(buf);
    } else {
      owner = std::make_unique<Bytes>(std::move(buf));
    }
    // LIFO reuse keeps hot buffers cache-warm.
    free_.push_back(std::move(owner));
  }

  /// A shared buffer handle that returns its allocation to this pool when
  /// the last reference drops. Convertible to shared_ptr<const Bytes>,
  /// the form broker::Payload owns — so a pooled encode buffer can ride a
  /// record through append/fetch/fan-out and still come back. The heap
  /// `Bytes` object is recycled through the free-list: steady-state
  /// acquire/release cycles reuse the same object instead of new/delete
  /// per acquire.
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
    if (!owner) {
      owner = std::make_unique<Bytes>();
    } else {
      owner->clear();
    }
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
  /// Returns a heap-owned buffer (from acquire_shared's deleter) to the
  /// free-list, object and capacity together. Over-sized or surplus
  /// buffers are freed; their emptied shell is still kept when there is
  /// room, so the object allocation is not lost with the capacity.
  void recycle_owned(std::unique_ptr<Bytes> owner) {
    if (owner->capacity() > options_.max_buffer_bytes) {
      discards_.fetch_add(1, std::memory_order_relaxed);
      owner->clear();
      owner->shrink_to_fit();
    } else {
      owner->clear();
    }
    MutexLock lock(mutex_);
    if (owner->capacity() == 0) {
      if (shells_.size() < options_.max_buffers) {
        shells_.push_back(std::move(owner));
      }
      return;
    }
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
  // Empty heap shells kept so acquire()/release() round-trips and
  // discarded over-sized shared buffers reuse the Bytes object itself.
  std::vector<std::unique_ptr<Bytes>> shells_ PE_GUARDED_BY(mutex_);
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> discards_{0};
};

}  // namespace pe
