// Producer-side batching accumulator: size + linger coalescing.
//
// A fleet of edge devices emits millions of tiny records; sending each
// one across the WAN as its own transfer (and its own Broker::produce)
// wastes both the per-transfer propagation delay and the broker's batched
// append path (PR 7 made Broker::produce -> LogDir::append_batch pay
// batch-level cost — but only for batches that arrive as batches).
//
// The accumulator buffers records per (topic, partition) and hands a
// whole batch to its flush sink when any of three triggers fires:
//   - size:  the pending batch reached `batch_max_bytes`;
//   - time:  the batch has lingered `linger` (emulated) since its first
//            record — a background flusher thread watches deadlines;
//   - close: flush()/close() force out everything pending.
//
// The sink (Producer::send_batch, on any endpoint) may be
// called from the caller's thread (size trigger) and from the flusher
// thread (linger trigger) concurrently — sinks must be thread-safe. Sink
// failures are counted (flush_errors, records_dropped) and kept in
// last_error(); a size-triggered flush also returns the error to the
// add() caller synchronously. Callers that need zero-loss semantics put
// a retry loop in the sink (see scenario::FleetGenerator) — the
// accumulator itself does not retry.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/status.h"
#include "broker/record.h"

namespace pe::broker {

struct BatchConfig {
  /// How long a batch may wait (emulated time) for more records before it
  /// is flushed. Zero disables lingering: every add() flushes
  /// immediately (no flusher thread is started).
  Duration linger = std::chrono::milliseconds(5);
  /// A pending batch reaching this many wire bytes is flushed at once.
  std::uint64_t batch_max_bytes = 256 * 1024;
};

struct BatchAccumulatorStats {
  std::uint64_t records_enqueued = 0;
  std::uint64_t records_flushed = 0;
  std::uint64_t batches_flushed = 0;
  std::uint64_t flushes_on_size = 0;
  std::uint64_t flushes_on_time = 0;
  std::uint64_t flushes_on_close = 0;
  std::uint64_t flushes_manual = 0;
  std::uint64_t flush_errors = 0;
  /// Records handed to a sink call that failed (the sink owns retries).
  std::uint64_t records_dropped = 0;
};

class BatchAccumulator {
 public:
  /// The sink a due batch is handed to.
  using FlushFn = std::function<Status(
      const std::string& topic, std::uint32_t partition,
      std::vector<Record> records)>;

  BatchAccumulator(BatchConfig config, FlushFn flush);
  ~BatchAccumulator();

  BatchAccumulator(const BatchAccumulator&) = delete;
  BatchAccumulator& operator=(const BatchAccumulator&) = delete;

  /// Buffers one record. Returns the sink's status when this add tripped
  /// the size (or linger==0) trigger, OK otherwise. FAILED_PRECONDITION
  /// after close().
  Status add(const std::string& topic, std::uint32_t partition,
             Record record);

  /// Flushes everything pending now (manual trigger). Returns the first
  /// sink error, if any.
  Status flush();

  /// Flushes everything pending, stops the flusher thread, and rejects
  /// further adds. Idempotent.
  Status close();

  BatchAccumulatorStats stats() const;
  /// Most recent sink failure (OK when none) — how a linger-triggered
  /// flush error surfaces to a caller that never sees the sink's return.
  Status last_error() const;

  const BatchConfig& config() const { return config_; }

 private:
  enum class Trigger { kSize, kTime, kClose, kManual };
  struct Pending {
    std::vector<Record> records;
    std::uint64_t bytes = 0;
    TimePoint deadline;  // wall deadline (linger scaled at arm time)
  };
  using Key = std::pair<std::string, std::uint32_t>;
  struct Due {
    Key key;
    std::vector<Record> records;
  };

  void flusher_loop();
  /// Runs the sink outside the lock and books the outcome.
  Status flush_batch(const Key& key, std::vector<Record> records,
                     Trigger trigger);
  std::vector<Due> take_all_locked() PE_REQUIRES(mutex_);

  const BatchConfig config_;
  const FlushFn flush_;
  // Client-side lock, held only around the pending map — never across the
  // sink call (which takes broker/cluster locks and network time).
  mutable Mutex mutex_;
  CondVar wake_;
  std::map<Key, Pending> pending_ PE_GUARDED_BY(mutex_);
  BatchAccumulatorStats stats_ PE_GUARDED_BY(mutex_);
  Status last_error_ PE_GUARDED_BY(mutex_);
  /// Bumped whenever a new batch arms a (possibly earlier) deadline, so
  /// the flusher re-plans instead of sleeping past it.
  std::uint64_t arm_epoch_ PE_GUARDED_BY(mutex_) = 0;
  bool stop_ PE_GUARDED_BY(mutex_) = false;
  bool closed_ PE_GUARDED_BY(mutex_) = false;
  std::thread flusher_;
};

}  // namespace pe::broker
