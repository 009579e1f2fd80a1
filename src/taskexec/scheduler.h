// Capacity-aware FIFO task scheduler.
//
// Tracks per-worker core/memory headroom, queues tasks while no worker can
// host them, and dispatches in submission order (first-fit over workers,
// honoring pinning). Completion events free capacity and trigger another
// dispatch round. Mirrors the Dask scheduler role in the paper at the
// granularity Pilot-Edge uses it: task in, placed task out.
#pragma once

#include <deque>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/status.h"
#include "taskexec/task.h"
#include "taskexec/worker.h"

namespace pe::exec {

/// Handle the submitter keeps: id + completion future + stop control.
class TaskHandle {
 public:
  TaskHandle() = default;
  TaskHandle(std::string id, std::shared_future<Status> done,
             std::shared_ptr<std::atomic<bool>> stop)
      : id_(std::move(id)), done_(std::move(done)), stop_(std::move(stop)) {}

  const std::string& id() const { return id_; }
  bool valid() const { return done_.valid(); }

  /// Blocks until the task finishes; returns its final status.
  Status wait() const { return done_.get(); }

  bool wait_for(Duration timeout) const {
    return done_.wait_for(timeout) == std::future_status::ready;
  }

  /// Requests cooperative cancellation (streaming tasks observe the flag).
  void request_stop() {
    if (stop_) stop_->store(true, std::memory_order_release);
  }

 private:
  std::string id_;
  std::shared_future<Status> done_;
  std::shared_ptr<std::atomic<bool>> stop_;
};

/// Point-in-time scheduler utilization.
struct SchedulerStats {
  std::size_t workers = 0;
  std::uint32_t total_cores = 0;
  std::uint32_t cores_in_use = 0;
  std::size_t pending_tasks = 0;
  std::size_t running_tasks = 0;
  std::uint64_t completed_tasks = 0;
  std::uint64_t failed_tasks = 0;
  /// Tasks re-queued because their hosting worker died (failover, not
  /// retry — re-dispatch does not consume a retry attempt).
  std::uint64_t redispatched_tasks = 0;
};

class Scheduler {
 public:
  Scheduler();
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Registers a worker (takes shared ownership).
  Status add_worker(std::shared_ptr<Worker> worker);

  /// Removes a worker; fails with FAILED_PRECONDITION while it runs tasks.
  Status remove_worker(const std::string& worker_id);

  /// Declares a worker dead (crash semantics). Its in-flight tasks are
  /// killed via their per-dispatch flag and re-queued onto surviving
  /// workers without consuming a retry attempt; tasks no surviving worker
  /// can ever host fail with UNAVAILABLE. The dead worker's thread is
  /// joined, and any result its zombie executions later report is
  /// discarded. NOT_FOUND for unknown workers.
  Status fail_worker(const std::string& worker_id);

  /// Submits a task. INVALID_ARGUMENT if no worker could *ever* host it
  /// (unknown pinned worker, or cores exceed every worker's total).
  Result<TaskHandle> submit(TaskSpec spec);

  /// Cooperative cancel. Pending tasks are dropped immediately; running
  /// tasks get their stop flag set and finish as kCancelled when the body
  /// returns Cancelled, or their natural state otherwise.
  Status cancel(const std::string& task_id);

  /// Snapshot of a task's lifecycle record.
  Result<TaskInfo> task_info(const std::string& task_id) const;

  /// Blocks until all currently known tasks reached a terminal state.
  void wait_idle();

  SchedulerStats stats() const;
  std::vector<std::string> worker_ids() const;

  /// Stops dispatching, cancels pending tasks, waits for running tasks.
  void shutdown();

 private:
  struct WorkerSlot {
    std::shared_ptr<Worker> worker;
    std::uint32_t cores_free = 0;
    double memory_free_gb = 0.0;
    std::size_t running = 0;
  };

  struct PendingTask {
    std::string id;
    TaskSpec spec;
    std::uint32_t attempts = 0;
    std::shared_ptr<std::promise<Status>> done;
    std::shared_ptr<std::atomic<bool>> stop;
    // Per-dispatch kill flag + sequence number. A re-dispatch after worker
    // failure bumps the sequence; the superseded execution becomes a
    // zombie whose completion is ignored.
    std::shared_ptr<std::atomic<bool>> kill;
    std::uint64_t dispatch_seq = 0;
  };

  void dispatch_locked() PE_REQUIRES(mutex_);
  void enqueue_pending_locked(PendingTask task) PE_REQUIRES(mutex_);
  bool can_ever_host_locked(const TaskSpec& spec) const PE_REQUIRES(mutex_);
  WorkerSlot* pick_worker_locked(const TaskSpec& spec) PE_REQUIRES(mutex_);
  /// Returns true when the caller must NOT resolve the completion promise:
  /// either the task was resubmitted for a retry, or `dispatch_seq` no
  /// longer matches the live dispatch (zombie execution from a failed
  /// worker).
  bool finish_task(const std::string& task_id, std::uint64_t dispatch_seq,
                   std::uint32_t cores, double memory_gb, Status status);

  // Top of the exec lock domain: dispatch_locked pushes into worker pool
  // queues (level 2) while holding this; worker threads re-enter via
  // finish_task only after dropping their queue lock.
  mutable Mutex mutex_;
  CondVar idle_cv_;
  std::map<std::string, WorkerSlot> workers_ PE_GUARDED_BY(mutex_);
  std::deque<PendingTask> pending_ PE_GUARDED_BY(mutex_);
  std::map<std::string, TaskInfo> tasks_ PE_GUARDED_BY(mutex_);
  // Dispatched tasks, retained for cancellation and retry resubmission.
  std::map<std::string, PendingTask> running_ PE_GUARDED_BY(mutex_);
  std::uint64_t completed_ PE_GUARDED_BY(mutex_) = 0;
  std::uint64_t failed_ PE_GUARDED_BY(mutex_) = 0;
  std::uint64_t redispatched_ PE_GUARDED_BY(mutex_) = 0;
  std::uint64_t dispatch_counter_ PE_GUARDED_BY(mutex_) = 0;
  bool shutdown_ PE_GUARDED_BY(mutex_) = false;
};

}  // namespace pe::exec
