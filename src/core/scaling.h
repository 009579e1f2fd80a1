// BacklogAutoScaler: closes the paper's dynamism loop automatically.
//
// §V: "The ability to respond at runtime, e.g., by auto-scaling
// resources, is crucial." The scaler watches a running pipeline's backlog
// (messages produced but not yet processed) and adds processing tasks on
// the cloud pilot when the backlog stays above a threshold — the
// application-level scheduling reaction the paper envisions, without
// allocating new pilots.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "core/pipeline.h"

namespace pe::core {

struct AutoScalerConfig {
  Duration check_interval = std::chrono::milliseconds(100);
  /// Backlog (produced - processed) that counts as congestion.
  std::uint64_t backlog_high_watermark = 16;
  /// Consecutive congested checks before scaling out.
  std::size_t consecutive_breaches = 2;
  /// Tasks added per scale-out event.
  std::size_t step = 1;
  /// Upper bound on tasks this scaler may add in total.
  std::size_t max_added_tasks = 4;
};

/// One scale-out decision, for reports/tests.
struct ScaleEvent {
  std::uint64_t at_ns = 0;
  std::uint64_t backlog = 0;
  std::size_t tasks_added = 0;
};

class BacklogAutoScaler {
 public:
  explicit BacklogAutoScaler(AutoScalerConfig config = {});
  ~BacklogAutoScaler();

  BacklogAutoScaler(const BacklogAutoScaler&) = delete;
  BacklogAutoScaler& operator=(const BacklogAutoScaler&) = delete;

  /// Starts watching a pipeline (must already be running). The pipeline
  /// must outlive the scaler or stop() must be called first.
  Status start(EdgeToCloudPipeline& pipeline);
  void stop();

  std::vector<ScaleEvent> events() const;
  std::size_t tasks_added() const { return added_.load(); }

 private:
  void run(EdgeToCloudPipeline* pipeline);

  const AutoScalerConfig config_;
  std::atomic<bool> running_{false};
  std::atomic<std::size_t> added_{0};
  mutable Mutex events_mutex_;
  std::vector<ScaleEvent> events_ PE_GUARDED_BY(events_mutex_);
  std::thread thread_;
};

}  // namespace pe::core
