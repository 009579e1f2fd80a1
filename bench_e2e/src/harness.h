// bench_e2e harness: statistics, output checks, peer processes, and the
// workload interface every delivery path implements.
//
// A run of one workload is a sequence of phases. Each phase builds its own
// delivery path (setup, timed as setup_s), drives records through it in a
// closed or an open loop, checks every delivered record against the
// seeded inputs, and tears the path down again.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/status.h"

namespace pe::bench_e2e {

// --- statistics ------------------------------------------------------------

/// The q-quantile (q in [0,1]) by linear interpolation between order
/// statistics. Refuses (nullopt) when fewer than 10 samples lie beyond it,
/// so a p99 needs at least 1000 samples and a median at least 20.
std::optional<double> percentile(std::vector<double> samples, double q);

/// percentile(), with NaN for a refused percentile.
double percentile_or_nan(const std::vector<double>& samples, double q);

/// Plain median of a small sample (setup times).
double median(std::vector<double> samples);

/// The quartile of a small sample on the side of better performance: the
/// lower quartile when lower is better, the upper one when higher is.
/// Slices that a loaded host slowed fall on the other side.
double better_quartile(std::vector<double> samples, bool lower_is_better);

/// num / den, or 0 when nothing was counted.
inline double ratio(double num, double den) {
  return den > 0 ? num / den : 0.0;
}

/// Keeps every stride-th value: a systematic sample of bounded size.
class Sampler {
 public:
  explicit Sampler(std::uint64_t stride = 1) : stride_(stride) {}
  void set_stride(std::uint64_t stride) { stride_ = stride == 0 ? 1 : stride; }
  void add(double v) {
    if (seen_++ % stride_ == 0) values_.push_back(v);
  }
  void merge(const Sampler& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
    seen_ += other.seen_;
  }
  const std::vector<double>& values() const { return values_; }
  std::uint64_t seen() const { return seen_; }

 private:
  std::uint64_t stride_;
  std::uint64_t seen_ = 0;
  std::vector<double> values_;
};

// --- inputs ------------------------------------------------------------------

/// Word-wise FNV-1a over a byte range: the checksum every output check
/// compares.
std::uint64_t checksum(const void* data, std::size_t size);

/// Seeded filler bytes for the small-record workloads.
std::vector<std::uint8_t> seeded_bytes(std::uint64_t seed, std::size_t size);

// --- output checks -----------------------------------------------------------

/// Checks delivered records against the generated inputs, one stream per
/// partition (or ring). Record `seq` of stream s carries the payload whose
/// checksum is pool_sums[s][seq % pool_sums[s].size()].
///
/// A record counts as a miss when its offset is not its sequence number
/// (offsets must be dense from 0 on a fresh log) or its sequence number is
/// beyond kMaxSeq, when it was already delivered, or when its checksum
/// differs. finish() adds every record the stream acknowledged but never
/// delivered, and one more miss if the sum of delivered checksums differs
/// from the sum over the generated inputs.
class DeliveryChecker {
 public:
  /// More records than any phase sends to one stream.
  static constexpr std::uint64_t kMaxSeq = 1ull << 28;

  explicit DeliveryChecker(std::vector<std::vector<std::uint64_t>> pool_sums);

  void deliver(std::size_t stream, std::uint64_t offset, std::uint64_t seq,
               std::uint64_t sum);
  void finish(std::size_t stream, std::uint64_t sent);

  std::uint64_t delivered() const { return delivered_; }
  std::uint64_t misses() const {
    return lost_ + duplicated_ + corrupted_ + misplaced_ + sum_mismatches_;
  }
  std::uint64_t lost() const { return lost_; }
  std::uint64_t duplicated() const { return duplicated_; }
  std::uint64_t corrupted() const { return corrupted_; }
  std::uint64_t misplaced() const { return misplaced_; }
  std::string describe() const;

 private:
  struct Stream {
    std::vector<bool> seen;
    std::uint64_t delivered_sum = 0;
  };
  std::vector<std::vector<std::uint64_t>> pool_sums_;
  std::vector<Stream> streams_;
  std::uint64_t delivered_ = 0;
  std::uint64_t lost_ = 0;
  std::uint64_t duplicated_ = 0;
  std::uint64_t corrupted_ = 0;
  std::uint64_t misplaced_ = 0;
  std::uint64_t sum_mismatches_ = 0;
};

// --- processes ---------------------------------------------------------------

/// User + system CPU time of this process so far.
double self_cpu_us();
/// Peak resident set of this process so far.
double self_peak_rss_kb();

/// What a reaped peer process used over its whole life.
struct PeerUsage {
  double cpu_us = 0;
  /// Peak resident memory above what the peer held when it was forked. A
  /// forked peer starts out mapping every page of the benchmark process,
  /// which its own peak would count a second time.
  double rss_growth_kb = 0;
  int exit_code = 0;
};

/// A forked peer process and the pipe on which it reports its memory
/// growth as it exits.
struct PeerProcess {
  pid_t pid = -1;
  int usage_fd = -1;
  bool running() const { return pid > 0; }
};

/// Forks a peer that runs `body` and exits with its return code. The
/// caller must be single-threaded at this point.
PeerProcess fork_peer(const std::function<int()>& body);
/// Waits for the peer (SIGKILL after `grace`), returns its usage and resets
/// `peer`.
PeerUsage reap_peer(PeerProcess& peer,
                    Duration grace = std::chrono::seconds(20));

/// Blocking full-length pipe I/O; false on EOF or error.
bool write_all(int fd, const void* data, std::size_t size);
bool read_all(int fd, void* data, std::size_t size);
bool write_doubles(int fd, const std::vector<double>& values);
bool read_doubles(int fd, std::vector<double>& values);

/// A pipe pair that closes itself.
struct Pipe {
  int read_fd = -1;
  int write_fd = -1;
  Pipe();
  ~Pipe();
  Pipe(const Pipe&) = delete;
  Pipe& operator=(const Pipe&) = delete;
  void close_read();
  void close_write();
};

// --- workloads ---------------------------------------------------------------

enum class Loop {
  /// Senders send the next record as soon as the previous one is acked.
  kClosed,
  /// Senders release records on a fixed schedule at `rate_rps`.
  kOpen,
};

struct Phase {
  std::string label;
  Loop loop = Loop::kClosed;
  Duration duration = Duration::zero();
  double rate_rps = 0;
  bool trace = false;
  /// Builds and tears down the path without sending a record.
  bool setup_only = false;
  /// Scratch directory private to this phase (created and removed by the
  /// harness).
  std::string work_dir;
};

/// When a sender releases its batches.
struct Schedule {
  Loop loop = Loop::kClosed;
  std::uint64_t t0_ns = 0;
  std::uint64_t deadline_ns = 0;
  /// Open loop: time between one sender's batches.
  double batch_interval_ns = 0;

  /// Starts now and lasts the phase; an open-loop sender offers its
  /// `share` of the phase rate in batches of `batch` records.
  static Schedule start(const Phase& phase, double share, std::size_t batch);

  /// Due time of batch k, or 0 once the phase is over. A closed-loop batch
  /// is due now. An open-loop sender sleeps (never spins) until the batch
  /// is due and records how late it woke in `lag_ms`.
  std::uint64_t next(std::uint64_t k, Sampler& lag_ms) const;
};

/// Stride for a phase's latency Sampler: an open-loop phase keeps about
/// 200k samples. A closed-loop phase, whose latency no metric uses, keeps
/// only its first, so the memory it holds does not grow with throughput.
std::uint64_t latency_stride(const Phase& phase);

/// End-to-end flow control: a sender waits while `window` or more of its
/// records are sent but not yet verified by the consumer, so the backlog
/// (and the memory a retained log holds) stays bounded in a closed loop.
/// Returns false if the phase ends first.
bool wait_for_window(const Schedule& s, std::uint64_t sent,
                     const std::atomic<std::uint64_t>& delivered,
                     std::uint64_t window);

/// Seconds from the schedule's start to the last verified receipt.
inline double window_s(const Schedule& s, std::uint64_t last_receipt_ns) {
  return last_receipt_ns > s.t0_ns
             ? static_cast<double>(last_receipt_ns - s.t0_ns) / 1e9
             : 0.0;
}

struct PhaseResult {
  std::uint64_t attempted = 0;
  std::uint64_t delivered = 0;
  std::uint64_t failed_ops = 0;
  std::uint64_t check_misses = 0;
  /// Phase start to the last verified receipt.
  double window_s = 0;
  /// Due time to verified receipt, per record (open loop).
  Sampler latency_ms;
  /// How late the open-loop generator released each batch.
  Sampler generator_lag_ms;
  /// The forked peer, if the path has one (filled by teardown).
  PeerUsage peer;
  bool has_peer = false;
  /// Per-layer metrics of this phase, by name (traced phases).
  std::map<std::string, double> layer;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Open-loop rate, fixed so that later commits are offered the same load:
  /// a share of the closed-loop throughput of the commit that defined the
  /// benchmark. Half for the in-process paths; a quarter for the two
  /// cross-process paths, whose capacity a loaded host cuts the most.
  virtual double open_loop_rate() const = 0;
  /// Builds the delivery path and returns once its first record can be
  /// admitted.
  virtual Status setup(const Phase& phase) = 0;
  /// Drives the phase through the path built by setup() and checks every
  /// delivered record.
  virtual Status run(const Phase& phase, PhaseResult& out) = 0;
  /// Tears the path down; records the peer's usage in `out`.
  virtual void teardown(PhaseResult& out) = 0;
};

/// The workloads, in the order BENCHMARK.json lists them.
std::vector<std::string> workload_names();
/// Generates the workload's inputs from `seed` (before any timing).
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

std::unique_ptr<Workload> make_pipeline_7k(std::uint64_t seed);
std::unique_ptr<Workload> make_durable_quorum(std::uint64_t seed);
std::unique_ptr<Workload> make_socket_64b(std::uint64_t seed);
std::unique_ptr<Workload> make_ring_64b(std::uint64_t seed);

// --- the run -----------------------------------------------------------------

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build/work";
  std::string trace_dir = ".bench_build/traces";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Every end-to-end metric (untraced) or every per-layer metric (traced).
  std::vector<Metric> metrics;
  /// Printed next to the metrics but kept out of the JSON result.
  std::vector<Metric> printed_only;
  /// Printed for people, not part of the JSON result.
  std::vector<std::string> notes;
};

/// Runs every phase of one workload and derives its metrics.
Result<RunResult> run_workload(const RunOptions& options);

/// Metric names and units, in BENCHMARK.json order.
const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics();
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

}  // namespace pe::bench_e2e
