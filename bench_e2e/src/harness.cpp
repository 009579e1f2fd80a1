#include "harness.h"

#include <fcntl.h>
#include <malloc.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <thread>

#include "common/rng.h"
#include "trace.h"

namespace pe::bench_e2e {

// --- statistics ------------------------------------------------------------

namespace {
/// The q-quantile of a non-empty sample, interpolating linearly between
/// order statistics.
double quantile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}
}  // namespace

std::optional<double> percentile(std::vector<double> samples, double q) {
  const double n = static_cast<double>(samples.size());
  if (samples.empty() || q < 0.0 || q > 1.0 || (1.0 - q) * n < 10.0) {
    return std::nullopt;
  }
  return quantile(std::move(samples), q);
}

double percentile_or_nan(const std::vector<double>& samples, double q) {
  return percentile(samples, q).value_or(std::nan(""));
}

double median(std::vector<double> samples) {
  if (samples.empty()) return std::nan("");
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                 : (samples[mid - 1] + samples[mid]) / 2.0;
}

double better_quartile(std::vector<double> samples, bool lower_is_better) {
  // A refused percentile in any slice refuses the whole metric.
  if (samples.empty() || std::any_of(samples.begin(), samples.end(),
                                     [](double v) { return std::isnan(v); })) {
    return std::nan("");
  }
  return quantile(std::move(samples), lower_is_better ? 0.25 : 0.75);
}

// --- inputs ------------------------------------------------------------------

std::uint64_t checksum(const void* data, std::size_t size) {
  // FNV-1a over 8-byte words (then the tail bytes): one multiply per word
  // keeps the check cheap next to the 6.4 KB blocks it verifies.
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint64_t h = 1469598103934665603ull;
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p + i, sizeof(word));
    h = (h ^ word) * 1099511628211ull;
  }
  for (; i < size; ++i) h = (h ^ p[i]) * 1099511628211ull;
  return h;
}

std::vector<std::uint8_t> seeded_bytes(std::uint64_t seed, std::size_t size) {
  Rng rng(seed);
  std::vector<std::uint8_t> out(size);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
  return out;
}

// --- output checks -----------------------------------------------------------

DeliveryChecker::DeliveryChecker(
    std::vector<std::vector<std::uint64_t>> pool_sums)
    : pool_sums_(std::move(pool_sums)), streams_(pool_sums_.size()) {}

void DeliveryChecker::deliver(std::size_t stream, std::uint64_t offset,
                              std::uint64_t seq, std::uint64_t sum) {
  if (stream >= streams_.size()) {
    misplaced_ += 1;
    return;
  }
  Stream& s = streams_[stream];
  delivered_ += 1;
  // A misplaced record is not indexed by its sequence number, which may be
  // corrupt: a wild one must not size the bitmap.
  if (offset != seq || seq >= kMaxSeq) {
    misplaced_ += 1;
    return;
  }
  if (seq >= s.seen.size()) {
    s.seen.resize(std::max<std::uint64_t>(seq + 1, s.seen.size() * 2), false);
  }
  if (s.seen[seq]) {
    duplicated_ += 1;
    return;
  }
  s.seen[seq] = true;
  const auto& pool = pool_sums_[stream];
  if (sum != pool[seq % pool.size()]) corrupted_ += 1;
  s.delivered_sum += sum;
}

void DeliveryChecker::finish(std::size_t stream, std::uint64_t sent) {
  if (stream >= streams_.size()) return;
  Stream& s = streams_[stream];
  const auto& pool = pool_sums_[stream];
  std::uint64_t expected_sum = 0;
  for (std::uint64_t seq = 0; seq < sent; ++seq) {
    expected_sum += pool[seq % pool.size()];
    if (seq >= s.seen.size() || !s.seen[seq]) lost_ += 1;
  }
  // A record delivered beyond what the stream acknowledged is a phantom.
  for (std::uint64_t seq = sent; seq < s.seen.size(); ++seq) {
    if (s.seen[seq]) misplaced_ += 1;
  }
  if (expected_sum != s.delivered_sum) sum_mismatches_ += 1;
}

std::string DeliveryChecker::describe() const {
  return "delivered=" + std::to_string(delivered_) +
         " lost=" + std::to_string(lost_) +
         " duplicated=" + std::to_string(duplicated_) +
         " corrupted=" + std::to_string(corrupted_) +
         " misplaced=" + std::to_string(misplaced_) +
         " sum_mismatches=" + std::to_string(sum_mismatches_);
}

// --- processes ---------------------------------------------------------------

namespace {
double tv_us(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) * 1e6 +
         static_cast<double>(tv.tv_usec);
}
}  // namespace

double self_cpu_us() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return tv_us(ru.ru_utime) + tv_us(ru.ru_stime);
}

double self_peak_rss_kb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss);
}

namespace {
/// A "Vm..." field of /proc/self/status, in kB (0 if unreadable).
double proc_status_kb(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  const std::size_t len = std::strlen(key);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, key, len) == 0 && line[len] == ':') {
      kb = std::strtod(line + len + 1, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb;
}
}  // namespace

PeerProcess fork_peer(const std::function<int()>& body) {
  Pipe usage;
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    // The peak starts at what the fork inherited; reset it to the current
    // resident set ("5" clears the high-water mark) and report the growth.
    const double baseline_kb = proc_status_kb("VmRSS");
    if (const int fd = ::open("/proc/self/clear_refs", O_WRONLY); fd >= 0) {
      (void)!::write(fd, "5", 1);
      ::close(fd);
    }
    const int code = body();
    const double growth_kb =
        std::max(0.0, proc_status_kb("VmHWM") - baseline_kb);
    (void)write_all(usage.write_fd, &growth_kb, sizeof(growth_kb));
    std::fflush(stderr);
    ::_exit(code);
  }
  PeerProcess peer;
  peer.pid = pid;
  if (pid > 0) {
    peer.usage_fd = usage.read_fd;
    usage.read_fd = -1;
  }
  return peer;
}

PeerUsage reap_peer(PeerProcess& peer, Duration grace) {
  PeerUsage usage;
  const pid_t pid = peer.pid;
  const int usage_fd = peer.usage_fd;
  peer = PeerProcess();
  if (pid <= 0) return usage;
  const auto deadline = Clock::now() + grace;
  int status = 0;
  rusage ru{};
  while (true) {
    const pid_t got = ::wait4(pid, &status, WNOHANG, &ru);
    if (got == pid) break;
    if (got < 0) {
      ::close(usage_fd);
      return usage;
    }
    if (Clock::now() >= deadline) {
      ::kill(pid, SIGKILL);
      ::wait4(pid, &status, 0, &ru);
      usage.exit_code = -1;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  usage.cpu_us = tv_us(ru.ru_utime) + tv_us(ru.ru_stime);
  // The peer has exited: its report is in the pipe, or it died without one.
  double growth_kb = 0;
  if (read_all(usage_fd, &growth_kb, sizeof(growth_kb))) {
    usage.rss_growth_kb = growth_kb;
  }
  ::close(usage_fd);
  if (usage.exit_code == 0) {
    usage.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }
  return usage;
}

bool write_all(int fd, const void* data, std::size_t size) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  while (size > 0) {
    const ssize_t n = ::write(fd, p, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

bool read_all(int fd, void* data, std::size_t size) {
  auto* p = static_cast<std::uint8_t*>(data);
  while (size > 0) {
    const ssize_t n = ::read(fd, p, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

bool write_doubles(int fd, const std::vector<double>& values) {
  const std::uint64_t n = values.size();
  return write_all(fd, &n, sizeof(n)) &&
         write_all(fd, values.data(), n * sizeof(double));
}

bool read_doubles(int fd, std::vector<double>& values) {
  std::uint64_t n = 0;
  if (!read_all(fd, &n, sizeof(n)) || n > (1ull << 28)) return false;
  values.resize(n);
  return read_all(fd, values.data(), n * sizeof(double));
}

Pipe::Pipe() {
  int fds[2] = {-1, -1};
  if (::pipe2(fds, O_CLOEXEC) == 0) {
    read_fd = fds[0];
    write_fd = fds[1];
  }
}
Pipe::~Pipe() {
  close_read();
  close_write();
}
void Pipe::close_read() {
  if (read_fd >= 0) ::close(read_fd);
  read_fd = -1;
}
void Pipe::close_write() {
  if (write_fd >= 0) ::close(write_fd);
  write_fd = -1;
}

// --- workloads ---------------------------------------------------------------

Schedule Schedule::start(const Phase& phase, double share, std::size_t batch) {
  Schedule s;
  s.loop = phase.loop;
  s.t0_ns = Clock::now_ns();
  s.deadline_ns = s.t0_ns + static_cast<std::uint64_t>(phase.duration.count());
  const double rate = phase.rate_rps * share;
  s.batch_interval_ns = rate > 0 ? 1e9 * static_cast<double>(batch) / rate : 0;
  return s;
}

std::uint64_t Schedule::next(std::uint64_t k, Sampler& lag_ms) const {
  if (loop == Loop::kClosed) {
    const std::uint64_t now = Clock::now_ns();
    return now < deadline_ns ? now : 0;
  }
  const std::uint64_t due =
      t0_ns + static_cast<std::uint64_t>(static_cast<double>(k + 1) *
                                         batch_interval_ns);
  if (due >= deadline_ns) return 0;
  const std::uint64_t now = Clock::now_ns();
  if (now < due) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
  }
  lag_ms.add(static_cast<double>(Clock::now_ns() - due) / 1e6);
  return due;
}

std::uint64_t latency_stride(const Phase& phase) {
  if (phase.loop == Loop::kClosed) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  const double expected =
      phase.rate_rps * std::chrono::duration<double>(phase.duration).count();
  return static_cast<std::uint64_t>(std::max(1.0, expected / 200000));
}

bool wait_for_window(const Schedule& s, std::uint64_t sent,
                     const std::atomic<std::uint64_t>& delivered,
                     std::uint64_t window) {
  while (sent - delivered.load(std::memory_order_acquire) >= window) {
    if (Clock::now_ns() >= s.deadline_ns) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  return true;
}

std::vector<std::string> workload_names() {
  return {"pipeline_7k", "durable_quorum", "socket_64b", "ring_64b"};
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "pipeline_7k") return make_pipeline_7k(seed);
  if (name == "durable_quorum") return make_durable_quorum(seed);
  if (name == "socket_64b") return make_socket_64b(seed);
  if (name == "ring_64b") return make_ring_64b(seed);
  return nullptr;
}

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> m = {
      {"setup_s", "s"},
      {"throughput_rps", "rec/s"},
      {"latency_p50_ms", "ms"},
      {"cpu_us_per_rec", "us/rec"},
      {"peak_rss_mb", "MB"},
  };
  return m;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> m = {
      {"pipeline.ingress_us_p50", "us"},
      {"pipeline.ingress_us_p99", "us"},
      {"pipeline.residency_us_p50", "us"},
      {"pipeline.residency_us_p99", "us"},
      {"pipeline.consumer_queue_us_mean", "us"},
      {"pipeline.process_us_p50", "us"},
      {"broker.records_per_fetch", "rec/fetch"},
      {"pipeline.duplicates_skipped", "count"},
      {"data.encode_us_p50", "us"},
      {"data.decode_us_p50", "us"},
      {"cluster.produce_ms_p50", "ms"},
      {"cluster.produce_ms_p99", "ms"},
      {"storage.fsyncs_per_batch", "fsync/batch"},
      {"storage.fsync_us_p50", "us"},
      {"cluster.fetch_us_p50", "us"},
      {"cluster.records_per_fetch", "rec/fetch"},
      {"cluster.empty_fetch_frac", "frac"},
      {"cluster.hw_lag_records_p99", "rec"},
      {"transport.produce_rtt_us_p50", "us"},
      {"transport.produce_rtt_us_p99", "us"},
      {"transport.fetch_rtt_us_p50", "us"},
      {"transport.records_per_fetch", "rec/fetch"},
      {"transport.empty_fetch_frac", "frac"},
      {"ring.push_ns_p50", "ns"},
      {"ring.pop_ns_p50", "ns"},
      {"ring.empty_pops_per_rec", "1/rec"},
      {"ring.full_waits_per_krec", "1/krec"},
      {"cpu.client_us_per_rec", "us/rec"},
      {"cpu.peer_us_per_rec", "us/rec"},
      {"bench.generator_lag_ms_p99", "ms"},
      {"trace.overhead_frac", "frac"},
  };
  return m;
}

// --- the run -----------------------------------------------------------------

namespace {

struct PhaseRun {
  Phase phase;
  PhaseResult result;
  double client_cpu_us = 0;
};

constexpr int kSlices = 9;

double delivered(const PhaseRun& p) {
  return static_cast<double>(std::max<std::uint64_t>(p.result.delivered, 1));
}

double peer_cpu_us(const PhaseRun& p) {
  return p.result.has_peer ? p.result.peer.cpu_us : 0.0;
}

double throughput(const PhaseRun& p) {
  return p.result.window_s > 0
             ? static_cast<double>(p.result.delivered) / p.result.window_s
             : 0.0;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

Result<RunResult> run_workload(const RunOptions& options) {
  auto workload = make_workload(options.workload, options.seed);
  if (!workload) {
    return Status::InvalidArgument("unknown workload '" + options.workload +
                                   "'");
  }
  const double total = options.seconds;
  std::vector<Phase> plan;
  auto add = [&](const std::string& label, Loop loop, double share,
                 bool trace, bool setup_only = false) {
    Phase p;
    p.label = label;
    p.loop = loop;
    p.duration = std::chrono::duration_cast<Duration>(
        std::chrono::duration<double>(total * share));
    p.rate_rps = workload->open_loop_rate();
    p.trace = trace;
    p.setup_only = setup_only;
    plan.push_back(p);
  };
  // Setup-only cycles add setup samples without adding measured time.
  for (int i = 0; i < 6; ++i) {
    add("setup" + std::to_string(i), Loop::kClosed, 0, false, true);
  }
  add("warmup", Loop::kClosed, 0.1, false);
  if (!options.trace) {
    // Alternating slices: each metric is the better quartile over its
    // slices, so stalls of the host in a few slices do not move it.
    for (int i = 0; i < kSlices; ++i) {
      add("closed" + std::to_string(i), Loop::kClosed, 0.45 / kSlices, false);
      add("open" + std::to_string(i), Loop::kOpen, 0.45 / kSlices, false);
    }
  } else {
    add("closed", Loop::kClosed, 0.3, false);
    add("closed-traced", Loop::kClosed, 0.3, true);
    add("open-traced", Loop::kOpen, 0.3, true);
  }

  RunResult out;
  std::vector<double> setup_s;
  std::map<std::string, PhaseRun> runs;
  double peer_rss_growth_kb = 0;
  std::filesystem::create_directories(options.work_dir);
  if (options.trace) std::filesystem::create_directories(options.trace_dir);

  for (std::size_t i = 0; i < plan.size(); ++i) {
    PhaseRun run;
    run.phase = plan[i];
    run.phase.work_dir = options.work_dir + "/" + options.workload + "-" +
                         std::to_string(::getpid()) + "-" + std::to_string(i);
    std::filesystem::remove_all(run.phase.work_dir);
    std::filesystem::create_directories(run.phase.work_dir);
    Tracer::reset(run.phase.trace);

    // Each phase runs on a thread of its own, so the scheduler places it
    // afresh: a thread kept for a whole run stays on whichever core it
    // first landed on, and on a shared host one slow core then moves every
    // slice of that run together.
    Status status = Status::Ok();
    std::thread phase_thread([&] {
      const auto setup_start = Clock::now();
      status = workload->setup(run.phase);
      setup_s.push_back(
          std::chrono::duration<double>(Clock::now() - setup_start).count());
      if (status.ok() && !run.phase.setup_only) {
        const double cpu_start = self_cpu_us();
        status = workload->run(run.phase, run.result);
        run.client_cpu_us = self_cpu_us() - cpu_start;
      }
      workload->teardown(run.result);
    });
    phase_thread.join();
    std::filesystem::remove_all(run.phase.work_dir);
    // Hand the freed heap back, so that what one phase left in the
    // allocator's arenas does not add to the peak of the next.
    ::malloc_trim(0);
    if (!status.ok()) {
      Tracer::reset(false);
      return Status(status.code(), options.workload + " phase " +
                                       run.phase.label + ": " +
                                       status.message());
    }
    PhaseResult& r = run.result;
    if (r.has_peer) {
      peer_rss_growth_kb = std::max(peer_rss_growth_kb, r.peer.rss_growth_kb);
      if (r.peer.exit_code != 0) {
        r.failed_ops += 1;
        out.notes.push_back("phase " + run.phase.label +
                            ": peer exited with code " +
                            std::to_string(r.peer.exit_code));
      }
    }
    out.attempted += r.attempted;
    out.failed += r.failed_ops + r.check_misses;
    if (!run.phase.setup_only) {
      out.notes.push_back(
          "phase " + run.phase.label + ": attempted=" +
          std::to_string(r.attempted) + " delivered=" +
          std::to_string(r.delivered) + " failed_ops=" +
          std::to_string(r.failed_ops) + " check_misses=" +
          std::to_string(r.check_misses) + " window_s=" + fmt(r.window_s) +
          " throughput_rps=" + fmt(throughput(run)) +
          (run.phase.loop == Loop::kOpen
               ? " latency_p50_ms=" +
                     fmt(percentile_or_nan(r.latency_ms.values(), 0.5)) +
                     " generator_lag_ms_max=" +
                     fmt(r.generator_lag_ms.values().empty()
                             ? 0.0
                             : *std::max_element(
                                   r.generator_lag_ms.values().begin(),
                                   r.generator_lag_ms.values().end()))
               : ""));
    }
    if (run.phase.trace) {
      const std::string path = options.trace_dir + "/" + options.workload +
                               "-seed" + std::to_string(options.seed) + "-" +
                               run.phase.label + ".jsonl";
      if (auto s = Tracer::write_jsonl(path); s.ok()) {
        out.notes.push_back("spans written to " + path);
      }
      for (const auto& [name, t] : Tracer::totals()) {
        out.notes.push_back(
            "self time " + run.phase.label + " " + name + ": calls=" +
            std::to_string(t.count) + " total_ms=" +
            fmt(static_cast<double>(t.total_ns) / 1e6) + " self_ms=" +
            fmt(static_cast<double>(t.self_ns) / 1e6));
      }
    }
    Tracer::reset(false);
    runs[run.phase.label] = std::move(run);
  }

  if (!options.trace) {
    std::vector<double> tput, cpu, p50, p99, lag_p99, p90;
    for (int i = 0; i < kSlices; ++i) {
      const PhaseRun& closed = runs.at("closed" + std::to_string(i));
      const PhaseRun& open = runs.at("open" + std::to_string(i));
      tput.push_back(throughput(closed));
      cpu.push_back((closed.client_cpu_us + peer_cpu_us(closed)) /
                    delivered(closed));
      const auto& lat = open.result.latency_ms.values();
      p50.push_back(percentile_or_nan(lat, 0.5));
      p99.push_back(percentile_or_nan(lat, 0.99));
      p90.push_back(percentile_or_nan(lat, 0.90));
      lag_p99.push_back(
          percentile_or_nan(open.result.generator_lag_ms.values(), 0.99));
    }
    const std::map<std::string, double> e2e = {
        {"setup_s", median(setup_s)},
        {"throughput_rps", better_quartile(tput, false)},
        {"latency_p50_ms", better_quartile(p50, true)},
        {"cpu_us_per_rec", better_quartile(cpu, true)},
        {"peak_rss_mb", (self_peak_rss_kb() + peer_rss_growth_kb) / 1024.0},
    };
    for (const auto& [name, unit] : end_to_end_metrics()) {
      out.metrics.push_back({name, e2e.at(name), unit});
    }
    // Tail latencies spread far more from run to run on a shared host than
    // a regression bound can absorb, so they are printed but not part of
    // the result.
    out.printed_only.push_back({"latency_p90_ms", better_quartile(p90, true), "ms"});
    out.printed_only.push_back({"latency_p99_ms", better_quartile(p99, true), "ms"});
    out.notes.push_back("open loop: rate_rps=" +
                        fmt(workload->open_loop_rate()) +
                        " generator_lag_ms_p99 (median of slices)=" +
                        fmt(median(lag_p99)));
  } else {
    const PhaseRun& closed = runs.at("closed");
    const PhaseRun& traced = runs.at("closed-traced");
    const PhaseRun& open = runs.at("open-traced");
    std::map<std::string, double> layer = traced.result.layer;
    for (const auto& [name, value] : open.result.layer) layer[name] = value;
    layer["cpu.client_us_per_rec"] = closed.client_cpu_us / delivered(closed);
    layer["cpu.peer_us_per_rec"] = peer_cpu_us(closed) / delivered(closed);
    layer["bench.generator_lag_ms_p99"] =
        percentile_or_nan(open.result.generator_lag_ms.values(), 0.99);
    const double base = throughput(closed);
    layer["trace.overhead_frac"] =
        base > 0 ? 1.0 - throughput(traced) / base : std::nan("");
    for (const auto& [name, unit] : per_layer_metrics()) {
      auto it = layer.find(name);
      out.metrics.push_back({name, it == layer.end() ? 0.0 : it->second, unit});
    }
  }
  for (const Metric& m : out.metrics) {
    if (!std::isfinite(m.value)) {
      out.failed += 1;
      out.notes.push_back("metric " + m.name +
                          " has too few samples for its percentile");
    }
  }
  return out;
}

}  // namespace pe::bench_e2e
