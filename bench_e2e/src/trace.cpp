#include "trace.h"

#include <cstdio>
#include <memory>
#include <mutex>

#include "common/clock.h"

namespace pe::bench_e2e {
namespace {

struct Frame {
  const char* name;
  std::uint64_t id;
  std::uint64_t record;
  std::uint64_t start_ns;
  std::uint64_t child_ns;
};

struct ThreadBuffer {
  std::uint64_t thread_index = 0;
  std::uint64_t next_id = 1;
  std::uint64_t seen = 0;
  std::uint64_t stride = 1;
  std::vector<Frame> stack;
  std::vector<Tracer::Span> spans;
  std::map<const char*, Tracer::Totals> totals;
};

// Buffers of every thread that traced since the last reset. A thread
// re-registers (under the mutex) only when it sees a newer generation;
// every other span touches no shared state.
struct Registry {
  std::mutex mutex;
  std::atomic<std::uint64_t> generation{1};
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
};

Registry& registry() {
  static Registry r;
  return r;
}

ThreadBuffer& local_buffer() {
  thread_local std::uint64_t generation = 0;
  thread_local std::shared_ptr<ThreadBuffer> buffer;
  Registry& r = registry();
  if (generation == r.generation.load(std::memory_order_acquire)) {
    return *buffer;
  }
  std::lock_guard<std::mutex> lock(r.mutex);
  buffer = std::make_shared<ThreadBuffer>();
  buffer->thread_index = r.buffers.size() + 1;
  buffer->spans.reserve(1024);
  r.buffers.push_back(buffer);
  generation = r.generation.load(std::memory_order_relaxed);
  return *buffer;
}

}  // namespace

std::atomic<bool> Tracer::enabled_{false};

void Tracer::reset(bool enabled) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  r.generation.fetch_add(1, std::memory_order_release);
  r.buffers.clear();
  enabled_.store(enabled, std::memory_order_relaxed);
}

void Tracer::begin(const char* name, std::uint64_t record) {
  ThreadBuffer& b = local_buffer();
  const std::uint64_t id = (b.thread_index << 40) | b.next_id++;
  b.stack.push_back({name, id, record, Clock::now_ns(), 0});
}

void Tracer::end() {
  const std::uint64_t now = Clock::now_ns();
  ThreadBuffer& b = local_buffer();
  if (b.stack.empty()) return;
  const Frame f = b.stack.back();
  b.stack.pop_back();
  const std::uint64_t duration = now - f.start_ns;
  Totals& t = b.totals[f.name];
  t.count += 1;
  t.total_ns += duration;
  t.self_ns += duration > f.child_ns ? duration - f.child_ns : 0;
  const std::uint64_t parent = b.stack.empty() ? 0 : b.stack.back().id;
  if (!b.stack.empty()) b.stack.back().child_ns += duration;
  if (b.seen++ % b.stride != 0) return;
  b.spans.push_back({f.name, f.id, parent, f.record, f.start_ns, now});
  if (b.spans.size() >= kMaxSpansPerThread) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < b.spans.size(); i += 2) {
      b.spans[kept++] = b.spans[i];
    }
    b.spans.resize(kept);
    b.stride *= 2;
  }
}

std::vector<double> Tracer::durations_us(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  std::vector<double> out;
  for (const auto& b : r.buffers) {
    for (const Span& s : b->spans) {
      if (name == s.name) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
      }
    }
  }
  return out;
}

std::map<std::string, Tracer::Totals> Tracer::totals() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  std::map<std::string, Totals> out;
  for (const auto& b : r.buffers) {
    for (const auto& [name, t] : b->totals) {
      Totals& o = out[name];
      o.count += t.count;
      o.total_ns += t.total_ns;
      o.self_ns += t.self_ns;
    }
  }
  return out;
}

Status Tracer::write_jsonl(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::Unavailable("cannot write " + path);
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  for (const auto& b : r.buffers) {
    for (const Span& s : b->spans) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                   "\"record\":%llu,\"start_ns\":%llu,\"end_ns\":%llu}\n",
                   s.name, static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.record),
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns));
    }
  }
  std::fclose(f);
  return Status::Ok();
}

}  // namespace pe::bench_e2e
