#include "paramserver/server.h"

#include <limits>

#include "common/logging.h"
#include "telemetry/metrics.h"

namespace pe::ps {

namespace {

// Snapshot record keys: "e:<key>" entry, "c:<key>" counter, "__commit"
// marker carrying the number of records in the snapshot it closes.
constexpr char kEntryPrefix = 'e';
constexpr char kCounterPrefix = 'c';
constexpr const char* kCommitKey = "__commit";

}  // namespace

ParameterServer::ParameterServer(net::SiteId site) : site_(std::move(site)) {}

std::uint64_t ParameterServer::set(const std::string& key, Bytes value) {
  std::uint64_t version;
  {
    MutexLock lock(mutex_);
    VersionedValue& entry = entries_[key];
    stats_.sets += 1;
    stats_.bytes_in += value.size();
    entry.value = std::move(value);
    entry.version += 1;
    entry.updated_ns = Clock::now_ns();
    version = entry.version;
  }
  updated_.notify_all();
  return version;
}

Result<VersionedValue> ParameterServer::get(const std::string& key) const {
  MutexLock lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    return Status::NotFound("key '" + key + "' not found");
  }
  stats_.gets += 1;
  stats_.bytes_out += it->second.value.size();
  return it->second;
}

Result<std::uint64_t> ParameterServer::compare_and_set(
    const std::string& key, std::uint64_t expected_version, Bytes value) {
  std::uint64_t version;
  {
    MutexLock lock(mutex_);
    auto it = entries_.find(key);
    const std::uint64_t current = it == entries_.end() ? 0 : it->second.version;
    if (current != expected_version) {
      stats_.cas_conflicts += 1;
      return Status::FailedPrecondition(
          "version conflict on '" + key + "': expected " +
          std::to_string(expected_version) + ", is " + std::to_string(current));
    }
    VersionedValue& entry = entries_[key];
    stats_.cas_success += 1;
    stats_.bytes_in += value.size();
    entry.value = std::move(value);
    entry.version = current + 1;
    entry.updated_ns = Clock::now_ns();
    version = entry.version;
  }
  updated_.notify_all();
  return version;
}

Result<VersionedValue> ParameterServer::watch(const std::string& key,
                                              std::uint64_t last_seen,
                                              Duration timeout) const {
  // `timeout` is an emulated duration, like Consumer::poll's: scale the
  // wall-clock wait so watchers stay consistent with the rest of the
  // stack under PE_TIME_SCALE-accelerated experiments.
  UniqueLock lock(mutex_);
  const bool fresh = updated_.wait_until(
      lock, Clock::deadline_in(timeout), [&]() PE_NO_THREAD_SAFETY_ANALYSIS {
        auto it = entries_.find(key);
        return it != entries_.end() && it->second.version > last_seen;
      });
  if (!fresh) {
    return Status::Timeout("no update on '" + key + "' past version " +
                           std::to_string(last_seen));
  }
  auto it = entries_.find(key);
  stats_.gets += 1;
  stats_.bytes_out += it->second.value.size();
  return it->second;
}

std::int64_t ParameterServer::incr(const std::string& key,
                                   std::int64_t delta) {
  MutexLock lock(mutex_);
  return counters_[key] += delta;
}

Status ParameterServer::erase(const std::string& key) {
  MutexLock lock(mutex_);
  if (entries_.erase(key) == 0) {
    return Status::NotFound("key '" + key + "' not found");
  }
  return Status::Ok();
}

bool ParameterServer::contains(const std::string& key) const {
  MutexLock lock(mutex_);
  return entries_.count(key) > 0;
}

std::vector<std::string> ParameterServer::keys() const {
  MutexLock lock(mutex_);
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [k, _] : entries_) out.push_back(k);
  return out;
}

std::size_t ParameterServer::size() const {
  MutexLock lock(mutex_);
  return entries_.size();
}

ServerStats ParameterServer::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

Status ParameterServer::snapshot(storage::LogDir& log) const {
  MutexLock lock(mutex_);
  const std::uint64_t now_ns = Clock::now_ns();
  std::uint64_t count = 0;
  for (const auto& [key, entry] : entries_) {
    broker::Record record;
    record.key = std::string("e:") + key;
    Bytes out;
    ByteWriter w(out);
    w.put_u64(entry.version);
    w.put_u64(entry.updated_ns);
    w.put_bytes(entry.value);
    record.value = std::move(out);
    if (auto a = log.append(record, now_ns); !a.ok()) return a.status();
    ++count;
  }
  for (const auto& [key, value] : counters_) {
    broker::Record record;
    record.key = std::string("c:") + key;
    Bytes out;
    ByteWriter w(out);
    w.put_u64(static_cast<std::uint64_t>(value));
    record.value = std::move(out);
    if (auto a = log.append(record, now_ns); !a.ok()) return a.status();
    ++count;
  }
  broker::Record marker;
  marker.key = kCommitKey;
  Bytes out;
  ByteWriter w(out);
  w.put_u64(count);
  marker.value = std::move(out);
  if (auto a = log.append(marker, now_ns); !a.ok()) return a.status();
  // The marker only counts once its records are on stable storage: a
  // snapshot is complete iff the fsync below returned.
  if (auto s = log.sync(); !s.ok()) return s;
  // Older snapshots are garbage now; whole-segment retention keeps every
  // segment still needed to cover this snapshot's records.
  log.apply_retention(count + 1, 0, 0);
  tel::MetricsRegistry::global().counter("ps.snapshots").add();
  return Status::Ok();
}

Status ParameterServer::restore(storage::LogDir& log) {
  std::map<std::string, VersionedValue> entries, staged_entries;
  std::map<std::string, std::int64_t> counters, staged_counters;
  bool complete = false;
  std::uint64_t staged = 0;

  std::uint64_t offset = log.start_offset();
  const std::uint64_t end = log.end_offset();
  while (offset < end) {
    auto batch = log.fetch(offset, 512,
                           std::numeric_limits<std::uint64_t>::max());
    if (!batch.ok()) return batch.status();
    if (batch.value().empty()) break;
    for (const auto& r : batch.value()) {
      const std::string& key = r.record.key;
      if (key == kCommitKey) {
        std::uint64_t want = 0;
        ByteReader reader(r.record.value);
        if (reader.get_u64(want).ok() && want == staged) {
          entries = std::move(staged_entries);
          counters = std::move(staged_counters);
          complete = true;
        } else {
          PE_LOG_WARN("ignoring snapshot with bad commit marker at offset "
                      << r.offset);
        }
        staged_entries.clear();
        staged_counters.clear();
        staged = 0;
        continue;
      }
      if (key.size() < 2 || key[1] != ':') {
        PE_LOG_WARN("skipping malformed snapshot key at offset " << r.offset);
        continue;
      }
      ByteReader reader(r.record.value);
      if (key[0] == kEntryPrefix) {
        VersionedValue entry;
        if (!reader.get_u64(entry.version).ok() ||
            !reader.get_u64(entry.updated_ns).ok() ||
            !reader.get_bytes(entry.value).ok()) {
          PE_LOG_WARN("skipping malformed snapshot entry at offset "
                      << r.offset);
          continue;
        }
        staged_entries[key.substr(2)] = std::move(entry);
        ++staged;
      } else if (key[0] == kCounterPrefix) {
        std::uint64_t bits = 0;
        if (!reader.get_u64(bits).ok()) {
          PE_LOG_WARN("skipping malformed snapshot counter at offset "
                      << r.offset);
          continue;
        }
        staged_counters[key.substr(2)] = static_cast<std::int64_t>(bits);
        ++staged;
      }
    }
    offset = batch.value().back().offset + 1;
  }

  if (!complete) {
    return Status::NotFound("no complete snapshot in '" + log.dir() + "'");
  }
  {
    MutexLock lock(mutex_);
    entries_ = std::move(entries);
    counters_ = std::move(counters);
  }
  updated_.notify_all();
  return Status::Ok();
}

Status ParameterServer::snapshot_to(const std::string& dir,
                                    storage::StorageConfig config) const {
  // The snapshot syncs exactly once, at the commit marker.
  config.flush_policy = storage::FlushPolicy::kNever;
  auto log = storage::LogDir::open(dir, config);
  if (!log.ok()) return log.status();
  return snapshot(*log.value());
}

Status ParameterServer::restore_from(const std::string& dir,
                                     storage::StorageConfig config) {
  auto log = storage::LogDir::open(dir, config);
  if (!log.ok()) return log.status();
  return restore(*log.value());
}

}  // namespace pe::ps
