#include "paramserver/server.h"

namespace pe::ps {

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

}  // namespace pe::ps
