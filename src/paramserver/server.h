// ParameterServer: versioned key-value store for shared state.
//
// The paper uses a Redis instance as a "parameter server for sharing model
// weights across the continuum". This is the same role: byte values under
// string keys, a monotonically increasing version per key, compare-and-set
// for optimistic concurrency between trainers, and blocking watch so
// inference tasks can pick up fresh models without polling.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/serialize.h"
#include "common/status.h"
#include "network/site.h"

namespace pe::ps {

struct VersionedValue {
  Bytes value;
  std::uint64_t version = 0;
  std::uint64_t updated_ns = 0;
};

struct ServerStats {
  std::uint64_t sets = 0;
  std::uint64_t gets = 0;
  std::uint64_t cas_success = 0;
  std::uint64_t cas_conflicts = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
};

class ParameterServer {
 public:
  explicit ParameterServer(net::SiteId site);

  const net::SiteId& site() const { return site_; }

  /// Unconditional write; returns the new version (starts at 1).
  std::uint64_t set(const std::string& key, Bytes value);

  /// Read; NOT_FOUND if absent.
  Result<VersionedValue> get(const std::string& key) const;

  /// Writes only if the current version equals expected_version (0 means
  /// "key must not exist"). FAILED_PRECONDITION on version conflict.
  Result<std::uint64_t> compare_and_set(const std::string& key,
                                        std::uint64_t expected_version,
                                        Bytes value);

  /// Blocks until key's version exceeds last_seen (or timeout). Returns
  /// the fresh value; TIMEOUT if nothing newer arrived in time.
  Result<VersionedValue> watch(const std::string& key,
                               std::uint64_t last_seen,
                               Duration timeout) const;

  /// Atomic counter increment (creates the key at 0 first); returns the
  /// post-increment value.
  std::int64_t incr(const std::string& key, std::int64_t delta = 1);

  Status erase(const std::string& key);
  bool contains(const std::string& key) const;
  std::vector<std::string> keys() const;
  std::size_t size() const;

  ServerStats stats() const;

 private:
  const net::SiteId site_;
  mutable Mutex mutex_;
  mutable CondVar updated_;
  std::map<std::string, VersionedValue> entries_ PE_GUARDED_BY(mutex_);
  std::map<std::string, std::int64_t> counters_ PE_GUARDED_BY(mutex_);
  mutable ServerStats stats_ PE_GUARDED_BY(mutex_);
};

}  // namespace pe::ps
