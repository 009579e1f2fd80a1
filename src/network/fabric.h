// Network fabric: the registry of sites and the links between them.
//
// Every cross-site byte in the system (broker produce/fetch, parameter
// server access) is charged to a fabric transfer. Same-site traffic uses an
// implicit loopback link with datacenter-class parameters.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "network/link.h"
#include "network/site.h"

namespace pe::net {

class Fabric {
 public:
  /// `loopback` describes same-site traffic; defaults to 10 Gbit/s,
  /// 50-150 us latency (datacenter LAN).
  explicit Fabric(LinkSpec loopback = default_loopback());

  static LinkSpec default_loopback();

  /// Registers a site. Fails with ALREADY_EXISTS on duplicate id.
  Status add_site(Site site);

  /// Adds a directed link. Both endpoints must be registered sites.
  Status add_link(LinkSpec spec);

  /// Adds links in both directions with the same spec.
  Status add_bidirectional_link(LinkSpec spec);

  bool has_site(const SiteId& id) const;
  Result<Site> site(const SiteId& id) const;
  std::vector<Site> sites() const;

  /// Moves `bytes` from one site to another, blocking the caller for the
  /// emulated transfer time. Unknown sites fail with NOT_FOUND; a missing
  /// inter-site link fails with FAILED_PRECONDITION (no default route —
  /// topology must be explicit, matching the paper's explicit resource
  /// allocation); a partitioned link fails with UNAVAILABLE.
  Result<TransferResult> transfer(const SiteId& from, const SiteId& to,
                                  std::uint64_t bytes);

  /// Mean one-way latency estimate between two sites (loopback if equal).
  Result<Duration> estimated_latency(const SiteId& from, const SiteId& to) const;

  /// Mean bandwidth estimate in bits/s between two sites.
  Result<double> estimated_bandwidth_bps(const SiteId& from, const SiteId& to) const;

  /// Per-link stats keyed "from->to" (loopback reported as "<site>-loop").
  std::map<std::string, LinkStats> link_stats() const;

  // --- chaos injection (fault module) ---
  /// Applies a runtime fault to the directed link from->to (loopback when
  /// the sites are equal). While `fault.partitioned`, transfer() on that
  /// link fails with UNAVAILABLE; degradation factors scale the sampled
  /// latency/bandwidth. NOT_FOUND / FAILED_PRECONDITION when the site /
  /// link is unknown.
  Status inject_link_fault(const SiteId& from, const SiteId& to,
                           LinkFault fault);
  /// Restores the link to its nominal spec.
  Status clear_link_fault(const SiteId& from, const SiteId& to);

  /// Convenience builder: the paper's two-site topology — LRZ cloud in
  /// Europe, Jetstream cloud in the US, WAN at 140-160 ms RTT and
  /// 60-100 Mbit/s, matching Section III measurements.
  static std::shared_ptr<Fabric> make_paper_topology();

  /// Single cloud site "lrz-eu" only (baseline experiments, Fig. 2).
  static std::shared_ptr<Fabric> make_single_site_topology();

 private:
  Link* find_link(const SiteId& from, const SiteId& to) const
      PE_REQUIRES(mutex_);
  Link* loopback_for(const SiteId& site) const PE_REQUIRES(mutex_);

  // Registry lock only: transfer() resolves the link under it, then
  // sleeps/charges on the Link's own mutex with this one released.
  mutable Mutex mutex_;
  LinkSpec loopback_spec_;
  std::map<SiteId, Site> sites_ PE_GUARDED_BY(mutex_);
  // Directed links keyed by "from\0to"; loopbacks created lazily per site.
  mutable std::map<std::string, std::unique_ptr<Link>> links_
      PE_GUARDED_BY(mutex_);
  mutable std::map<SiteId, std::unique_ptr<Link>> loopbacks_
      PE_GUARDED_BY(mutex_);
  std::uint64_t next_seed_ PE_GUARDED_BY(mutex_) = 1000;
};

}  // namespace pe::net
