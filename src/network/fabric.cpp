#include "network/fabric.h"

namespace pe::net {
namespace {

std::string link_key(const SiteId& from, const SiteId& to) {
  return from + std::string(1, '\0') + to;
}

/// A topology error, not an outage: not transient, so never retried.
Status no_link(const SiteId& from, const SiteId& to) {
  return Status::FailedPrecondition("no link " + from + "->" + to);
}

}  // namespace

Fabric::Fabric(LinkSpec loopback) : loopback_spec_(std::move(loopback)) {}

LinkSpec Fabric::default_loopback() {
  LinkSpec spec;
  spec.from = "<loopback>";
  spec.to = "<loopback>";
  spec.latency_min = std::chrono::microseconds(50);
  spec.latency_max = std::chrono::microseconds(150);
  spec.bandwidth_min_bps = 10e9;
  spec.bandwidth_max_bps = 10e9;
  return spec;
}

Status Fabric::add_site(Site site) {
  MutexLock lock(mutex_);
  if (sites_.count(site.id) > 0) {
    return Status::AlreadyExists("site '" + site.id + "' already registered");
  }
  sites_.emplace(site.id, std::move(site));
  return Status::Ok();
}

Status Fabric::add_link(LinkSpec spec) {
  MutexLock lock(mutex_);
  if (sites_.count(spec.from) == 0) {
    return Status::NotFound("unknown source site '" + spec.from + "'");
  }
  if (sites_.count(spec.to) == 0) {
    return Status::NotFound("unknown destination site '" + spec.to + "'");
  }
  if (spec.from == spec.to) {
    return Status::InvalidArgument("self-link; loopback is implicit");
  }
  const std::string key = link_key(spec.from, spec.to);
  if (links_.count(key) > 0) {
    return Status::AlreadyExists("link " + spec.from + "->" + spec.to +
                                 " already exists");
  }
  links_.emplace(key, std::make_unique<Link>(std::move(spec), next_seed_++));
  return Status::Ok();
}

Status Fabric::add_bidirectional_link(LinkSpec spec) {
  LinkSpec reverse = spec;
  std::swap(reverse.from, reverse.to);
  if (auto s = add_link(std::move(spec)); !s.ok()) return s;
  return add_link(std::move(reverse));
}

bool Fabric::has_site(const SiteId& id) const {
  MutexLock lock(mutex_);
  return sites_.count(id) > 0;
}

Result<Site> Fabric::site(const SiteId& id) const {
  MutexLock lock(mutex_);
  auto it = sites_.find(id);
  if (it == sites_.end()) {
    return Status::NotFound("unknown site '" + id + "'");
  }
  return it->second;
}

std::vector<Site> Fabric::sites() const {
  MutexLock lock(mutex_);
  std::vector<Site> out;
  out.reserve(sites_.size());
  for (const auto& [_, s] : sites_) out.push_back(s);
  return out;
}

Link* Fabric::find_link(const SiteId& from, const SiteId& to) const {
  auto it = links_.find(link_key(from, to));
  return it == links_.end() ? nullptr : it->second.get();
}

Link* Fabric::loopback_for(const SiteId& site) const {
  auto it = loopbacks_.find(site);
  if (it == loopbacks_.end()) {
    LinkSpec spec = loopback_spec_;
    spec.from = site;
    spec.to = site;
    it = loopbacks_
             .emplace(site, std::make_unique<Link>(
                                std::move(spec),
                                std::hash<std::string>{}(site)))
             .first;
  }
  return it->second.get();
}

Result<TransferResult> Fabric::transfer(const SiteId& from, const SiteId& to,
                                        std::uint64_t bytes) {
  Link* link = nullptr;
  {
    MutexLock lock(mutex_);
    if (sites_.count(from) == 0) {
      return Status::NotFound("unknown source site '" + from + "'");
    }
    if (sites_.count(to) == 0) {
      return Status::NotFound("unknown destination site '" + to + "'");
    }
    link = (from == to) ? loopback_for(from) : find_link(from, to);
    if (link == nullptr) {
      return no_link(from, to);
    }
  }
  if (link->partitioned()) {
    return Status::Unavailable("link " + from + "->" + to + " partitioned");
  }
  // Transfer outside the fabric lock: links serialize themselves.
  return link->transfer(bytes);
}

Status Fabric::inject_link_fault(const SiteId& from, const SiteId& to,
                                 LinkFault fault) {
  Link* link = nullptr;
  {
    MutexLock lock(mutex_);
    if (sites_.count(from) == 0 || sites_.count(to) == 0) {
      return Status::NotFound("unknown site");
    }
    link = (from == to) ? loopback_for(from) : find_link(from, to);
  }
  if (link == nullptr) {
    return no_link(from, to);
  }
  link->set_fault(fault);
  return Status::Ok();
}

Status Fabric::clear_link_fault(const SiteId& from, const SiteId& to) {
  return inject_link_fault(from, to, LinkFault{});
}

Result<Duration> Fabric::estimated_latency(const SiteId& from,
                                           const SiteId& to) const {
  MutexLock lock(mutex_);
  if (sites_.count(from) == 0 || sites_.count(to) == 0) {
    return Status::NotFound("unknown site");
  }
  if (from == to) return loopback_spec_.mean_latency();
  const Link* link = find_link(from, to);
  if (link == nullptr) return no_link(from, to);
  return link->spec().mean_latency();
}

Result<double> Fabric::estimated_bandwidth_bps(const SiteId& from,
                                               const SiteId& to) const {
  MutexLock lock(mutex_);
  if (sites_.count(from) == 0 || sites_.count(to) == 0) {
    return Status::NotFound("unknown site");
  }
  if (from == to) return loopback_spec_.mean_bandwidth_bps();
  const Link* link = find_link(from, to);
  if (link == nullptr) return no_link(from, to);
  return link->spec().mean_bandwidth_bps();
}

std::map<std::string, LinkStats> Fabric::link_stats() const {
  MutexLock lock(mutex_);
  std::map<std::string, LinkStats> out;
  for (const auto& [key, link] : links_) {
    out[link->spec().from + "->" + link->spec().to] = link->stats();
  }
  for (const auto& [site, link] : loopbacks_) {
    out[site + "-loop"] = link->stats();
  }
  return out;
}

std::shared_ptr<Fabric> Fabric::make_paper_topology() {
  auto fabric = std::make_shared<Fabric>();
  (void)fabric->add_site(Site{.id = "lrz-eu",
                              .kind = SiteKind::kCloud,
                              .region = "eu-de",
                              .description = "LRZ Compute Cloud, Garching"});
  (void)fabric->add_site(Site{.id = "jetstream-us",
                              .kind = SiteKind::kCloud,
                              .region = "us-east",
                              .description = "XSEDE Jetstream, Indiana"});
  (void)fabric->add_site(Site{.id = "edge-us",
                              .kind = SiteKind::kEdge,
                              .region = "us-east",
                              .description = "Edge devices near Jetstream"});
  // Paper Section III: RTT 140-160 ms => one-way 70-80 ms; bandwidth
  // fluctuated 60-100 Mbit/s (iPerf).
  LinkSpec wan;
  wan.from = "jetstream-us";
  wan.to = "lrz-eu";
  wan.latency_min = std::chrono::milliseconds(70);
  wan.latency_max = std::chrono::milliseconds(80);
  wan.bandwidth_min_bps = 60e6;
  wan.bandwidth_max_bps = 100e6;
  (void)fabric->add_bidirectional_link(wan);
  // Edge devices connect to their nearby cloud over a metro link.
  LinkSpec metro;
  metro.from = "edge-us";
  metro.to = "jetstream-us";
  metro.latency_min = std::chrono::milliseconds(2);
  metro.latency_max = std::chrono::milliseconds(5);
  metro.bandwidth_min_bps = 500e6;
  metro.bandwidth_max_bps = 1000e6;
  (void)fabric->add_bidirectional_link(metro);
  // Edge to remote (EU) cloud: metro + WAN combined characteristics.
  LinkSpec edge_wan;
  edge_wan.from = "edge-us";
  edge_wan.to = "lrz-eu";
  edge_wan.latency_min = std::chrono::milliseconds(72);
  edge_wan.latency_max = std::chrono::milliseconds(85);
  edge_wan.bandwidth_min_bps = 60e6;
  edge_wan.bandwidth_max_bps = 100e6;
  (void)fabric->add_bidirectional_link(edge_wan);
  return fabric;
}

std::shared_ptr<Fabric> Fabric::make_single_site_topology() {
  auto fabric = std::make_shared<Fabric>();
  (void)fabric->add_site(Site{.id = "lrz-eu",
                              .kind = SiteKind::kCloud,
                              .region = "eu-de",
                              .description = "LRZ Compute Cloud, Garching"});
  return fabric;
}

}  // namespace pe::net
