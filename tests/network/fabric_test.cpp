#include "network/fabric.h"

#include <gtest/gtest.h>

namespace pe::net {
namespace {

std::unique_ptr<Fabric> make_two_site_fabric() {
  auto fabric = std::make_unique<Fabric>();
  EXPECT_TRUE(fabric->add_site({.id = "a", .kind = SiteKind::kEdge}).ok());
  EXPECT_TRUE(fabric->add_site({.id = "b", .kind = SiteKind::kCloud}).ok());
  LinkSpec spec;
  spec.from = "a";
  spec.to = "b";
  spec.latency_min = spec.latency_max = std::chrono::milliseconds(1);
  spec.bandwidth_min_bps = spec.bandwidth_max_bps = 1e9;
  EXPECT_TRUE(fabric->add_bidirectional_link(spec).ok());
  return fabric;
}

TEST(FabricTest, DuplicateSiteRejected) {
  Fabric fabric;
  ASSERT_TRUE(fabric.add_site({.id = "x"}).ok());
  EXPECT_EQ(fabric.add_site({.id = "x"}).code(), StatusCode::kAlreadyExists);
}

TEST(FabricTest, LinkRequiresKnownSites) {
  Fabric fabric;
  ASSERT_TRUE(fabric.add_site({.id = "x"}).ok());
  LinkSpec spec;
  spec.from = "x";
  spec.to = "nowhere";
  EXPECT_EQ(fabric.add_link(spec).code(), StatusCode::kNotFound);
  spec.from = "nowhere";
  spec.to = "x";
  EXPECT_EQ(fabric.add_link(spec).code(), StatusCode::kNotFound);
}

TEST(FabricTest, SelfLinkRejected) {
  Fabric fabric;
  ASSERT_TRUE(fabric.add_site({.id = "x"}).ok());
  LinkSpec spec;
  spec.from = "x";
  spec.to = "x";
  EXPECT_EQ(fabric.add_link(spec).code(), StatusCode::kInvalidArgument);
}

TEST(FabricTest, DuplicateLinkRejected) {
  auto fabric_ptr = make_two_site_fabric();
  Fabric& fabric = *fabric_ptr;
  LinkSpec spec;
  spec.from = "a";
  spec.to = "b";
  EXPECT_EQ(fabric.add_link(spec).code(), StatusCode::kAlreadyExists);
}

TEST(FabricTest, TransferAcrossLink) {
  auto fabric_ptr = make_two_site_fabric();
  Fabric& fabric = *fabric_ptr;
  auto result = fabric.transfer("a", "b", 1000);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().bytes, 1000u);
  EXPECT_GE(result.value().propagation, std::chrono::milliseconds(1));
}

TEST(FabricTest, TransferWithoutLinkFailsPrecondition) {
  // A missing link is a topology error: not transient, so no client
  // retries it.
  Fabric fabric;
  ASSERT_TRUE(fabric.add_site({.id = "a"}).ok());
  ASSERT_TRUE(fabric.add_site({.id = "c"}).ok());
  const Status status = fabric.transfer("a", "c", 10).status();
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(status.is_transient());
}

TEST(FabricTest, TransferUnknownSiteIsNotFound) {
  auto fabric_ptr = make_two_site_fabric();
  Fabric& fabric = *fabric_ptr;
  EXPECT_EQ(fabric.transfer("a", "zz", 10).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(fabric.transfer("zz", "a", 10).status().code(),
            StatusCode::kNotFound);
}

TEST(FabricTest, LoopbackIsImplicitAndFast) {
  auto fabric_ptr = make_two_site_fabric();
  Fabric& fabric = *fabric_ptr;
  Stopwatch sw;
  auto result = fabric.transfer("a", "a", 1000);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(sw.elapsed_ms(), 10.0);
}

TEST(FabricTest, EstimatesReflectLinkSpec) {
  auto fabric_ptr = make_two_site_fabric();
  Fabric& fabric = *fabric_ptr;
  auto lat = fabric.estimated_latency("a", "b");
  ASSERT_TRUE(lat.ok());
  EXPECT_EQ(lat.value(), std::chrono::milliseconds(1));
  auto bw = fabric.estimated_bandwidth_bps("a", "b");
  ASSERT_TRUE(bw.ok());
  EXPECT_DOUBLE_EQ(bw.value(), 1e9);
}

TEST(FabricTest, EstimateForMissingLinkFails) {
  Fabric fabric;
  ASSERT_TRUE(fabric.add_site({.id = "a"}).ok());
  ASSERT_TRUE(fabric.add_site({.id = "b"}).ok());
  EXPECT_EQ(fabric.estimated_latency("a", "b").status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(FabricTest, LinkStatsKeyedByDirection) {
  auto fabric_ptr = make_two_site_fabric();
  Fabric& fabric = *fabric_ptr;
  ASSERT_TRUE(fabric.transfer("a", "b", 100).ok());
  ASSERT_TRUE(fabric.transfer("b", "a", 50).ok());
  ASSERT_TRUE(fabric.transfer("a", "a", 10).ok());
  const auto stats = fabric.link_stats();
  EXPECT_EQ(stats.at("a->b").bytes, 100u);
  EXPECT_EQ(stats.at("b->a").bytes, 50u);
  EXPECT_EQ(stats.at("a-loop").bytes, 10u);
}

TEST(FabricTest, SitesListsAll) {
  auto fabric_ptr = make_two_site_fabric();
  Fabric& fabric = *fabric_ptr;
  EXPECT_EQ(fabric.sites().size(), 2u);
  EXPECT_TRUE(fabric.has_site("a"));
  EXPECT_FALSE(fabric.has_site("q"));
  EXPECT_EQ(fabric.site("b").value().kind, SiteKind::kCloud);
}

TEST(PaperTopologyTest, HasPaperSitesAndWanParameters) {
  auto fabric = Fabric::make_paper_topology();
  ASSERT_TRUE(fabric->has_site("lrz-eu"));
  ASSERT_TRUE(fabric->has_site("jetstream-us"));
  ASSERT_TRUE(fabric->has_site("edge-us"));

  // Paper: RTT 140-160 ms => one-way mean ~75 ms.
  auto lat = fabric->estimated_latency("jetstream-us", "lrz-eu");
  ASSERT_TRUE(lat.ok());
  const double ms = std::chrono::duration<double, std::milli>(lat.value()).count();
  EXPECT_GE(ms, 70.0);
  EXPECT_LE(ms, 80.0);

  // Paper: 60-100 Mbit/s.
  auto bw = fabric->estimated_bandwidth_bps("jetstream-us", "lrz-eu");
  ASSERT_TRUE(bw.ok());
  EXPECT_NEAR(bw.value(), 80e6, 1e6);
}

TEST(PaperTopologyTest, SingleSiteVariantOnlyHasLrz) {
  auto fabric = Fabric::make_single_site_topology();
  EXPECT_TRUE(fabric->has_site("lrz-eu"));
  EXPECT_EQ(fabric->sites().size(), 1u);
}

}  // namespace
}  // namespace pe::net
