// Hierarchical aggregation overlay: layout builder, roll-up state machine,
// election fallback, end-to-end roll-up/drill-down behaviour, and the
// aggregator-crash chaos scenario:
//  * the zone tree is a pure function of (node_count, config) — every node
//    derives the same shape, candidates and parents without a protocol;
//  * ZoneRollup folds origin feeds and child aggregates with overwrite
//    semantics, so a re-elected child aggregator never double-counts;
//  * a subscriber sees one cluster summary whose per-metric count covers
//    every live node, plus /proc/cluster/rollup and zone files;
//  * drill-down pulls one node's raw feed through the tree without
//    flattening its zone;
//  * crashing an acting aggregator mid-period converges to the next
//    candidate, keeps counts duplicate-free, and keeps an active
//    drill-down alive across the handoff.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dproc/core/cluster.hpp"
#include "dproc/core/hierarchy.hpp"
#include "dproc/sim/fault.hpp"

namespace dproc::core {
namespace {

SimTime at(double sec) { return SimTime::zero() + seconds(sec); }

/// A raw feed carrying one sample.
net::MonitorBatch one_sample(std::uint32_t id, double value,
                             std::int64_t sampled_ns) {
  net::MonitorBatch batch;
  batch.entries.push_back(net::MonitorBatch::Entry{id, value, sampled_ns});
  return batch;
}

HierarchyConfig hier(std::size_t zone_size, std::size_t fanout) {
  HierarchyConfig config;
  config.enabled = true;
  config.zone_size = zone_size;
  config.fanout = fanout;
  return config;
}

// ---------------------------------------------------------------------------
// Layout builder.

TEST(HierarchyLayout, SixtyFourNodesMakeEightZonesAndOneRoot) {
  const HierarchyLayout layout = build_hierarchy(64, hier(8, 8));
  EXPECT_EQ(layout.node_count(), 64u);
  EXPECT_EQ(layout.tiers(), 2u);
  ASSERT_EQ(layout.zones().size(), 9u);  // 8 leaves + root
  EXPECT_EQ(layout.root().tier, 1u);
  EXPECT_EQ(layout.root().children.size(), 8u);
  EXPECT_EQ(layout.root().node_count, 64u);
  // Root candidates are the leftmost leaf's members: failover needs only
  // leaf membership knowledge.
  EXPECT_EQ(layout.root().candidates,
            (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7}));
  // Every node is covered by exactly its leaf.
  for (std::size_t node = 0; node < 64; ++node) {
    const HierarchyZone& leaf = layout.leaf_of(node);
    EXPECT_EQ(leaf.tier, 0u);
    EXPECT_TRUE(leaf.contains(node));
  }
  // Duties follow a node up the tree: node 0 serves its leaf and the root,
  // node 8 only its leaf.
  EXPECT_EQ(layout.duty_zones(0).size(), 2u);
  EXPECT_EQ(layout.duty_zones(8).size(), 1u);
}

TEST(HierarchyLayout, FiveTwelveNodesNeedThreeTiers) {
  const HierarchyLayout layout = build_hierarchy(512, hier(8, 8));
  EXPECT_EQ(layout.tiers(), 3u);
  ASSERT_EQ(layout.zones().size(), 64u + 8u + 1u);
  EXPECT_EQ(layout.root().node_count, 512u);
  std::size_t leaves = 0;
  for (const HierarchyZone& zone : layout.zones()) {
    if (zone.tier == 0) ++leaves;
    if (zone.parent) {
      EXPECT_EQ(layout.zone(*zone.parent).tier, zone.tier + 1);
    } else {
      EXPECT_EQ(zone.id, layout.root().id);
    }
  }
  EXPECT_EQ(leaves, 64u);
  // Node 0 is a candidate at every tier.
  EXPECT_EQ(layout.duty_zones(0).size(), 3u);
}

TEST(HierarchyLayout, RaggedNodeCountMakesAShortLastZone) {
  const HierarchyLayout layout = build_hierarchy(10, hier(8, 8));
  ASSERT_EQ(layout.zones().size(), 3u);  // {0..7}, {8,9}, root
  EXPECT_EQ(layout.leaf_of(9).members, (std::vector<std::size_t>{8, 9}));
  EXPECT_EQ(layout.root().node_count, 10u);
}

TEST(HierarchyLayout, ActingElectionFallsThroughDeadCandidates) {
  const HierarchyLayout layout = build_hierarchy(16, hier(8, 8));
  const HierarchyZone& leaf = layout.leaf_of(0);
  auto all_alive = [](std::size_t) { return true; };
  EXPECT_EQ(layout.acting(leaf, all_alive), 0u);
  auto zero_dead = [](std::size_t node) { return node != 0; };
  EXPECT_EQ(layout.acting(leaf, zero_dead), 1u);
  auto all_dead = [](std::size_t) { return false; };
  EXPECT_EQ(layout.acting(leaf, all_dead), std::nullopt);
}

// ---------------------------------------------------------------------------
// ZoneRollup state machine.

TEST(ZoneRollup, FoldsOriginSamplesIntoOneEntry) {
  ZoneRollup rollup;
  rollup.update_origin(1, one_sample(0, 1.0, 100), at(1.0));
  rollup.update_origin(2, one_sample(0, 3.0, 200), at(1.0));
  rollup.update_origin(3, one_sample(0, 2.0, 300), at(1.0));
  RollupSpec spec;
  spec.top_k = 2;
  net::AggregateBatch out;
  ASSERT_TRUE(rollup.build(out, spec, at(1.5), seconds(3.0)));
  ASSERT_EQ(out.entries.size(), 1u);
  const net::AggregateBatch::Entry& entry = out.entries[0];
  EXPECT_EQ(entry.count, 3u);
  EXPECT_DOUBLE_EQ(entry.min, 1.0);
  EXPECT_DOUBLE_EQ(entry.max, 3.0);
  EXPECT_DOUBLE_EQ(entry.sum, 6.0);
  EXPECT_EQ(entry.latest_ns, 300);
  ASSERT_EQ(entry.top.size(), 2u);
  EXPECT_EQ(entry.top[0].node, 2u);  // 3.0 beats 2.0
  EXPECT_DOUBLE_EQ(entry.top[0].value, 3.0);
  EXPECT_EQ(entry.top[1].node, 3u);
}

TEST(ZoneRollup, StaleOriginsAgeOutOfTheBuild) {
  ZoneRollup rollup;
  rollup.update_origin(1, one_sample(0, 1.0, 0), at(0.0));
  rollup.update_origin(2, one_sample(0, 2.0, 0), at(9.0));
  net::AggregateBatch out;
  ASSERT_TRUE(rollup.build(out, RollupSpec{}, at(10.0), seconds(3.0)));
  ASSERT_EQ(out.entries.size(), 1u);
  EXPECT_EQ(out.entries[0].count, 1u) << "origin 1 is past the horizon";
  // Everything stale: nothing to publish.
  EXPECT_FALSE(rollup.build(out, RollupSpec{}, at(20.0), seconds(3.0)));
}

TEST(ZoneRollup, ChildRepublishOverwritesInsteadOfDoubleCounting) {
  ZoneRollup rollup;
  net::AggregateBatch child;
  child.flags = RollupSpec{}.flags();
  child.tier = 0;
  child.zone = 7;
  child.entries.push_back({0, 8, 100, 1.0, 4.0, 16.0, {}});
  rollup.update_child(child, at(1.0));
  // The zone's re-elected aggregator republishes the same zone id — the
  // zone id is the overwrite key, so the count stays 8.
  child.entries[0].count = 8;
  child.entries[0].sum = 20.0;
  rollup.update_child(child, at(2.0));
  net::AggregateBatch out;
  ASSERT_TRUE(rollup.build(out, RollupSpec{}, at(2.5), seconds(3.0)));
  ASSERT_EQ(out.entries.size(), 1u);
  EXPECT_EQ(out.entries[0].count, 8u);
  EXPECT_DOUBLE_EQ(out.entries[0].sum, 20.0);
  EXPECT_EQ(rollup.child_count(), 1u);
}

// ---------------------------------------------------------------------------
// End-to-end roll-up on a real cluster.

TEST(HierarchyOverlay, SubscriberSeesOneClusterWideSummary) {
  sim::Engine engine;
  ClusterConfig config;
  config.node_count = 16;
  config.hierarchy = hier(4, 4);
  config.hierarchy.rollup.top_k = 2;
  config.hierarchy.subscribers = std::vector<std::size_t>{5};
  Cluster cluster{engine, config};
  cluster.start_dproc();
  engine.run_until(at(10.0));

  for (std::size_t i = 0; i < cluster.size(); ++i) {
    EXPECT_TRUE(cluster.dmon(i)->hierarchy_active());
  }
  // Node 5 is a plain leaf member of t0.z1, not a root candidate: its
  // summary arrived over the summary channel.
  const net::AggregateBatch* summary = cluster.dmon(5)->cluster_summary();
  ASSERT_NE(summary, nullptr);
  EXPECT_GT(cluster.dmon(5)->cluster_summary_at(), at(8.0));
  const net::AggregateBatch::Entry* loadavg = nullptr;
  for (const net::AggregateBatch::Entry& e : summary->entries) {
    if (e.id == 0) loadavg = &e;
  }
  ASSERT_NE(loadavg, nullptr);
  EXPECT_EQ(loadavg->count, 16u) << "every node folded exactly once";
  EXPECT_LE(loadavg->min, loadavg->max);
  ASSERT_FALSE(loadavg->top.empty());
  EXPECT_LE(loadavg->top.size(), 2u);

  // Rendered roll-up files at the subscriber...
  auto rendered = cluster.procfs(5).read("/proc/cluster/rollup/cpu/loadavg");
  ASSERT_TRUE(rendered.is_ok());
  EXPECT_NE(rendered.value().find("count 16"), std::string::npos)
      << rendered.value();
  // ...zone summaries at an acting aggregator...
  auto zone = cluster.procfs(12).read("/proc/cluster/zones/t0.z3/cpu/loadavg");
  ASSERT_TRUE(zone.is_ok());
  EXPECT_NE(zone.value().find("count 4"), std::string::npos) << zone.value();
  // ...and the overlay status file everywhere.
  auto status = cluster.procfs(8).read("/proc/dproc/hierarchy");
  ASSERT_TRUE(status.is_ok());
  EXPECT_NE(status.value().find("duty t0.z2 acting 8 (self)"),
            std::string::npos)
      << status.value();

  // A non-subscriber plain member holds no cluster summary and hears no
  // per-node raw feeds from other zones — the overlay does not flatten.
  EXPECT_EQ(cluster.dmon(14)->cluster_summary(), nullptr);
  EXPECT_EQ(cluster.dmon(5)->remote_metric(cluster.nic(13).node(), "loadavg"),
            nullptr);
}

TEST(HierarchyOverlay, DrillDownPullsOneRawFeedWithoutFlattening) {
  sim::Engine engine;
  ClusterConfig config;
  config.node_count = 16;
  config.hierarchy = hier(4, 4);
  config.hierarchy.subscribers = std::vector<std::size_t>{5};
  config.hierarchy.drill_ttl_periods = 3;
  Cluster cluster{engine, config};
  cluster.start_dproc();
  engine.run_until(at(5.0));

  // Only summary members can drill (they own the summary channel).
  EXPECT_FALSE(cluster.dmon(8)->drill_down(13, true).is_ok());

  // Procfs is the application-facing switch; node 13 lives in t0.z3.
  ASSERT_TRUE(cluster.procfs(5).write("/proc/dproc/drilldown", "13").is_ok());
  engine.run_until(at(10.0));
  const net::NodeId n13 = cluster.nic(13).node();
  const RemoteMetric* raw = cluster.dmon(5)->remote_metric(n13, "loadavg");
  ASSERT_NE(raw, nullptr) << "drilled feed must reach the requester";
  EXPECT_GT(raw->received_at, at(8.0));
  // The zone did not flatten: its other members' raw feeds stay zone-local.
  EXPECT_EQ(cluster.dmon(5)->remote_metric(cluster.nic(14).node(), "loadavg"),
            nullptr);
  auto rendered = cluster.procfs(5).read("/proc/dproc/drilldown");
  ASSERT_TRUE(rendered.is_ok());
  EXPECT_NE(rendered.value().find("local 13"), std::string::npos);

  // Switching it off stops the feed (explicit disable, not TTL expiry).
  ASSERT_TRUE(
      cluster.procfs(5).write("/proc/dproc/drilldown", "13 off").is_ok());
  engine.run_until(at(12.0));
  const SimTime stopped_at =
      cluster.dmon(5)->remote_metric(n13, "loadavg")->received_at;
  engine.run_until(at(16.0));
  EXPECT_EQ(cluster.dmon(5)->remote_metric(n13, "loadavg")->received_at,
            stopped_at)
      << "feed kept flowing after the drill-down was disabled";
}

TEST(HierarchyOverlay, RestartedRequesterHasNoOverlayMemory) {
  sim::Engine engine;
  ClusterConfig config;
  config.node_count = 16;
  config.hierarchy = hier(4, 4);
  config.hierarchy.subscribers = std::vector<std::size_t>{5};
  config.hierarchy.drill_ttl_periods = 3;
  config.liveness.enabled = true;  // the restarted node's channels heal
  Cluster cluster{engine, config};
  cluster.start_dproc();
  engine.run_until(at(5.0));
  ASSERT_TRUE(cluster.procfs(5).write("/proc/dproc/drilldown", "13").is_ok());
  engine.run_until(at(10.0));
  const net::NodeId n13 = cluster.nic(13).node();
  ASSERT_NE(cluster.dmon(5)->remote_metric(n13, "loadavg"), nullptr);
  ASSERT_NE(cluster.dmon(5)->cluster_summary(), nullptr);

  // A reboot forgets the summary and the drill: nothing re-announces it,
  // so it ages out at the aggregators within its TTL.
  cluster.crash_node(5);
  engine.run_until(at(11.0));
  cluster.restart_node(5);
  EXPECT_EQ(cluster.dmon(5)->cluster_summary(), nullptr);
  auto drills = cluster.procfs(5).read("/proc/dproc/drilldown");
  ASSERT_TRUE(drills.is_ok());
  EXPECT_TRUE(drills.value().starts_with("local\n")) << drills.value();

  engine.run_until(at(25.0));
  EXPECT_NE(cluster.dmon(5)->cluster_summary(), nullptr)
      << "the summary feed reconverges after the restart";
  const RemoteMetric* raw = cluster.dmon(5)->remote_metric(n13, "loadavg");
  if (raw != nullptr) {
    EXPECT_LT(raw->received_at, at(20.0)) << "the forgotten drill still flows";
  }
}

// ---------------------------------------------------------------------------
// Chaos: crash the acting aggregator of a populated zone mid-period.

TEST(HierarchyChaos, AggregatorCrashFailsOverWithoutDoubleCounting) {
  sim::Engine engine;
  ClusterConfig config;
  config.node_count = 64;
  config.hierarchy = hier(8, 8);
  config.hierarchy.subscribers = std::vector<std::size_t>{20};
  config.hierarchy.drill_ttl_periods = 5;
  config.liveness.enabled = true;
  config.liveness.heartbeat_period = seconds(1.0);
  config.liveness.miss_threshold = 3;
  Cluster cluster{engine, config};
  cluster.start_dproc();

  const HierarchyLayout layout = build_hierarchy(64, config.hierarchy);
  const std::uint32_t z1 = layout.leaf_of(9).id;  // nodes 8..15

  engine.run_until(at(5.0));
  ASSERT_EQ(cluster.dmon(9)->zone_acting(z1), 8u);
  // An active drill-down through the zone that is about to lose its
  // aggregator. The request propagates one tier per poll period (each hop
  // drains its channel at its own poll), so give the pipeline a few
  // periods before asserting delivery.
  ASSERT_TRUE(cluster.dmon(20)->drill_down(10, true).is_ok());
  engine.run_until(at(12.0));
  const net::NodeId n10 = cluster.nic(10).node();
  ASSERT_NE(cluster.dmon(20)->remote_metric(n10, "loadavg"), nullptr);

  // Crash node 8 (acting aggregator of t0.z1) mid-period.
  cluster.crash_node(8);
  engine.run_until(at(25.0));

  // Failover converged: the zone's survivors elected the next candidate.
  EXPECT_EQ(cluster.dmon(9)->zone_acting(z1), 9u);
  EXPECT_EQ(cluster.dmon(15)->zone_acting(z1), 9u);

  // The cluster summary stays fresh and duplicate-free: node 8's
  // contribution aged out, every survivor is folded exactly once (the zone
  // id is the overwrite key at the parent, so the re-elected aggregator's
  // frames replace the dead one's rather than adding to them).
  const net::AggregateBatch* summary = cluster.dmon(20)->cluster_summary();
  ASSERT_NE(summary, nullptr);
  EXPECT_GT(cluster.dmon(20)->cluster_summary_at(), at(23.0));
  const net::AggregateBatch::Entry* loadavg = nullptr;
  for (const net::AggregateBatch::Entry& e : summary->entries) {
    if (e.id == 0) loadavg = &e;
  }
  ASSERT_NE(loadavg, nullptr);
  EXPECT_EQ(loadavg->count, 63u)
      << "either the dead node leaked back in or a survivor double-counted";

  // The drill-down survived the handoff: the requester keeps receiving
  // node 10's raw feed through the new aggregator (the per-poll
  // re-announcement re-seeds the routing state at the new acting node).
  const RemoteMetric* raw = cluster.dmon(20)->remote_metric(n10, "loadavg");
  ASSERT_NE(raw, nullptr);
  EXPECT_GT(raw->received_at, at(23.0));
}

TEST(HierarchyOverlay, DisabledConfigKeepsTheFlatStack) {
  // Byte-identity of the flat wire format is pinned by the golden-trace
  // test; here we pin the defaults and the absence of overlay state.
  const HierarchyConfig defaults;
  EXPECT_FALSE(defaults.enabled);

  sim::Engine engine;
  ClusterConfig config;
  config.node_count = 2;
  Cluster cluster{engine, config};
  cluster.start_dproc();
  engine.run_until(at(4.0));
  EXPECT_FALSE(cluster.dmon(0)->hierarchy_active());
  EXPECT_EQ(cluster.dmon(0)->cluster_summary(), nullptr);
  EXPECT_FALSE(cluster.procfs(0).read("/proc/dproc/hierarchy").is_ok());
}

}  // namespace
}  // namespace dproc::core
