// d-mon tests: module registration, metric id conventions, polling,
// remote-store updates, control propagation, and overhead accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "dproc/core/cluster.hpp"
#include "dproc/net/wire.hpp"
#include "dproc/workload/linpack.hpp"

namespace dproc::core {
namespace {

class DmonTest : public ::testing::Test {
 protected:
  DmonTest() {
    ClusterConfig config;
    config.node_count = 3;
    config.node_names = {"alan", "maui", "etna"};
    cluster = std::make_unique<Cluster>(engine, config);
    cluster->start_dproc();
  }

  void settle(double sec) { engine.run_until(engine.now() + seconds(sec)); }

  sim::Engine engine;
  std::unique_ptr<Cluster> cluster;
};

TEST_F(DmonTest, MetricIdsAreClusterConvention) {
  const auto& table0 = cluster->dmon(0)->metric_table();
  const auto& table1 = cluster->dmon(1)->metric_table();
  ASSERT_EQ(table0.size(), table1.size());
  for (std::size_t i = 0; i < table0.size(); ++i) {
    EXPECT_EQ(table0[i].id, i);
    EXPECT_EQ(table0[i].key, table1[i].key);
    EXPECT_EQ(table0[i].id, table1[i].id);
  }
}

TEST_F(DmonTest, StandardModulesProvideExpectedMetrics) {
  DMon& dmon = *cluster->dmon(0);
  for (const char* key : {"loadavg", "cpu_util", "freemem", "disk_reads",
                          "diskusage", "net_in", "net_out", "net_avail",
                          "rtt", "retrans", "udp_lost", "cache_misses"}) {
    EXPECT_TRUE(dmon.metric_id(key).has_value()) << key;
  }
  EXPECT_FALSE(dmon.metric_id("bogus").has_value());
}

TEST_F(DmonTest, LocalProcFilesRenderCollectedValues) {
  settle(3.0);
  auto loadavg = cluster->procfs(0).read("/proc/cpu/loadavg");
  ASSERT_TRUE(loadavg.is_ok());
  EXPECT_NE(loadavg.value(), "no data\n");
  auto freemem = cluster->procfs(0).read("/proc/mem/freemem");
  ASSERT_TRUE(freemem.is_ok());
  EXPECT_GT(std::stod(freemem.value()), 1e8);  // ~512 MB free
}

TEST_F(DmonTest, RemoteValuesArriveWithinOnePeriod) {
  settle(2.5);
  const RemoteMetric* metric = cluster->dmon(0)->remote_metric(1, "freemem");
  ASSERT_NE(metric, nullptr);
  EXPECT_GT(metric->value, 0.0);
  EXPECT_LE((engine.now() - metric->received_at).sec(), 1.1);
}

TEST_F(DmonTest, StatusFileRendersState) {
  settle(2.0);
  auto status = cluster->procfs(0).read("/proc/dproc/status");
  ASSERT_TRUE(status.is_ok());
  EXPECT_NE(status.value().find("modules 5"), std::string::npos);
  EXPECT_NE(status.value().find("poll_period"), std::string::npos);
}

TEST_F(DmonTest, PollReportsSubmitAndReceiveCosts) {
  settle(5.0);
  const PollRecord& record = cluster->dmon(0)->last_poll();
  EXPECT_GT(record.submit_cost, SimDuration::zero());
  EXPECT_GT(record.receive_cost, SimDuration::zero());
  EXPECT_GT(record.events_submitted, 0u);
  EXPECT_GT(record.events_received, 0u);
}

TEST_F(DmonTest, SubmitCostScalesWithPeers) {
  // Larger cluster, same workload: higher submission cost per poll.
  sim::Engine big_engine;
  ClusterConfig config;
  config.node_count = 8;
  Cluster big{big_engine, config};
  big.start_dproc();
  big_engine.run_until(SimTime{} + seconds(5.0));
  settle(5.0);
  EXPECT_GT(big.dmon(0)->last_poll().submit_cost.ns(),
            cluster->dmon(0)->last_poll().submit_cost.ns());
}

TEST_F(DmonTest, ControlFileWritePropagates) {
  settle(2.0);
  ASSERT_TRUE(cluster->procfs(0)
                  .write("/proc/cluster/maui/control", "period 3.0")
                  .is_ok());
  settle(2.0);
  EXPECT_EQ(cluster->dmon(1)->tuning().default_period().sec(), 3.0);
  // Other nodes untouched.
  EXPECT_EQ(cluster->dmon(2)->tuning().default_period().sec(), 1.0);
}

TEST_F(DmonTest, ControlFileRejectsGarbageLocally) {
  settle(2.0);
  const Status status =
      cluster->procfs(0).write("/proc/cluster/maui/control", "gibberish 1");
  EXPECT_FALSE(status.is_ok());
}

TEST_F(DmonTest, SelfTuningAppliesDirectly) {
  TuningConfig config;
  config.differential_pct = 15.0;
  ASSERT_TRUE(cluster->dmon(0)->apply_tuning(config).is_ok());
  EXPECT_EQ(*cluster->dmon(0)->tuning().differential_pct(), 15.0);
}

TEST_F(DmonTest, SendTuningToSelfWorks) {
  TuningConfig config;
  config.default_period = seconds(4.0);
  ASSERT_TRUE(cluster->dmon(0)->send_tuning(0, config).is_ok());
  EXPECT_EQ(cluster->dmon(0)->tuning().default_period().sec(), 4.0);
}

TEST_F(DmonTest, SendTuningBeforeChannelReadyFails) {
  sim::Engine fresh_engine;
  ClusterConfig config;
  config.node_count = 2;
  Cluster fresh{fresh_engine, config};
  fresh.start_dproc();
  // No time for the registry round trip yet.
  TuningConfig tuning;
  tuning.default_period = seconds(2.0);
  EXPECT_EQ(fresh.dmon(0)->send_tuning(1, tuning).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(DmonTest, DifferentialFilterQuenchesSteadyState) {
  settle(3.0);
  TuningConfig config;
  config.differential_pct = 15.0;
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(cluster->dmon(i)->apply_tuning(config).is_ok());
  }
  settle(10.0);  // let the system quiesce under the filter
  StreamingStats events;
  for (int i = 0; i < 10; ++i) {
    settle(1.0);
    events.add(static_cast<double>(cluster->dmon(0)->last_poll().events_submitted));
  }
  // Nearly everything suppressed on an idle cluster.
  EXPECT_LT(events.mean(), 2.0);
}

TEST_F(DmonTest, LoadavgReflectsRemoteLoadWithModuleWindow) {
  settle(2.0);
  workload::LinpackTask t1{cluster->host(2)}, t2{cluster->host(2)};
  settle(10.0);
  const RemoteMetric* loadavg = cluster->dmon(0)->remote_metric(2, "loadavg");
  ASSERT_NE(loadavg, nullptr);
  EXPECT_NEAR(loadavg->value, 2.0, 0.5);
}

TEST_F(DmonTest, PmcMetricTracksCacheMisses) {
  settle(2.0);
  workload::LinpackTask linpack{cluster->host(1)};
  settle(10.0);
  const RemoteMetric* misses = cluster->dmon(0)->remote_metric(1, "cache_misses");
  ASSERT_NE(misses, nullptr);
  EXPECT_GT(misses->value, 0.0);
}

TEST_F(DmonTest, NetMetricsSeeMonitoringTraffic) {
  settle(5.0);
  const RemoteMetric* in_bps = cluster->dmon(0)->remote_metric(1, "net_in");
  ASSERT_NE(in_bps, nullptr);
  EXPECT_GT(in_bps->value, 0.0);
  const RemoteMetric* avail = cluster->dmon(0)->remote_metric(1, "net_avail");
  ASSERT_NE(avail, nullptr);
  EXPECT_LT(avail->value, 100e6);
  EXPECT_GT(avail->value, 90e6);
}

TEST_F(DmonTest, SyntheticModuleExtendsAtRuntime) {
  // The paper's extension story: new modules can be added dynamically.
  DMon& dmon = *cluster->dmon(0);
  const std::size_t before = dmon.metric_table().size();
  dmon.register_module(std::make_unique<SyntheticMonitor>(
      "battery", 1, [](std::size_t, SimTime) { return 87.0; }));
  EXPECT_EQ(dmon.metric_table().size(), before + 1);
  settle(2.0);
  auto reading = cluster->procfs(0).read("/proc/battery/battery0");
  ASSERT_TRUE(reading.is_ok());
  EXPECT_NEAR(std::stod(reading.value()), 87.0, 1e-9);
}

TEST_F(DmonTest, WindowCommandRetunesModule) {
  settle(2.0);
  // Shrink maui's CPU_MON averaging window remotely, then verify its
  // loadavg responds faster than the 5 s default would allow.
  ASSERT_TRUE(cluster->procfs(0)
                  .write("/proc/cluster/maui/control", "window cpu 1")
                  .is_ok());
  settle(2.0);
  workload::LinpackTask a{cluster->host(1)}, b{cluster->host(1)},
      c{cluster->host(1)};
  settle(3.5);
  const RemoteMetric* loadavg = cluster->dmon(0)->remote_metric(1, "loadavg");
  ASSERT_NE(loadavg, nullptr);
  EXPECT_GT(loadavg->value, 2.4) << "1 s window should converge within ~3 s";
}

TEST_F(DmonTest, WindowCommandUnknownModuleRejected) {
  settle(2.0);
  TuningConfig config;
  config.module_periods.emplace_back("warp_drive", seconds(1.0));
  EXPECT_EQ(cluster->dmon(0)->apply_tuning(config).code(),
            StatusCode::kNotFound);
}

TEST_F(DmonTest, FilterDeployChargesCompileCost) {
  settle(2.0);
  const SimDuration before = cluster->host(1).cpu().kernel_cpu_time();
  ASSERT_TRUE(cluster->procfs(0)
                  .write("/proc/cluster/maui/control",
                         "filter { output[0] = input[LOADAVG]; }")
                  .is_ok());
  settle(2.0);
  ASSERT_TRUE(cluster->dmon(1)->tuning().has_filter());
  EXPECT_GT((cluster->host(1).cpu().kernel_cpu_time() - before).ns(), 0);
}

TEST_F(DmonTest, OverflowingFilterArithmeticKeepsClusterRunning) {
  // INT64_MIN / -1 traps in hardware division. The first filter reaches it
  // at run time on maui's next poll; the literal form reaches it in the
  // constant folder while the write itself is validated. E-code wraps
  // both, so maui keeps publishing through the filter.
  settle(2.0);
  const std::string& key = cluster->dmon(1)->metric_table()[0].key;
  for (const char* filter :
       {"filter { int a = 1; a = a << 63; int b = 0; b = b - 1; "
        "output[0] = input[0]; return a / b; }",
        "filter { output[0] = input[0]; return (1 << 63) / -1; }",
        "filter { int a = 1; a = a << 63; int b = 0; b = b - 1; "
        "output[0] = input[0]; return a % b; }",
        "filter { output[0] = input[0]; return (1 << 63) % -1; }"}) {
    ASSERT_TRUE(
        cluster->procfs(0).write("/proc/cluster/maui/control", filter).is_ok())
        << filter;
    settle(2.0);
    ASSERT_TRUE(cluster->dmon(1)->tuning().has_filter()) << filter;
    // Instructions are only counted for a run that completed without error.
    EXPECT_GT(cluster->dmon(1)->last_poll().filter_instructions, 0u) << filter;
    const RemoteMetric* metric = cluster->dmon(0)->remote_metric(1, key);
    ASSERT_NE(metric, nullptr) << filter;
    EXPECT_LE((engine.now() - metric->received_at).sec(), 1.1) << filter;
  }
}

TEST_F(DmonTest, TruncatedPerModuleFrameLeavesStoredValueIntact) {
  // A legacy per-module frame cut inside its only entry: the id arrives,
  // half of the value does not. No partial entry may be stored.
  settle(2.5);
  const MetricId freemem = *cluster->dmon(1)->metric_id("freemem");
  net::ByteWriter w;
  w.u8(1);  // per-module monitoring event
  w.u32(1);
  w.u32(freemem);
  w.u32(0);  // 4 of the value's 8 bytes
  cluster->node(1)
      .kecho->join(cluster->config().dmon.monitor_channel)
      .submit(net::make_message(w.take()));
  settle(0.5);
  const RemoteMetric* metric = cluster->dmon(0)->remote_metric(1, freemem);
  ASSERT_NE(metric, nullptr);
  EXPECT_GT(metric->value, 1e8);  // ~512 MB free, not a torn zero
  EXPECT_GT(metric->sampled_at.ns(), 0);
}

TEST_F(DmonTest, ModuleRegisteredAfterPeersAppearsUnderEveryPeer) {
  // The peers were declared when the cluster was built. The module joins
  // every node, so its metric id is the same cluster-wide.
  for (std::size_t i = 0; i < 3; ++i) {
    cluster->dmon(i)->register_module(std::make_unique<SyntheticMonitor>(
        "battery", 1,
        [i](std::size_t, SimTime) { return 80.0 + static_cast<double>(i); }));
  }
  settle(3.0);
  const std::vector<std::string> names = {"alan", "maui", "etna"};
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      if (i == j) continue;
      const std::string dir = "/proc/cluster/" + names[j];
      auto entries = cluster->procfs(i).list(dir);
      ASSERT_TRUE(entries.is_ok()) << dir;
      EXPECT_NE(std::find(entries.value().begin(), entries.value().end(),
                          "battery/"),
                entries.value().end())
          << "node " << i << " " << dir;
      auto reading = cluster->procfs(i).read(dir + "/battery/battery0");
      ASSERT_TRUE(reading.is_ok()) << "node " << i << " " << dir;
      EXPECT_NEAR(std::stod(reading.value()), 80.0 + static_cast<double>(j),
                  1e-9)
          << "node " << i << " " << dir;
    }
  }
}

TEST_F(DmonTest, LeavingPeerLosesItsDirectoryWhileOthersStillRead) {
  settle(2.5);
  ASSERT_TRUE(cluster->procfs(0).is_directory("/proc/cluster/etna"));
  // The registry confirms the leave within a few milliseconds; look before
  // the next poll drains etna's last queued frames.
  cluster->leave_node(2);
  settle(0.2);
  EXPECT_EQ(cluster->procfs(0).list("/proc/cluster").value(),
            (std::vector<std::string>{"maui/"}));
  EXPECT_EQ(cluster->procfs(1).list("/proc/cluster").value(),
            (std::vector<std::string>{"alan/"}));
  for (std::size_t i : {0, 1}) {
    EXPECT_FALSE(cluster->procfs(i).exists("/proc/cluster/etna/mem/freemem"));
    const std::string other = i == 0 ? "maui" : "alan";
    auto freemem =
        cluster->procfs(i).read("/proc/cluster/" + other + "/mem/freemem");
    ASSERT_TRUE(freemem.is_ok());
    EXPECT_GT(std::stod(freemem.value()), 1e8);  // ~512 MB free
    EXPECT_TRUE(cluster->procfs(i)
                    .write("/proc/cluster/" + other + "/control", "period 1")
                    .is_ok());
  }
}

}  // namespace
}  // namespace dproc::core
