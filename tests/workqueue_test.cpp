// Master/worker load-balancing application tests.
#include <gtest/gtest.h>

#include "dproc/apps/workqueue.hpp"
#include "dproc/core/cluster.hpp"
#include "dproc/workload/linpack.hpp"

namespace dproc::apps {
namespace {

class WorkQueueTest : public ::testing::Test {
 protected:
  WorkQueueTest() {
    core::ClusterConfig config;
    config.node_count = 4;  // master + 3 workers
    cluster = std::make_unique<core::Cluster>(engine, config);
    cluster->start_dproc();
    engine.run_until(SimTime{} + seconds(2.0));
    for (std::size_t i = 1; i < 4; ++i) {
      workers.push_back(std::make_unique<Worker>(cluster->host(i),
                                                 cluster->nic(i), config_));
    }
  }

  std::unique_ptr<Master> make_master(SchedulePolicy policy) {
    WorkQueueConfig master_config = config_;
    master_config.policy = policy;
    auto master = std::make_unique<Master>(cluster->host(0), cluster->nic(0),
                                           cluster->dmon(0),
                                           std::vector<net::NodeId>{1, 2, 3},
                                           master_config);
    run_for(0.5);  // let every worker connection establish
    return master;
  }

  void run_for(double sec) { engine.run_until(engine.now() + seconds(sec)); }

  sim::Engine engine;
  WorkQueueConfig config_;
  std::unique_ptr<core::Cluster> cluster;
  std::vector<std::unique_ptr<Worker>> workers;
};

TEST_F(WorkQueueTest, AllUnitsCompleteExactlyOnce) {
  auto master = make_master(SchedulePolicy::kRoundRobin);
  master->submit(30);
  run_for(40.0);
  EXPECT_EQ(master->completed(), 30u);
  EXPECT_EQ(master->pending(), 0u);
  std::uint64_t worker_total = 0;
  for (const auto& worker : workers) worker_total += worker->units_completed();
  EXPECT_EQ(worker_total, 30u);
}

TEST_F(WorkQueueTest, AllUnitsCompleteAfterAWorkerOutageLongerThanR2) {
  // The master cannot replace a worker connection, so its connections never
  // give up: units sent into a 150 s outage of worker 1 (longer than TCP's
  // R2) are retransmitted until the worker heals, and then complete.
  auto master = make_master(SchedulePolicy::kRoundRobin);
  const net::NodeId down = cluster->nic(1).node();
  cluster->fabric().set_node_down(down, true);
  master->submit(30);
  run_for(150.0);
  EXPECT_LT(master->completed(), 30u);
  cluster->fabric().set_node_down(down, false);
  run_for(60.0);
  EXPECT_EQ(master->completed(), 30u);
  EXPECT_EQ(master->pending(), 0u);
}

TEST_F(WorkQueueTest, RoundRobinBalancesOnIdleCluster) {
  auto master = make_master(SchedulePolicy::kRoundRobin);
  master->submit(30);
  run_for(40.0);
  for (const auto& [node, count] : master->per_worker_completed()) {
    EXPECT_EQ(count, 10u) << "node " << node;
  }
}

TEST_F(WorkQueueTest, TurnaroundMatchesServiceTimeWhenIdle) {
  auto master = make_master(SchedulePolicy::kDprocLoad);
  master->submit(3);  // one per worker, no queueing
  run_for(10.0);
  ASSERT_EQ(master->completed(), 3u);
  // 0.5 s of CPU plus transfer of 64 KB + 16 KB at 100 Mbps (~7 ms).
  EXPECT_NEAR(master->mean_turnaround_sec(), 0.51, 0.05);
}

TEST_F(WorkQueueTest, DprocPolicySteersAwayFromLoadedWorker) {
  // Worker 1 is crushed by background load; the dproc policy should give
  // it almost nothing once its loadavg propagates.
  workload::LinpackTask hog1{cluster->host(1)}, hog2{cluster->host(1)},
      hog3{cluster->host(1)};
  run_for(8.0);  // let the monitoring observe it

  auto master = make_master(SchedulePolicy::kDprocLoad);
  master->submit(40);
  run_for(60.0);
  EXPECT_EQ(master->completed(), 40u);
  const auto per_worker = master->per_worker_completed();
  EXPECT_LT(per_worker.at(1), per_worker.at(2) / 2) << "loaded worker should "
                                                       "receive far less";
  EXPECT_LT(per_worker.at(1), per_worker.at(3) / 2);
}

TEST_F(WorkQueueTest, DprocPolicyBeatsRoundRobinUnderSkewedLoad) {
  // The win shows in the batch makespan: round-robin keeps feeding the
  // crushed worker its fair share of units, and the batch waits for them.
  // A small outstanding cap would act as implicit backpressure (a
  // rudimentary balancer of its own), so both policies run with a cap
  // large enough that only the placement decision differs.
  config_.max_outstanding_per_worker = 100;
  workload::LinpackTask hog1{cluster->host(1)}, hog2{cluster->host(1)},
      hog3{cluster->host(1)};
  run_for(8.0);

  auto blind = make_master(SchedulePolicy::kRoundRobin);
  const SimTime blind_start = engine.now();
  blind->submit(40);
  run_for(80.0);
  ASSERT_EQ(blind->completed(), 40u);
  const double blind_makespan = (blind->last_completion_at() - blind_start).sec();

  auto informed = make_master(SchedulePolicy::kDprocLoad);
  const SimTime informed_start = engine.now();
  informed->submit(40);
  run_for(80.0);
  ASSERT_EQ(informed->completed(), 40u);
  const double informed_makespan =
      (informed->last_completion_at() - informed_start).sec();

  EXPECT_LT(informed_makespan, blind_makespan * 0.7)
      << "dproc-driven placement should finish the batch substantially "
         "sooner (blind=" << blind_makespan << "s)";
}

TEST_F(WorkQueueTest, OutstandingCapRespected) {
  auto master = make_master(SchedulePolicy::kDprocLoad);
  master->submit(100);
  run_for(0.5);  // nothing completed yet (units cost 0.5 s)
  // At most 3 workers x 4 outstanding are dispatched; the rest queue.
  EXPECT_GE(master->pending(), 100u - 12u);
}

}  // namespace
}  // namespace dproc::apps
