// Allocation and re-entrancy guarantees for the hot paths.
//
// These pin the properties the perf overhaul is built on: a warm Vm::run
// allocates nothing, a Vm is re-entrant (same program, same input, same
// result on every call), and once the engine's slab and the fabric's
// in-flight pool have grown, scheduling, cancelling and forwarding packets
// (routed or loopback) allocate nothing, and neither does a warm TCP
// stream, segment or ACK. The alloc counter comes from bench/alloc_counter.cpp,
// whose global operator new/delete override counts every heap allocation
// in the test binary.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "../bench/alloc_counter.hpp"
#include "dproc/core/cluster.hpp"
#include "dproc/ecode/ecode.hpp"
#include "dproc/net/fabric.hpp"
#include "dproc/net/nic.hpp"
#include "dproc/net/tcp.hpp"
#include "dproc/sim/engine.hpp"
#include "dproc/util/slab.hpp"

namespace {

using dproc::ecode::CompileEnv;
using dproc::ecode::Filter;
using dproc::ecode::FilterResult;
using dproc::ecode::Sample;
using dproc::ecode::Vm;

const char* kFigure3Filter = R"({
  int i = 0;
  if (input[LOADAVG].value > 2) {
    output[i] = input[LOADAVG];
    i = i + 1;
  }
  if (input[DISKUSAGE].value > 10000 && input[FREEMEM].value < 50e6) {
    output[i] = input[DISKUSAGE];
    i = i + 1;
    output[i] = input[FREEMEM];
    i = i + 1;
  }
  if (input[CACHE_MISS].value > input[CACHE_MISS].last_value_sent) {
    output[i] = input[CACHE_MISS];
    i = i + 1;
  }
})";

Filter compile_figure3() {
  CompileEnv env;
  env.constants = {{"LOADAVG", 0}, {"DISKUSAGE", 1}, {"FREEMEM", 2},
                   {"CACHE_MISS", 3}};
  auto filter = Filter::compile(kFigure3Filter, env);
  EXPECT_TRUE(filter.is_ok()) << filter.status().to_string();
  return std::move(filter).value();
}

std::vector<Sample> figure3_input() {
  return {{0, 2.5, 0.4, 0}, {1, 20'000, 220, 0}, {2, 41e6, 310e6, 0},
          {3, 8'812'004, 8'611'220, 0}};
}

TEST(PerfRegressionTest, WarmVmRunAllocatesNothing) {
  const Filter filter = compile_figure3();
  const std::vector<Sample> input = figure3_input();

  Vm vm;
  FilterResult result;
  // Warm-up: first runs size the scratch arenas and the result vectors.
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(vm.run(filter.bytecode(), input, result).is_ok());
  }

  const std::uint64_t before = dproc::bench::alloc_count();
  for (int i = 0; i < 10'000; ++i) {
    ASSERT_TRUE(vm.run(filter.bytecode(), input, result).is_ok());
  }
  EXPECT_EQ(dproc::bench::alloc_count() - before, 0u)
      << "steady-state Vm::run must not touch the heap";
  EXPECT_EQ(result.outputs.size(), 4u);
}

TEST(PerfRegressionTest, TouchedListGrowsWithOutputArenaNotMidRun) {
  // ensure_output_slot() grows every output arena together: out_samples_,
  // out_written_ AND the touched-list (the historical gap — out_touched_
  // was left to grow push_back by push_back on the next many-slot run).
  // After one run that touched only the highest slot, a run that touches
  // every slot below it must not allocate.
  CompileEnv env;
  auto high = Filter::compile(
      "int a = 0; a = a + 1; a = a * 2; a = a - 1; a = a ^ 3;"
      "for (int i = 0; i < 80; ++i) a = a + i;"
      "output[63].value = 1.0;",
      env);
  auto many = Filter::compile(
      "for (int i = 0; i < 64; ++i) output[i].value = 1.0;", env);
  ASSERT_TRUE(high.is_ok());
  ASSERT_TRUE(many.is_ok());
  // The pin only holds if `high` dominates the per-program arenas too.
  ASSERT_GE(high.value().bytecode().insns.size(),
            many.value().bytecode().insns.size());

  FilterResult result;
  {
    Vm warm;  // sizes result.outputs' capacity for 64 entries
    ASSERT_TRUE(warm.run(many.value().bytecode(), {}, result).is_ok());
  }
  Vm vm;
  ASSERT_TRUE(vm.run(high.value().bytecode(), {}, result).is_ok());

  const std::uint64_t before = dproc::bench::alloc_count();
  ASSERT_TRUE(vm.run(many.value().bytecode(), {}, result).is_ok());
  EXPECT_EQ(dproc::bench::alloc_count() - before, 0u)
      << "touching 64 pre-grown slots must not reallocate the touched list";
  EXPECT_EQ(result.outputs.size(), 64u);
}

TEST(PerfRegressionTest, VmIsReentrant) {
  const Filter filter = compile_figure3();
  const std::vector<Sample> input = figure3_input();

  Vm vm;
  auto first = vm.run(filter.bytecode(), input);
  ASSERT_TRUE(first.is_ok()) << first.status().to_string();
  auto second = vm.run(filter.bytecode(), input);
  ASSERT_TRUE(second.is_ok()) << second.status().to_string();

  EXPECT_EQ(first.value().outputs, second.value().outputs);
  EXPECT_EQ(first.value().return_value, second.value().return_value);
  EXPECT_EQ(first.value().instructions_executed,
            second.value().instructions_executed);

  // The reuse entry point must agree with the fresh-result entry point.
  FilterResult reused;
  ASSERT_TRUE(vm.run(filter.bytecode(), input, reused).is_ok());
  EXPECT_EQ(reused.outputs, first.value().outputs);
  EXPECT_EQ(reused.instructions_executed, first.value().instructions_executed);
}

// Steady-state heap traffic of one publishing flavour: allocations across
// the whole cluster while the simulation advances a fixed window, after the
// channels and caches have warmed up.
std::uint64_t steady_state_allocs(const dproc::core::BatchConfig& batch,
                                  const std::vector<std::string>& interest) {
  dproc::sim::Engine engine;
  dproc::core::ClusterConfig config;
  config.node_count = 3;
  config.batch = batch;
  dproc::core::Cluster cluster{engine, config};
  cluster.start_dproc();
  engine.run_until(dproc::SimTime::zero() + dproc::seconds(2.0));
  if (!interest.empty()) {
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      (void)cluster.dmon(i)->declare_interest(interest);
    }
  }
  // Warm-up: scratch buffers, frame caches and procfs strings size
  // themselves in the first periods.
  engine.run_until(dproc::SimTime::zero() + dproc::seconds(10.0));
  const std::uint64_t before = dproc::bench::alloc_count();
  engine.run_until(dproc::SimTime::zero() + dproc::seconds(40.0));
  return dproc::bench::alloc_count() - before;
}

TEST(PerfRegressionTest, BatchedPublishingAllocatesNoMoreThanPerModule) {
  // The batched path coalesces 5 per-module frames into one — it must not
  // give the saving back in heap churn. Encode buffers, the decode scratch
  // and the per-distinct-interest frame cache are persistent, so a batched
  // period allocates strictly less than five separate submissions.
  const std::uint64_t per_module = steady_state_allocs({}, {});

  dproc::core::BatchConfig batch;
  batch.enabled = true;
  batch.interest = true;
  const std::uint64_t batched = steady_state_allocs(batch, {"cpu", "mem"});

  ASSERT_GT(per_module, 0u);
  EXPECT_LE(batched, per_module)
      << "batched " << batched << " allocs vs per-module " << per_module
      << " over the same simulated window";
}

TEST(PerfRegressionTest, WarmFireAndForgetScheduleAllocatesNothing) {
  dproc::sim::Engine engine;
  int fired = 0;
  auto schedule_100 = [&] {
    for (int i = 0; i < 100; ++i) {
      engine.schedule_after(dproc::milliseconds(1.0 + i), [&] { ++fired; });
    }
  };
  schedule_100();  // warm-up: grows the slab and the key heap
  engine.run();

  const std::uint64_t before = dproc::bench::alloc_count();
  schedule_100();
  engine.run();
  EXPECT_EQ(dproc::bench::alloc_count() - before, 0u)
      << "warm fire-and-forget scheduling must not touch the heap";
  EXPECT_EQ(fired, 200);
}

TEST(PerfRegressionTest, RetainedHandleAndCancelAllocateNothing) {
  dproc::sim::Engine engine;
  int fired = 0;
  engine.schedule_after(dproc::milliseconds(1.0), [&] { ++fired; });
  engine.schedule_after(dproc::milliseconds(2.0), [&] { ++fired; });
  engine.run();  // warm-up
  fired = 0;

  const std::uint64_t before = dproc::bench::alloc_count();
  engine.schedule_after(dproc::milliseconds(1.0), [&] { ++fired; });
  dproc::sim::EventHandle handle =
      engine.schedule_after(dproc::milliseconds(2.0), [&] { ++fired; });
  handle.cancel();
  engine.run();
  EXPECT_EQ(dproc::bench::alloc_count() - before, 0u)
      << "a retained handle and its cancel() must not touch the heap";
  EXPECT_EQ(fired, 1) << "the cancelled event must not fire";
  EXPECT_EQ(engine.cancel_flags_allocated(), 0u);
}

TEST(Slab, ReleaseAllocatesNothingOnceGrown) {
  dproc::Slab<int> slab;
  std::vector<std::uint32_t> live;
  for (int i = 0; i < 256; ++i) live.push_back(slab.acquire());

  std::uint64_t before = dproc::bench::alloc_count();
  for (const std::uint32_t i : live) slab.release(i);
  EXPECT_EQ(dproc::bench::alloc_count() - before, 0u)
      << "releasing elements the slab already holds must not allocate";

  before = dproc::bench::alloc_count();
  for (std::uint32_t& i : live) i = slab.acquire();
  for (const std::uint32_t i : live) slab.release(i);
  EXPECT_EQ(dproc::bench::alloc_count() - before, 0u);
  EXPECT_EQ(slab.size(), 256u);
}

TEST(PerfRegressionTest, WarmPacketBurstThroughStarAllocatesNothing) {
  dproc::sim::Engine engine;
  dproc::net::Fabric fabric{engine};
  std::vector<dproc::net::NodeId> nodes;
  for (int i = 0; i < 4; ++i) {
    nodes.push_back(fabric.add_node("n" + std::to_string(i)));
  }
  fabric.build_star(nodes, dproc::net::LinkConfig{});
  // Node 0 reaches node 2 over an explicit three-hop route instead.
  std::vector<dproc::net::LinkId> route;
  for (int i = 0; i < 3; ++i) {
    route.push_back(fabric.add_link(dproc::net::LinkConfig{}));
  }
  fabric.set_route(nodes[0], nodes[2], route);
  std::uint64_t delivered = 0;
  for (dproc::net::NodeId node : nodes) {
    fabric.set_delivery_handler(
        node, [&](const dproc::net::Packet&) { ++delivered; });
  }
  // 1000 packets, each over two hops (sender uplink, receiver downlink),
  // from every node to every other node in turn, then 300 over the
  // explicit route.
  auto burst = [&] {
    for (int i = 0; i < 1000; ++i) {
      dproc::net::Packet p;
      p.src = nodes[i % 4];
      p.dst = nodes[(i + 1 + i / 4 % 3) % 4];
      if (p.src == nodes[0] && p.dst == nodes[2]) p.dst = nodes[1];
      p.payload_bytes = 200;
      fabric.send(p);
    }
    for (int i = 0; i < 300; ++i) {
      dproc::net::Packet p;
      p.src = nodes[0];
      p.dst = nodes[2];
      p.payload_bytes = 200;
      fabric.send(p);
    }
    engine.run();
  };
  burst();  // warm-up: grows the in-flight pool, the slab and the key heap
  const std::uint64_t first = delivered;

  const std::uint64_t before = dproc::bench::alloc_count();
  burst();
  EXPECT_EQ(dproc::bench::alloc_count() - before, 0u)
      << "a warm burst must not touch the heap in Fabric::send or Engine::run";
  EXPECT_EQ(first, 1300u);
  EXPECT_EQ(delivered, 2600u);
  EXPECT_EQ(fabric.link(route[2]).stats().packets_sent, 600u);
}

TEST(PerfRegressionTest, WarmLoopbackBurstAllocatesNothing) {
  dproc::sim::Engine engine;
  dproc::net::Fabric fabric{engine};
  const dproc::net::NodeId a = fabric.add_node("a");
  std::uint64_t delivered = 0;
  fabric.set_delivery_handler(a,
                              [&](const dproc::net::Packet&) { ++delivered; });
  auto burst = [&] {
    for (int i = 0; i < 500; ++i) {
      dproc::net::Packet p;
      p.src = a;
      p.dst = a;
      p.payload_bytes = 200;
      fabric.send(p);
    }
    engine.run();
  };
  burst();  // warm-up: grows the in-flight pool and the key heap

  const std::uint64_t before = dproc::bench::alloc_count();
  burst();
  EXPECT_EQ(dproc::bench::alloc_count() - before, 0u)
      << "a warm loopback burst must not touch the heap";
  EXPECT_EQ(delivered, 1000u);
}

TEST(PerfRegressionTest, WarmTcpStreamAllocatesNothingPerSegment) {
  dproc::sim::Engine engine;
  dproc::net::Fabric fabric{engine};
  const dproc::net::NodeId a = fabric.add_node("a");
  const dproc::net::NodeId b = fabric.add_node("b");
  fabric.build_star({a, b}, dproc::net::LinkConfig{});
  dproc::net::Nic nic_a{fabric, a};
  dproc::net::Nic nic_b{fabric, b};
  std::uint64_t delivered = 0;
  dproc::net::TcpListener listener{
      nic_b, 80, dproc::net::TcpConfig{},
      [&](dproc::net::TcpConnection::Ptr conn) {
        conn->set_message_handler(
            [&](const dproc::net::MessagePtr& m) { delivered += m->size(); });
      }};
  auto client = dproc::net::TcpConnection::connect(nic_a, b, 80);
  engine.run();

  // 8 messages of 64 KB: 46 segments each, every one ACKed.
  constexpr int kMessages = 8;
  constexpr std::uint64_t kBytes = 64 * 1024;
  auto make_batch = [] {
    std::vector<dproc::net::MessagePtr> batch;
    for (int i = 0; i < kMessages; ++i) {
      batch.push_back(dproc::net::make_message({}, kBytes));
    }
    return batch;
  };
  // Warm-up, twice as long: opens the window past what the measured
  // transfer reaches and grows the segment and message queues, the
  // in-flight pool, the slab and the key heap.
  for (int round = 0; round < 2; ++round) {
    for (auto& message : make_batch()) client->send(std::move(message));
    engine.run();
  }
  std::vector<dproc::net::MessagePtr> batch = make_batch();

  const std::uint64_t before = dproc::bench::alloc_count();
  for (auto& message : batch) client->send(std::move(message));
  engine.run();
  EXPECT_EQ(dproc::bench::alloc_count() - before, 0u)
      << "a warm TCP transfer must not touch the heap per segment or ACK";
  EXPECT_EQ(delivered, 3 * kMessages * kBytes);
  EXPECT_EQ(client->stats().retransmissions, 0u);
}

// Allocations of one add_peer on node 0 of a 2-node flat cluster, after
// `extra_metrics` synthetic metrics joined the standard modules.
std::uint64_t declare_peer_allocs(std::size_t extra_metrics) {
  dproc::sim::Engine engine;
  dproc::core::ClusterConfig config;
  config.node_count = 2;
  dproc::core::Cluster cluster{engine, config};
  dproc::core::DMon& dmon = *cluster.dmon(0);
  if (extra_metrics > 0) {
    dmon.register_module(std::make_unique<dproc::core::SyntheticMonitor>(
        "synthetic", extra_metrics));
  }
  const std::uint64_t before = dproc::bench::alloc_count();
  dmon.add_peer(42, "node42");
  return dproc::bench::alloc_count() - before;
}

TEST(PerfRegressionTest, DeclaringAPeerCostsTheSameForAnyMetricCount) {
  // /proc/cluster/<peer>/ is one binding to the d-mon's shared shape, so a
  // peer's procfs cost does not grow with the metrics it publishes.
  const std::uint64_t standard = declare_peer_allocs(0);
  EXPECT_EQ(declare_peer_allocs(20), standard);
  EXPECT_GT(standard, 0u);
}

// Allocations in `ticks` heartbeat periods of an idle kecho-only cluster of
// `nodes` nodes sharing one channel, with liveness on: each period, every
// node's liveness tick heartbeats its nodes - 1 peers.
std::uint64_t heartbeat_allocs(std::size_t nodes, int ticks) {
  dproc::sim::Engine engine;
  dproc::core::ClusterConfig config;
  config.node_count = nodes;
  config.dproc_nodes.emplace();  // no d-mons: nothing but heartbeats runs
  config.liveness.enabled = true;
  dproc::core::Cluster cluster{engine, config};
  for (std::size_t i = 0; i < nodes; ++i) {
    (void)cluster.node(i).kecho->join("heartbeat");
  }
  // Warm-up: joins, transports, TCP windows and the engine and fabric pools.
  const dproc::SimTime warm = dproc::SimTime::zero() + dproc::seconds(5.0);
  engine.run_until(warm);
  const std::uint64_t before = dproc::bench::alloc_count();
  engine.run_until(warm + config.liveness.heartbeat_period * ticks);
  return dproc::bench::alloc_count() - before;
}

TEST(PerfRegressionTest, HeartbeatTickAllocationsDoNotGrowWithPeers) {
  // One frame per tick, shared by every peer that is due: a node's tick
  // allocates as often with 8 peers as with 2.
  constexpr int kTicks = 10;
  const std::uint64_t small = heartbeat_allocs(3, kTicks);
  const std::uint64_t large = heartbeat_allocs(9, kTicks);
  EXPECT_GT(small, 0u);
  EXPECT_EQ(small * 9, large * 3)
      << "allocations per node per tick: " << small / (3.0 * kTicks)
      << " with 2 peers, " << large / (9.0 * kTicks) << " with 8 peers";
}

}  // namespace
