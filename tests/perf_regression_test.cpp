// Allocation and re-entrancy guarantees for the hot paths.
//
// These pin the properties the perf overhaul is built on: a warm Vm::run
// allocates nothing, a Vm is re-entrant (same program, same input, same
// result on every call), and once the engine's slab and the fabric's
// in-flight pool have grown, scheduling, cancelling and forwarding packets
// allocate nothing. The alloc counter comes from bench/alloc_counter.cpp,
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
#include "dproc/sim/engine.hpp"

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

TEST(PerfRegressionTest, WarmPacketBurstThroughStarAllocatesNothing) {
  dproc::sim::Engine engine;
  dproc::net::Fabric fabric{engine};
  std::vector<dproc::net::NodeId> nodes;
  for (int i = 0; i < 4; ++i) {
    nodes.push_back(fabric.add_node("n" + std::to_string(i)));
  }
  fabric.build_star(nodes, dproc::net::LinkConfig{});
  std::uint64_t delivered = 0;
  for (dproc::net::NodeId node : nodes) {
    fabric.set_delivery_handler(
        node, [&](const dproc::net::Packet&) { ++delivered; });
  }
  // 1000 packets, each over two hops (sender uplink, receiver downlink),
  // from every node to every other node in turn.
  auto burst = [&] {
    for (int i = 0; i < 1000; ++i) {
      dproc::net::Packet p;
      p.src = nodes[i % 4];
      p.dst = nodes[(i + 1 + i / 4 % 3) % 4];
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
  EXPECT_EQ(first, 1000u);
  EXPECT_EQ(delivered, 2000u);
}

}  // namespace
