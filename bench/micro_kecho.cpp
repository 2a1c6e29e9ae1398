// KECho microbenchmarks: channel latency and the kernel-level vs user-level
// RTT-variance claim.
//
// The paper motivates kernel-kernel messaging with [11]: user-level
// communication shows much larger round-trip variation because endpoint
// processing waits on the CPU scheduler behind application load. Here both
// variants run over identical links; the user-level variant's receive
// processing waits out a scheduler dispatch delay (a uniformly distributed
// remainder of the running task's timeslice, Linux 2.4's ~50 ms default
// scaled per competitor) and then competes for CPU with linpack threads,
// while the kernel-level variant's processing runs at interrupt priority —
// reproducing the variance gap from first principles.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "alloc_counter.hpp"
#include "bench_common.hpp"
#include "bench_json.hpp"
#include "dproc/kecho/registry.hpp"
#include "dproc/net/wire.hpp"
#include "dproc/workload/linpack.hpp"

namespace dproc::bench {
namespace {

struct LatencyStats {
  double mean_us;
  double stddev_us;
  double max_us;
};

/// Round-trips `count` messages node0 -> node1 -> node0. `user_level`
/// selects whether endpoint processing contends with user load.
LatencyStats measure(bool user_level, int count) {
  sim::Engine engine;
  core::ClusterConfig config;
  config.node_count = 2;
  config.dproc_nodes.emplace();  // bare hosts; we drive the channels manually
  core::Cluster cluster{engine, config};

  // Background load on both endpoints.
  workload::LinpackTask load0{cluster.host(0)}, load1{cluster.host(1)};

  const double endpoint_cpu_sec = 50e-6;  // per-message endpoint processing
  const SimDuration timeslice = milliseconds(50.0);  // Linux 2.4 default-ish
  host::TaskId task0 = 0, task1 = 0;
  if (user_level) {
    task0 = cluster.host(0).cpu().add_server_task("user-endpoint");
    task1 = cluster.host(1).cpu().add_server_task("user-endpoint");
  }

  // A woken user process waits for the current task's quantum remainder
  // before it is dispatched; kernel handlers do not.
  auto dispatch = [&](host::Host& host, std::function<void()> fn) {
    const double competitors =
        static_cast<double>(host.cpu().run_queue_length());
    const SimDuration delay =
        timeslice * host.rng().uniform() * std::max(competitors, 1.0);
    host.engine().schedule_after(delay, std::move(fn));
  };

  StreamingStats stats;
  net::Nic& nic0 = cluster.nic(0);
  net::Nic& nic1 = cluster.nic(1);
  SimTime sent_at;

  // Node 1: echo every datagram after its endpoint processing.
  nic1.bind_datagram(40, [&](net::NodeId, net::Port, const net::MessagePtr& m) {
    auto reply = [&nic1, m] { nic1.send_datagram(0, 41, m, 40); };
    if (user_level) {
      dispatch(cluster.host(1), [&, reply] {
        cluster.host(1).cpu().submit_work(task1, endpoint_cpu_sec, reply);
      });
    } else {
      cluster.host(1).cpu().consume_kernel(seconds(endpoint_cpu_sec));
      reply();
    }
  });

  int remaining = count;
  std::function<void()> send_next;
  auto complete = [&] {
    stats.add((engine.now() - sent_at).us());
    if (--remaining > 0) {
      engine.schedule_after(milliseconds(7.0), send_next);
    }
  };
  // Node 0: account the receive processing, then record the RTT.
  nic0.bind_datagram(41, [&](net::NodeId, net::Port, const net::MessagePtr&) {
    if (user_level) {
      dispatch(cluster.host(0), [&] {
        cluster.host(0).cpu().submit_work(task0, endpoint_cpu_sec, complete);
      });
    } else {
      cluster.host(0).cpu().consume_kernel(seconds(endpoint_cpu_sec));
      complete();
    }
  });

  send_next = [&] {
    sent_at = engine.now();
    nic0.send_datagram(1, 40, net::make_message({}, 64), 41);
  };
  engine.schedule_after(milliseconds(5.0), send_next);
  engine.run_until(SimTime{} + seconds(400.0));

  return LatencyStats{stats.mean(), stats.stddev(), stats.max()};
}

/// Wall-clock cost of the KECho hot path itself: encode + fan-out submit on
/// a 4-member channel, delivery through the fabric, zero-copy decode and
/// poll drain on every subscriber. Reported per submitted event: the median
/// of `blocks` timed blocks of `events` submits each, so a slow stretch of a
/// shared host shorter than the run moves one block, not the result.
/// Allocations count over every block.
JsonBenchEntry measure_submit_fanout(std::uint64_t events, int blocks) {
  using Clock = std::chrono::steady_clock;
  constexpr std::size_t kNodes = 4;

  sim::Engine engine;
  net::Fabric fabric{engine};
  std::vector<net::NodeId> ids;
  for (std::size_t i = 0; i < kNodes; ++i) {
    ids.push_back(fabric.add_node("n" + std::to_string(i)));
  }
  fabric.build_star(ids, net::LinkConfig{});
  Rng master{99};
  std::vector<std::unique_ptr<host::Host>> hosts;
  std::vector<std::unique_ptr<net::Nic>> nics;
  for (std::size_t i = 0; i < kNodes; ++i) {
    host::HostConfig config;
    config.name = "n" + std::to_string(i);
    hosts.push_back(std::make_unique<host::Host>(
        engine, static_cast<host::HostId>(i), config, master.split()));
    nics.push_back(std::make_unique<net::Nic>(fabric, ids[i]));
  }
  kecho::RegistryServer registry{*nics[0]};
  std::vector<std::unique_ptr<kecho::Node>> nodes;
  for (std::size_t i = 0; i < kNodes; ++i) {
    nodes.push_back(std::make_unique<kecho::Node>(*hosts[i], *nics[i], ids[0]));
  }
  std::vector<kecho::Channel*> channels;
  for (std::size_t i = 0; i < kNodes; ++i) {
    channels.push_back(&nodes[i]->join("monitor"));
  }
  engine.run_until(engine.now() + seconds(2.0));

  // A paper-sized (~84 byte) monitoring event, reused across submissions.
  net::ByteWriter w;
  for (int i = 0; i < 10; ++i) w.f64(1.5 * i);
  const net::MessagePtr payload = net::make_message(w.take(), 0);

  std::uint64_t delivered = 0;
  for (std::size_t i = 1; i < kNodes; ++i) {
    channels[i]->set_handler([&](const kecho::Event&) { ++delivered; });
  }
  // Warm-up pass so steady state excludes TCP connection setup.
  const auto drive = [&](std::uint64_t count) {
    for (std::uint64_t e = 0; e < count; ++e) {
      channels[0]->submit(payload);
      engine.run_until(engine.now() + milliseconds(5.0));
      for (std::size_t i = 1; i < kNodes; ++i) (void)nodes[i]->poll();
    }
  };
  drive(64);

  std::vector<double> block_ns;
  const std::uint64_t allocs_before = alloc_count();
  for (int b = 0; b < blocks; ++b) {
    const Clock::time_point start = Clock::now();
    drive(events);
    block_ns.push_back(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count()));
  }
  const std::uint64_t allocs = alloc_count() - allocs_before;
  if (delivered == 0) std::abort();  // harness wired wrong
  std::sort(block_ns.begin(), block_ns.end());
  const double total = static_cast<double>(events) * blocks;

  JsonBenchEntry entry;
  entry.name = "submit_fanout_4node_roundtrip";
  entry.iterations = events * static_cast<std::uint64_t>(blocks);
  entry.ns_per_event =
      block_ns[block_ns.size() / 2] / static_cast<double>(events);
  entry.ops_per_sec = 1e9 / entry.ns_per_event;
  entry.allocs_per_event = static_cast<double>(allocs) / total;
  return entry;
}

}  // namespace
}  // namespace dproc::bench

int main(int argc, char** argv) {
  using namespace dproc::bench;
  // argv[1] overrides the RTT round-trip count (the smoke test runs small).
  int rtt_count = 2000;
  if (argc > 1) {
    const int v = std::atoi(argv[1]);
    if (v > 0) rtt_count = v;
  }
  const LatencyStats kernel = measure(/*user_level=*/false, rtt_count);
  const LatencyStats user = measure(/*user_level=*/true, rtt_count);

  Table table({"level(0=kernel,1=user)", "mean_rtt_us", "stddev_us", "max_us"});
  table.add_row({0, kernel.mean_us, kernel.stddev_us, kernel.max_us});
  table.add_row({1, user.mean_us, user.stddev_us, user.max_us});
  table.print("micro_kecho_rtt_kernel_vs_user");

  std::printf(
      "\npaper ([11], motivating dproc's kernel-kernel messaging): RTT\n"
      "variation is much larger for user-level communication because the\n"
      "endpoints wait on the CPU scheduler behind application load.\n"
      "variance ratio (user/kernel stddev): %.1fx\n",
      user.stddev_us / (kernel.stddev_us > 0 ? kernel.stddev_us : 1.0));

  // DPROC_BENCH_ITERS sets the submits per timed block; the median of 11
  // blocks is reported.
  const std::uint64_t events = bench_iterations(20'000);
  const bool ok =
      write_bench_json("micro_kecho", {measure_submit_fanout(events, 11)});
  return ok ? 0 : 1;
}
