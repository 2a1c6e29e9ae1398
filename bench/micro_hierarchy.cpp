// Hierarchical-overlay scaling benchmark: per-node fabric traffic as the
// cluster grows, zone aggregation vs the flat all-pairs monitoring channel.
//
// Sweeps N in {max/8, max/4, max/2, max} simulated nodes (max = 4096, or
// DPROC_BENCH_NODES) with the zone overlay on: leaves publish one batch per
// period into their zone aggregator, aggregators republish compact
// AggregateBatch roll-ups up the tree, and only the subscriber hears the
// root summary. The flat baseline is measured once, at 128 nodes or at the
// smallest sweep point if that is smaller, and projected linearly (flat
// per-node traffic grows with N-1: every publisher reaches every other
// channel member), since actually simulating a flat 4096-node cluster is
// the O(N^2) explosion the overlay exists to avoid.
//
// Emits BENCH_micro_hierarchy.json. CI bar (exit code): per-node delivered
// bytes per period at N=max must stay within 2x of N=max/8 — the overlay's
// per-node traffic is dominated by fixed-size zone fan-in, so growth must
// be sublinear in N.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "bench_common.hpp"
#include "bench_json.hpp"
#include "dproc/core/cluster.hpp"

namespace dproc::bench {
namespace {

struct ScalePoint {
  std::size_t nodes = 0;
  std::uint64_t periods = 0;
  std::uint64_t delivered_bytes = 0;  // fabric bytes, all nodes, window
  std::uint64_t packets = 0;          // fabric packets delivered, window
  double wall_ns = 0.0;
  double allocs = 0.0;

  [[nodiscard]] double per_node_bytes_per_period() const {
    return static_cast<double>(delivered_bytes) /
           static_cast<double>(nodes) / static_cast<double>(periods);
  }
};

/// Largest sweep point: 4096 by default, DPROC_BENCH_NODES overrides (the
/// smoke test runs 128). Must be >= 16 so max/8 still forms a cluster.
std::size_t bench_max_nodes() {
  if (const char* s = std::getenv("DPROC_BENCH_NODES")) {
    const unsigned long v = std::strtoul(s, nullptr, 10);
    if (v >= 16) return static_cast<std::size_t>(v);
  }
  return 4096;
}

/// Zone width and fanout (DPROC_BENCH_ZONE, default 8). Per-node traffic
/// flattens once tier-1 groups saturate at zone*fanout nodes, so the sweep
/// base point should sit at or past that knee: the default sweep starts at
/// 512 >> 64; the 128-node smoke run uses zone 4 (knee at 16).
std::size_t bench_zone() {
  if (const char* s = std::getenv("DPROC_BENCH_ZONE")) {
    const unsigned long v = std::strtoul(s, nullptr, 10);
    if (v >= 2) return static_cast<std::size_t>(v);
  }
  return 8;
}

/// One steady-state window: warm up the channel joins and the roll-up
/// pipeline, then measure fabric deltas over `periods` simulated seconds.
ScalePoint measure(std::size_t nodes, bool hierarchy, std::uint64_t periods) {
  using Clock = std::chrono::steady_clock;
  constexpr double kWarmupSec = 6.0;

  sim::Engine engine;
  core::ClusterConfig config;
  config.node_count = nodes;
  if (hierarchy) {
    const std::size_t zone = bench_zone();
    config.hierarchy.enabled = true;
    config.hierarchy.zone_size = zone;
    config.hierarchy.fanout = zone;
    // Thousands of nodes: no pre-declared peer tables (aggregators learn
    // their zone mates from the first frame), one subscriber at the far
    // end of the tree so the summary actually crosses the fabric.
    config.hierarchy.declare_zone_peers = false;
    config.hierarchy.subscribers = std::vector<std::size_t>{nodes - 1};
  }
  // Every node boots at t=0. Thousands of simultaneous joins tail-drop on
  // the registry link, but join retries (capped backoff, deterministic
  // per-node jitter) re-spread the collisions until every join lands — no
  // staggered boot needed, and the warmup absorbs the retry tail.
  config.liveness.join_retries = true;
  config.liveness.retry_jitter = 1.0;
  core::Cluster cluster{engine, config};
  for (std::size_t i = 0; i < nodes; ++i) {
    cluster.dmon(i)->start();
  }
  engine.run_until(SimTime::zero() + seconds(kWarmupSec));

  auto delivered = [&] {
    std::uint64_t bytes = 0;
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      bytes += cluster.fabric().bytes_delivered_to(cluster.nic(i).node());
    }
    return bytes;
  };

  const std::uint64_t bytes_before = delivered();
  const std::uint64_t packets_before = cluster.fabric().stats().packets_delivered;
  const std::uint64_t allocs_before = alloc_count();
  const Clock::time_point start = Clock::now();
  engine.run_until(SimTime::zero() +
                   seconds(kWarmupSec + static_cast<double>(periods)));
  const double wall_ns =
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              Clock::now() - start)
                              .count());

  ScalePoint point;
  point.nodes = nodes;
  point.periods = periods;
  point.delivered_bytes = delivered() - bytes_before;
  point.packets = cluster.fabric().stats().packets_delivered - packets_before;
  point.wall_ns = wall_ns;
  point.allocs = static_cast<double>(alloc_count() - allocs_before);
  if (point.delivered_bytes == 0) std::abort();  // harness wired wrong
  return point;
}

JsonBenchEntry to_entry(const ScalePoint& point, double flat_per_node) {
  JsonBenchEntry entry;
  entry.name = "hier_" + std::to_string(point.nodes) + "node";
  entry.iterations = point.periods;
  const double node_periods =
      static_cast<double>(point.nodes) * static_cast<double>(point.periods);
  entry.ns_per_event = point.wall_ns / node_periods;
  entry.ops_per_sec = 1e9 / entry.ns_per_event;
  entry.allocs_per_event = point.allocs / node_periods;
  entry.extras.emplace_back("nodes", static_cast<double>(point.nodes));
  entry.extras.emplace_back("delivered_bytes",
                            static_cast<double>(point.delivered_bytes));
  entry.extras.emplace_back("packets_delivered",
                            static_cast<double>(point.packets));
  entry.extras.emplace_back("per_node_bytes_per_period",
                            point.per_node_bytes_per_period());
  entry.extras.emplace_back("flat_per_node_bytes_projected", flat_per_node);
  return entry;
}

}  // namespace
}  // namespace dproc::bench

int main(int argc, char** argv) {
  using namespace dproc::bench;
  // argv[1] (or DPROC_BENCH_ITERS) overrides the measured period count.
  std::uint64_t periods = bench_iterations(20);
  if (argc > 1) {
    const int v = std::atoi(argv[1]);
    if (v > 0) periods = static_cast<std::uint64_t>(v);
  }

  const std::size_t max_nodes = bench_max_nodes();
  const std::vector<std::size_t> sweep{max_nodes / 8, max_nodes / 4,
                                       max_nodes / 2, max_nodes};

  // Flat baseline at 128 nodes at most: per-node traffic is proportional
  // to (N - 1) publishers x their event bytes, so larger flat clusters are
  // projected, not simulated (a flat run's packets grow as N^2, and at 512
  // nodes it would take most of the benchmark's time).
  const ScalePoint flat =
      measure(std::min<std::size_t>(128, sweep.front()), /*hierarchy=*/false,
              periods);
  const double flat_per_pair =
      flat.per_node_bytes_per_period() /
      static_cast<double>(flat.nodes - 1);

  std::vector<ScalePoint> points;
  points.reserve(sweep.size());
  for (const std::size_t nodes : sweep) {
    points.push_back(measure(nodes, /*hierarchy=*/true, periods));
  }

  Table table({"nodes", "per_node_B/period", "flat_projected_B/period",
               "packets/period"});
  std::vector<JsonBenchEntry> entries;
  for (const ScalePoint& point : points) {
    const double flat_projected =
        flat_per_pair * static_cast<double>(point.nodes - 1);
    table.add_row({static_cast<double>(point.nodes),
                   point.per_node_bytes_per_period(), flat_projected,
                   static_cast<double>(point.packets) /
                       static_cast<double>(point.periods)});
    entries.push_back(to_entry(point, flat_projected));
  }
  table.print("micro_hierarchy_scaling");

  const double small = points.front().per_node_bytes_per_period();
  const double large = points.back().per_node_bytes_per_period();
  std::printf(
      "\nper-node delivered bytes/period: %.1f at %zu nodes -> %.1f at %zu "
      "nodes (%.2fx across an 8x node growth; flat projection %.1fx)\n",
      small, points.front().nodes, large, points.back().nodes, large / small,
      flat_per_pair * static_cast<double>(points.back().nodes - 1) / large);

  const bool ok = write_bench_json("micro_hierarchy", entries);
  // The ISSUE acceptance bar: sublinear growth — 8x the nodes may at most
  // double the per-node traffic.
  if (large > 2.0 * small) {
    std::fprintf(stderr,
                 "micro_hierarchy: per-node bytes grew %.2fx from %zu to %zu "
                 "nodes (bar: <= 2x)\n",
                 large / small, points.front().nodes, points.back().nodes);
    return 1;
  }
  return ok ? 0 : 1;
}
