// flat64: 64 nodes on the paper stack, all-pairs monitoring, join retries on.
//
// Opt-in features stay off; every d-mon polls the standard modules once a
// second and publishes to all 63 peers (4032 feeds). A reader app on four
// nodes reads peers' /proc/cluster/<peer>/... files every slice, each peer at
// a random instant, and every fifth slice retunes one peer's period through
// that peer's control file.
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <vector>

#include "workload.hpp"

namespace macro_e2e {
namespace {

using dproc::seconds;

constexpr std::size_t kNodes = 64;
constexpr double kWarmupS = 10.0;
constexpr double kSettleStepS = 0.5;
constexpr std::size_t kReaders[] = {0, 16, 32, 48};
/// Metric files each reader reads per peer per slice (rotating through the
/// metric table).
constexpr std::size_t kFilesPerPeer = 2;
constexpr int kWriteEvery = 5;

/// A healthy peer value renders as "<value>\nsampled_at_s ..\nage_s ..\n..";
/// a degraded feed appends a "state" line and a missing one reads
/// "no data". True when the value parses, the feed is live and the value is
/// no older than `stale_after_s`.
bool fresh_value(const std::string& text, double stale_after_s, double& age) {
  char* end = nullptr;
  std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\n') return false;
  if (text.find("\nstate ") != std::string::npos) return false;
  return field(text, "age_s", age) && age <= stale_after_s;
}

/// Live feeds: (reader, peer) pairs whose peer state is live with data.
std::size_t live_feeds(core::Cluster& cluster) {
  std::size_t live = 0;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    const core::DMon* dmon = cluster.dmon(i);
    if (dmon == nullptr) continue;
    dmon->for_each_peer([&](net::NodeId node, const std::string&) {
      const auto health = dmon->peer_health(node);
      if (health && health->has_data &&
          health->state == core::PeerState::kLive) {
        ++live;
      }
    });
  }
  return live;
}

}  // namespace

UnitResult run_flat64(std::uint64_t seed, int slices) {
  UnitResult result;
  dproc::sim::Engine engine;
  core::ClusterConfig config;
  config.node_count = kNodes;
  config.dmon.poll_period = seconds(1.0);
  config.seed = seed;
  // Every node boots at t = 0; capped, jittered join retries ride out the
  // registry's tail drops so the cluster fully forms.
  config.liveness.join_retries = true;
  config.liveness.retry_jitter = 1.0;
  config.module_factory = timed_standard_modules(config.link.bandwidth_bps);
  const std::size_t expected_feeds = kNodes * (kNodes - 1);
  const double stale_after_s =
      config.dmon.poll_period.sec() * config.dmon.stale_after_periods;

  std::unique_ptr<core::Cluster> cluster;
  std::vector<std::string> metric_paths;
  {
    const Span setup_span{"setup"};
    const Clock::time_point setup_start = Clock::now();
    {
      const Span span{"core.build"};
      const Clock::time_point t0 = Clock::now();
      cluster = std::make_unique<core::Cluster>(engine, config);
      result.build_s = seconds_since(t0);
    }
    result.rss_kb_built = rss_kb();
    result.nodes = cluster->size();
    {
      const Span span{"dmon.start"};
      cluster->start_dproc();
    }
    {
      const Span span{"core.warmup"};
      const Clock::time_point t0 = Clock::now();
      double settle = -1.0;
      for (double t = kSettleStepS; t <= kWarmupS + 1e-9; t += kSettleStepS) {
        engine.run_until(SimTime{} + seconds(t));
        if (settle < 0.0 && live_feeds(*cluster) == expected_feeds) settle = t;
      }
      result.warmup_s = seconds_since(t0);
      result.exact["kecho.settle_sim_s"] = settle;
    }
    {
      const Span span{"app.connect"};
      for (const core::MetricDesc& desc : cluster->dmon(0)->metric_table()) {
        metric_paths.push_back(desc.path);
      }
    }
    result.setup_s = seconds_since(setup_start);
    result.setup_samples_s.push_back(result.setup_s);
  }
  result.exact["net.drops_setup"] =
      static_cast<double>(cluster->fabric().stats().drops_total());
  const std::size_t live = live_feeds(*cluster);
  result.exact["kecho.live_feeds_at_start"] = static_cast<double>(live);
  if (live != expected_feeds) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "flat64: %zu of %zu feeds live at start",
                  live, expected_feeds);
    result.check_failures.emplace_back(buf);
  }

  std::vector<std::string> peer_names(kNodes);
  for (std::size_t i = 0; i < kNodes; ++i) {
    peer_names[i] = cluster->fabric().node_name(cluster->nic(i).node());
  }
  // One read task per (reader index, peer) pair, each at its own random
  // instant.
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t r = 0; r < std::size(kReaders); ++r) {
    for (std::size_t peer = 0; peer < kNodes; ++peer) {
      if (peer != kReaders[r]) pairs.emplace_back(r, peer);
    }
  }
  dproc::Rng rng{seed ^ 0xf1a764};
  std::uint64_t bad_reads = 0;
  std::uint64_t bad_writes = 0;
  std::string first_bad;
  Meter meter{*cluster};
  meter.begin();
  for (int slice = 0; slice < slices; ++slice) {
    const Phased phased = draw_phases(rng, pairs.size());
    // Every kWriteEvery slices each reader retunes one random peer,
    // alternating periods of 2 s and 1 s (both inside the staleness
    // horizon); the write goes out at that peer's read instant.
    const int round = slice / kWriteEvery;
    std::vector<std::size_t> targets;
    if (slice % kWriteEvery == 0) {
      for (const std::size_t reader : kReaders) {
        const auto peer = static_cast<std::size_t>(
            rng.uniform_int(1, static_cast<std::int64_t>(kNodes) - 1));
        targets.push_back((reader + peer) % kNodes);
      }
    }
    meter.slice(phased.phases, [&](std::size_t j) {
      const auto [r, peer] = pairs[phased.tasks[j]];
      procfs::ProcFs& fs = cluster->procfs(kReaders[r]);
      for (std::size_t f = 0; f < kFilesPerPeer; ++f) {
        const std::string& metric =
            metric_paths[(static_cast<std::size_t>(slice) * kFilesPerPeer +
                          peer + f) %
                         metric_paths.size()];
        const std::string path =
            "/proc/cluster/" + peer_names[peer] + "/" + metric;
        ++result.attempted;
        const Result<std::string> text = traced_read(fs, path);
        double age = 0.0;
        if (!text.is_ok() || !fresh_value(text.value(), stale_after_s, age)) {
          ++bad_reads;
          if (first_bad.empty()) {
            first_bad = path + ": " + (text.is_ok() ? text.value()
                                                    : text.status().to_string());
          }
          continue;
        }
        result.latency_ms.push_back(age * 1e3);
      }
      if (targets.empty() || targets[r] != peer) return;
      ++result.attempted;
      const Status status =
          traced_write(fs, "/proc/cluster/" + peer_names[peer] + "/control",
                       round % 2 == 0 ? "period 2\n" : "period 1\n");
      if (!status.is_ok()) {
        ++bad_writes;
        if (first_bad.empty()) first_bad = status.to_string();
      }
    });
  }
  meter.end(result.window);

  result.failed = bad_reads + bad_writes;
  result.exact["app.bad_reads"] = static_cast<double>(bad_reads);
  result.exact["app.bad_writes"] = static_cast<double>(bad_writes);
  if (result.failed != 0) {
    result.check_failures.push_back("flat64: " + std::to_string(bad_reads) +
                                    " bad reads, " +
                                    std::to_string(bad_writes) +
                                    " bad writes; first: " + first_bad);
  }
  return result;
}

}  // namespace macro_e2e
