// hier128_full: 128 nodes on the zone overlay with every opt-in feature on.
//
// Zone 8, fanout 8, one summary subscriber (the last node). Features: batch
// with delta suppression, tracing with a staleness SLO, period adaptation,
// flight recorder, health engine, sketch TOP_K, replicated registry and
// liveness. An E-code filter is deployed on every publisher; the subscriber
// reads every root roll-up file each slice, each at a random instant.
#include <cstdio>
#include <string>
#include <vector>

#include "workload.hpp"

namespace macro_e2e {
namespace {

using dproc::seconds;

constexpr std::size_t kNodes = 128;
constexpr std::size_t kSubscriber = kNodes - 1;
constexpr double kDeployAtS = 5.0;
constexpr double kWarmupS = 20.0;
constexpr double kSettleStepS = 0.5;

/// Passes every sample through, so the roll-up still counts every node;
/// the VM runs one loop iteration per metric each poll.
std::string pass_through_filter(std::size_t metrics) {
  return "{\n  for (int i = 0; i < " + std::to_string(metrics) +
         "; ++i) {\n    output[i] = input[i];\n  }\n}\n";
}

/// True when the subscriber's root summary covers every node on every entry.
bool summary_complete(core::Cluster& cluster) {
  const dproc::net::AggregateBatch* summary =
      cluster.dmon(kSubscriber)->cluster_summary();
  if (summary == nullptr || summary->entries.empty()) return false;
  for (const auto& entry : summary->entries) {
    if (entry.count != kNodes) return false;
  }
  return true;
}

}  // namespace

UnitResult run_hier128_full(std::uint64_t seed, int slices) {
  UnitResult result;
  dproc::sim::Engine engine;
  core::ClusterConfig config;
  config.node_count = kNodes;
  config.dmon.poll_period = seconds(1.0);
  config.seed = seed;
  config.module_factory = timed_standard_modules(config.link.bandwidth_bps);
  config.hierarchy.enabled = true;
  config.hierarchy.zone_size = 8;
  config.hierarchy.fanout = 8;
  config.hierarchy.subscribers = std::vector<std::size_t>{kSubscriber};
  config.batch.enabled = true;
  config.batch.delta_epsilon = 0.0;
  config.trace.enabled = true;
  config.trace.default_slo = seconds(2.0);
  config.adapt.enabled = true;
  config.flight.enabled = true;
  config.health.enabled = true;
  config.sketch.enabled = true;
  config.registry.enabled = true;
  config.liveness.enabled = true;
  config.liveness.join_retries = true;
  config.liveness.retry_jitter = 1.0;
  const double stale_after_s =
      config.dmon.poll_period.sec() * config.dmon.stale_after_periods;

  std::unique_ptr<core::Cluster> cluster;
  std::vector<std::string> rollup_paths;
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
    double settle = -1.0;
    auto warm_to = [&](double until) {
      const Span span{"core.warmup"};
      const Clock::time_point t0 = Clock::now();
      for (double t = engine.now().sec() + kSettleStepS; t <= until + 1e-9;
           t += kSettleStepS) {
        engine.run_until(SimTime{} + seconds(t));
        if (settle < 0.0 && summary_complete(*cluster)) settle = t;
      }
      result.warmup_s += seconds_since(t0);
    };
    warm_to(kDeployAtS);
    {
      core::TuningConfig tuning;
      tuning.filter_source =
          pass_through_filter(cluster->dmon(0)->metric_table().size());
      for (std::size_t i = 0; i < cluster->size(); ++i) {
        const Span span{"ecode.deploy"};
        const Status status = cluster->dmon(i)->apply_tuning(tuning);
        if (!status.is_ok()) {
          result.check_failures.push_back("hier128_full: filter deploy: " +
                                          status.to_string());
        }
      }
    }
    {
      const Span span{"app.connect"};
      for (const core::MetricDesc& desc :
           cluster->dmon(kSubscriber)->metric_table()) {
        rollup_paths.push_back("/proc/cluster/rollup/" + desc.path);
      }
    }
    warm_to(kWarmupS);
    result.exact["kecho.settle_sim_s"] = settle;
    result.setup_s = seconds_since(setup_start);
    result.setup_samples_s.push_back(result.setup_s);
  }
  result.exact["net.drops_setup"] =
      static_cast<double>(cluster->fabric().stats().drops_total());

  procfs::ProcFs& fs = cluster->procfs(kSubscriber);
  dproc::Rng rng{seed ^ 0x41e128};
  std::uint64_t bad_reads = 0;
  std::uint64_t short_counts = 0;
  std::string first_bad;
  Meter meter{*cluster};
  meter.begin();
  for (int slice = 0; slice < slices; ++slice) {
    // Each roll-up file is read once per slice, at its own random instant.
    const Phased phased = draw_phases(rng, rollup_paths.size());
    meter.slice(phased.phases, [&](std::size_t j) {
      const std::string& path = rollup_paths[phased.tasks[j]];
      ++result.attempted;
      const Result<std::string> text = traced_read(fs, path);
      // Freshness is the roll-up's own age (built_age_s): under delta
      // suppression an unchanged metric keeps its old sample time
      // (latest_age_s) without being stale.
      double count = 0.0;
      double latest_age = 0.0;
      double built_age = 0.0;
      if (!text.is_ok() || !field(text.value(), "count", count) ||
          !field(text.value(), "latest_age_s", latest_age) ||
          !field(text.value(), "built_age_s", built_age) ||
          built_age > stale_after_s) {
        ++bad_reads;
        if (first_bad.empty()) {
          first_bad = path + ": " + (text.is_ok() ? text.value()
                                                  : text.status().to_string());
        }
        return;
      }
      if (count != static_cast<double>(kNodes)) ++short_counts;
      result.latency_ms.push_back(latest_age * 1e3);
    });
  }
  meter.end(result.window);

  // Every eviction or fabric drop inside the window is a failure too.
  const auto evictions =
      static_cast<std::uint64_t>(result.window.sums.at("kecho.evictions"));
  const auto drops =
      static_cast<std::uint64_t>(result.window.sums.at("net.drops_window"));
  result.failed = bad_reads + evictions + drops;
  result.exact["app.bad_reads"] = static_cast<double>(bad_reads);
  result.exact["app.short_rollups"] = static_cast<double>(short_counts);
  char buf[256];
  if (bad_reads != 0) {
    result.check_failures.push_back("hier128_full: " +
                                    std::to_string(bad_reads) +
                                    " bad roll-up reads; first: " + first_bad);
  }
  if (short_counts != 0) {
    std::snprintf(buf, sizeof buf,
                  "hier128_full: %llu roll-up reads counted fewer than %zu "
                  "nodes",
                  static_cast<unsigned long long>(short_counts), kNodes);
    result.check_failures.emplace_back(buf);
  }
  if (evictions != 0 || drops != 0) {
    std::snprintf(buf, sizeof buf,
                  "hier128_full: window had %llu evictions, %llu drops",
                  static_cast<unsigned long long>(evictions),
                  static_cast<unsigned long long>(drops));
    result.check_failures.emplace_back(buf);
  }
  return result;
}

}  // namespace macro_e2e
