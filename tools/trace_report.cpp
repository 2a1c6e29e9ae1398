// Causal-tracing report over a short traced cluster run: the paper's
// platform (`--nodes` nodes on switched Fast Ethernet) with self-monitoring
// and causal tracing on.
//
//  * per-node telemetry snapshot (every counter, gauge, latency recorder,
//    and the span and hop ring occupancy);
//  * per-channel, per-stage hop latency breakdown (the table the paper's
//    Figure 6–8 latency discussion implies but never shows);
//  * one fully reconstructed causal chain — publish → submit → arrive →
//    deliver → render — printed hop by hop with per-stage durations and a
//    monotonicity check on the virtual-clock timestamps;
//  * per-node staleness-SLO violation counts when a budget is armed;
//  * the merged Chrome trace (spans + cross-node flow arrows) on disk,
//    loadable in chrome://tracing or Perfetto (ui.perfetto.dev).
//
//   $ ./trace_report [--out PATH] [--seconds S] [--nodes N] [--slo-ms MS]
//
// Defaults: dproc_trace_report.json, 10 simulated seconds, 8 nodes, SLO off.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "dproc/core/cluster.hpp"
#include "dproc/telemetry/telemetry.hpp"

namespace {

struct Options {
  std::string out_path = "dproc_trace_report.json";
  double run_seconds = 10.0;
  std::size_t nodes = 8;
  /// End-to-end staleness budget for the monitoring channel in
  /// milliseconds; 0 leaves the SLO watchdog off.
  double slo_ms = 0.0;
};

/// Parses `--out PATH`, `--seconds S`, `--nodes N` and `--slo-ms MS`.
/// Returns false (with a usage line on stderr) on malformed input.
bool parse_args(int argc, char** argv, Options& opts) {
  auto usage = [&] {
    std::fprintf(stderr,
                 "usage: %s [--out PATH] [--seconds S] [--nodes N] "
                 "[--slo-ms MS]\n",
                 argv[0]);
    return false;
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* v = i + 1 < argc ? argv[++i] : nullptr;
    if (v == nullptr) return usage();
    if (std::strcmp(arg, "--out") == 0) {
      opts.out_path = v;
    } else if (std::strcmp(arg, "--seconds") == 0) {
      if (std::atof(v) <= 0.0) return usage();
      opts.run_seconds = std::atof(v);
    } else if (std::strcmp(arg, "--nodes") == 0) {
      if (std::atol(v) < 2) return usage();
      opts.nodes = static_cast<std::size_t>(std::atol(v));
    } else if (std::strcmp(arg, "--slo-ms") == 0) {
      if (std::atof(v) < 0.0) return usage();
      opts.slo_ms = std::atof(v);
    } else {
      return usage();
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dproc;

  Options opts;
  if (!parse_args(argc, argv, opts)) return 1;

  core::ClusterConfig config;
  config.node_count = opts.nodes;
  config.self_monitor = true;
  config.trace.enabled = true;
  if (opts.slo_ms > 0.0) {
    config.trace.channel_slo.emplace_back(config.dmon.monitor_channel,
                                          milliseconds(opts.slo_ms));
  }
  sim::Engine engine;
  core::Cluster cluster{engine, config};
  cluster.start_dproc();
  engine.run_until(SimTime{} + seconds(opts.run_seconds));

  std::vector<std::pair<int, const telemetry::Registry*>> registries;
  std::vector<const telemetry::Registry*> bare;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    const telemetry::Registry& registry = cluster.host(i).telemetry();
    registries.emplace_back(static_cast<int>(i), &registry);
    bare.push_back(&registry);
    std::printf("--- %s ---\n%s", cluster.host(i).name().c_str(),
                registry.render().c_str());
  }

  // Channel ids are a cluster-wide registry convention; any node resolves.
  const auto channels = cluster.node(0).kecho->channels();
  auto channel_name = [&channels](std::uint32_t id) -> std::string {
    for (const auto& [cid, name] : channels) {
      if (cid == id) return name;
    }
    return {};
  };

  std::printf("\n=== per-stage hop latency breakdown (%zu nodes, %.1f s) ===\n",
              cluster.size(), opts.run_seconds);
  std::fputs(
      telemetry::render_hop_breakdown(telemetry::hop_breakdown(bare),
                                      channel_name)
          .c_str(),
      stdout);

  // Pick the trace id covering the most pipeline stages and reconstruct it.
  std::map<std::uint64_t, std::set<telemetry::HopStage>> stages_of;
  for (const telemetry::Registry* registry : bare) {
    registry->hops().for_each([&stages_of](const telemetry::Hop& hop) {
      stages_of[hop.trace_id].insert(hop.stage);
    });
  }
  std::uint64_t best_id = 0;
  std::size_t best_stages = 0;
  for (const auto& [id, stages] : stages_of) {
    if (stages.size() > best_stages) {
      best_stages = stages.size();
      best_id = id;
    }
  }
  if (best_id == 0) {
    std::fprintf(stderr, "no traced events recorded — is tracing enabled?\n");
    return 1;
  }

  const auto chain = telemetry::collect_trace(registries, best_id);
  std::printf("\n=== causal chain for trace 0x%llx (origin node %u) ===\n",
              static_cast<unsigned long long>(best_id),
              static_cast<std::uint32_t>(best_id >> 32));
  bool monotonic = true;
  std::int64_t prev_ts = 0;
  for (const auto& [hop, node] : chain) {
    const std::string name = channel_name(hop.channel);
    std::printf("  %-8s node %-2d  t=%12.3f us  +%10.3f us  %s\n",
                telemetry::to_string(hop.stage), node,
                static_cast<double>(hop.ts_ns) / 1000.0,
                static_cast<double>(hop.dur_ns) / 1000.0,
                name.empty() ? "?" : name.c_str());
    if (hop.ts_ns < prev_ts) monotonic = false;
    prev_ts = hop.ts_ns;
  }
  std::printf("  stages %zu/%zu, timestamps %s\n", best_stages,
              telemetry::kHopStageCount,
              monotonic ? "non-decreasing" : "OUT OF ORDER");

  if (opts.slo_ms > 0.0) {
    std::printf("\n=== staleness SLO (budget %.1f ms on %s) ===\n",
                opts.slo_ms, cluster.config().dmon.monitor_channel.c_str());
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      if (cluster.dmon(i) == nullptr) continue;
      std::printf("  %-8s violations %llu\n", cluster.host(i).name().c_str(),
                  static_cast<unsigned long long>(
                      cluster.dmon(i)->slo_violations()));
    }
  }

  const std::string json = telemetry::merge_chrome_trace(registries);
  std::FILE* out = std::fopen(opts.out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n",
                 opts.out_path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), out);
  std::fclose(out);
  std::printf("\nwrote %zu bytes to %s (flow arrows stitch the chain in "
              "Perfetto)\n",
              json.size(), opts.out_path.c_str());
  return monotonic ? 0 : 2;
}
