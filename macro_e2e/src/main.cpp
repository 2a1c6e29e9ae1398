// macro_e2e: the dproc macro benchmark.
//
//   macro_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file.json>]
//
// Runs one workload as a sequence of identical units (fresh cluster, set-up,
// fixed window of one-second slices), sized from --seconds, checks the
// outputs, and prints a report followed by one JSON result line (wall-clock
// metrics scaled to a reference host speed, see gauge.hpp):
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// benchmark runs one untraced and one traced unit and reports the per-layer
// metrics, the tracing overhead, and writes the spans as Chrome trace JSON.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "gauge.hpp"
#include "probe.hpp"
#include "workload.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define MACRO_E2E_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
#define MACRO_E2E_SANITIZED 1
#endif
#endif

namespace macro_e2e {
namespace {

struct Workload {
  const char* name;
  std::function<UnitResult(std::uint64_t seed)> run_unit;
  /// Nominal wall seconds of one unit's measured window on the reference
  /// machine (4-vCPU x86 VM); --seconds is divided by it to size the run,
  /// so every run of a build does the same simulated work.
  double nominal_unit_s;
  int min_units;
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> table = {
      {"fig9_smartpointer",
       [](std::uint64_t s) { return run_fig9_smartpointer(s); }, 26.0, 1},
      {"flat64", [](std::uint64_t s) { return run_flat64(s, 60); }, 7.0, 3},
      {"hier128_full", [](std::uint64_t s) { return run_hier128_full(s, 60); },
       5.0, 3},
  };
  return table;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Options& opts) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      opts.workload = value;
    } else if (key == "--seed") {
      opts.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      opts.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      opts.trace = std::strcmp(value, "0") != 0;
    } else if (key == "--trace-out") {
      opts.trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !opts.workload.empty() && opts.seconds > 0.0;
}

/// Exact order statistic with linear interpolation (numpy's default).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// A percentile is reported only with at least ten samples beyond it.
bool enough_for(std::size_t n, double q) {
  return static_cast<double>(n) * (1.0 - q) >= 10.0;
}

double safe_div(double a, double b) { return b != 0.0 ? a / b : 0.0; }

/// Value of `key` in `counts`, 0 when absent.
double get(const Counts& counts, const std::string& key) {
  const auto it = counts.find(key);
  return it == counts.end() ? 0.0 : it->second;
}

/// The host's slowdown against the reference machine over this run: the
/// gauge's median chunk time over its reference time. Set-up and per-layer
/// wall times are divided by it so that they read as on the reference host
/// and runs of identical code agree more closely than their raw times do
/// (README, "Host-speed scaling"). The raw figures are printed beside them.
double host_slowdown(std::vector<std::string>& problems) {
  const std::vector<double>& chunks = gauge().samples_ms();
  if (chunks.size() < 50) {
    problems.push_back("too few host gauge samples: " +
                       std::to_string(chunks.size()));
  }
  const double median = quantile(chunks, 0.50);
  std::printf(
      "host: gauge median %.4f ms over %zu chunks, %.4f of the reference "
      "%.1f ms; wall-clock metrics are scaled to the reference\n",
      median, chunks.size(), median / HostGauge::kReferenceChunkMs,
      HostGauge::kReferenceChunkMs);
  return median > 0.0 ? median / HostGauge::kReferenceChunkMs : 1.0;
}

/// Each slice's wall time scaled to the reference host by the gauge's speed
/// around it: the median of the five chunks centred on the one that
/// followed the slice. The host's speed moves within a run too, so a
/// run-wide factor would leave that movement in the percentiles.
std::vector<double> host_slice_ms(const WindowTotals& w) {
  constexpr std::size_t kReach = 2;
  const std::vector<double>& chunks = gauge().samples_ms();
  std::vector<double> out;
  out.reserve(w.slice_ms.size());
  for (std::size_t i = 0; i < w.slice_ms.size(); ++i) {
    const std::size_t at = w.slice_gauge[i];
    const std::size_t lo = at >= kReach ? at - kReach : 0;
    const std::size_t hi = std::min(chunks.size(), at + kReach + 1);
    const double local = quantile(
        std::vector<double>(chunks.begin() + static_cast<std::ptrdiff_t>(lo),
                            chunks.begin() + static_cast<std::ptrdiff_t>(hi)),
        0.50);
    out.push_back(w.slice_ms[i] * HostGauge::kReferenceChunkMs / local);
  }
  return out;
}

/// Resident KB of the workload alone: the gauge's table and events are
/// taken out.
double workload_kb(double process_kb) {
  return process_kb - gauge().resident_kb();
}

/// Deterministic per-layer counts and modeled values of one unit; every
/// unit of a run, traced or not, must produce the same map.
Counts fingerprint(const UnitResult& u) {
  const WindowTotals& w = u.window;
  Counts f = u.exact;
  f.insert(w.sums.begin(), w.sums.end());
  f.insert(w.peaks.begin(), w.peaks.end());
  f["modeled_latency_p50_ms"] = quantile(u.latency_ms, 0.50);
  f["modeled_latency_p99_ms"] = quantile(u.latency_ms, 0.99);
  f["modeled_latency_samples"] = static_cast<double>(u.latency_ms.size());
  f["modeled_overhead_pct"] =
      100.0 * safe_div(get(w.sums, "host.kernel_node_s"), w.node_sim_s);
  f["modeled_net_kbps_per_node"] = safe_div(
      get(w.sums, "net.delivered_bytes") * 8.0 / 1e3, w.node_sim_s);
  f["ops.attempted"] = static_cast<double>(u.attempted);
  f["ops.failed"] = static_cast<double>(u.failed);
  f["window.slices"] = static_cast<double>(w.slice_ms.size());
  return f;
}

/// Names the first key on which two fingerprints differ; empty when equal.
std::string first_difference(const Counts& a, const Counts& b) {
  for (const auto& [key, value] : a) {
    const auto it = b.find(key);
    if (it == b.end()) return key + " (missing)";
    if (it->second != value) {
      char buf[256];
      std::snprintf(buf, sizeof buf, "%s (%.17g vs %.17g)", key.c_str(),
                    value, it->second);
      return buf;
    }
  }
  return a.size() == b.size() ? std::string{} : "key sets differ";
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void print_unit(std::size_t index, const char* pass, const UnitResult& u) {
  std::printf(
      "unit %zu (%s): setup %.3f s (build %.3f, warm-up %.3f), %zu slices in "
      "%.3f s wall, %.0f sim node-s, %.0f events, %llu/%llu ops failed\n",
      index, pass, u.setup_s, u.build_s, u.warmup_s, u.window.slice_ms.size(),
      u.window.wall_s, u.window.node_sim_s, get(u.window.sums, "sim.events"),
      static_cast<unsigned long long>(u.failed),
      static_cast<unsigned long long>(u.attempted));
}

std::vector<Metric> end_to_end(const std::vector<UnitResult>& units,
                               double slowdown,
                               std::vector<std::string>& problems) {
  WindowTotals total;
  std::vector<double> setups;
  std::size_t nodes = 0;
  for (const UnitResult& u : units) {
    total.merge(u.window);
    setups.insert(setups.end(), u.setup_samples_s.begin(),
                  u.setup_samples_s.end());
    nodes = std::max(nodes, u.nodes);
  }
  const Counts f = fingerprint(units.front());
  const std::size_t slices = total.slice_ms.size();
  const std::size_t samples = units.front().latency_ms.size();
  if (!enough_for(slices, 0.90)) {
    problems.push_back("too few slices for p90: " + std::to_string(slices));
  }
  if (!enough_for(samples, 0.99)) {
    problems.push_back("too few modeled latency samples for p99: " +
                       std::to_string(samples));
  }
  std::printf(
      "samples: %zu slices (p50, p90), %zu set-ups (median), %zu modeled "
      "latency samples per unit (p50, p99)\n",
      slices, setups.size(), samples);
  const double setup = quantile(setups, 0.50);
  std::printf(
      "raw wall clock: %.6g node-s/s, slice p50 %.6g ms, p90 %.6g ms, "
      "set-up %.6g s\n",
      safe_div(total.node_sim_s, total.wall_s),
      quantile(total.slice_ms, 0.50), quantile(total.slice_ms, 0.90), setup);
  const std::vector<double> host_ms = host_slice_ms(total);
  double host_wall_ms = 0.0;
  for (const double ms : host_ms) host_wall_ms += ms;
  return {
      {"sim_node_s_per_wall_s",
       safe_div(total.node_sim_s, host_wall_ms / 1e3), "node-s/s"},
      {"wall_ms_per_sim_s_p50", quantile(host_ms, 0.50), "ms"},
      {"wall_ms_per_sim_s_p90", quantile(host_ms, 0.90), "ms"},
      {"setup_s", setup / slowdown, "s"},
      {"peak_rss_kb_per_node",
       safe_div(workload_kb(peak_rss_kb()), static_cast<double>(nodes)),
       "KB"},
      {"modeled_latency_p50_ms", f.at("modeled_latency_p50_ms"), "ms"},
      {"modeled_latency_p99_ms", f.at("modeled_latency_p99_ms"), "ms"},
      {"modeled_overhead_pct", f.at("modeled_overhead_pct"), "%"},
      {"modeled_net_kbps_per_node", f.at("modeled_net_kbps_per_node"),
       "kbit/s"},
  };
}

std::vector<Metric> per_layer(const UnitResult& plain,
                              const UnitResult& traced, double slowdown) {
  const WindowTotals& w = traced.window;
  const Counts f = fingerprint(traced);
  // Window figures count only spans inside a slice; set-up spans (filter
  // deploys, warm-up collects) are summarised separately.
  const std::map<std::string, SpanSummary> spans = tracer().summarize("slice");
  const std::map<std::string, SpanSummary> setup = tracer().summarize("setup");
  // Wall times are scaled to the reference host like the end-to-end ones.
  auto span_q = [&](const std::map<std::string, SpanSummary>& from,
                    const char* name, double q) {
    const auto it = from.find(name);
    return it == from.end()
               ? 0.0
               : quantile(it->second.durations_ns, q) / 1e3 / slowdown;
  };
  // collect() cost is bimodal across modules, so report the mean.
  auto span_mean_us = [&](const std::map<std::string, SpanSummary>& from,
                          const char* name) {
    const auto it = from.find(name);
    return it == from.end() ? 0.0
                            : it->second.total_ns / 1e3 / slowdown /
                                  static_cast<double>(it->second.count);
  };
  auto self_per_slice_ms = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end()
               ? 0.0
               : it->second.self_ns / 1e6 / slowdown /
                     static_cast<double>(w.slice_ms.size());
  };
  auto count = [&](const char* key) { return get(f, key); };
  auto per_sim_s = [&](const char* key) { return safe_div(get(f, key), w.sim_s); };
  const auto reads = spans.find("procfs.read");
  const std::size_t read_count = reads == spans.end() ? 0 : reads->second.count;
  std::printf("samples: %zu slices, %zu procfs reads (p50, p90)\n",
              w.slice_ms.size(), read_count);
  return {
      {"sim.events_per_sim_s", per_sim_s("sim.events"), "1/sim_s"},
      {"sim.ns_per_event",
       safe_div(plain.window.wall_s * 1e9 / slowdown,
                get(plain.window.sums, "sim.events")),
       "ns"},
      {"sim.pending_peak", count("sim.pending_peak"), "count"},
      {"sim.allocs_per_event",
       safe_div(count("sim.engine_allocs"), count("sim.events")), "count"},
      {"sim.cancel_flags_per_sim_s", per_sim_s("sim.cancel_flags"), "1/sim_s"},
      {"net.packets_per_sim_s", per_sim_s("net.packets_sent"), "1/sim_s"},
      {"net.delivered_per_sent",
       safe_div(count("net.packets_delivered"), count("net.packets_sent")),
       "ratio"},
      {"net.drops_setup", count("net.drops_setup"), "count"},
      {"net.drops_window", count("net.drops_window"), "count"},
      {"net.tcp_retransmits", count("net.tcp_retransmits"), "count"},
      {"kecho.receives_per_sim_s", per_sim_s("kecho.receives"), "1/sim_s"},
      {"kecho.heartbeats_per_sim_s", per_sim_s("kecho.heartbeats"), "1/sim_s"},
      {"kecho.settle_sim_s", count("kecho.settle_sim_s"), "sim_s"},
      {"core.build_s", traced.build_s / slowdown, "s"},
      {"core.warmup_s", traced.warmup_s / slowdown, "s"},
      {"core.rss_kb_per_node_built",
       safe_div(workload_kb(plain.rss_kb_built),
                static_cast<double>(plain.nodes)),
       "KB"},
      {"dmon.published_per_sim_s", per_sim_s("dmon.published"), "1/sim_s"},
      {"dmon.suppressed_ratio",
       safe_div(count("dmon.suppressed"),
                count("dmon.published") + count("dmon.suppressed")),
       "ratio"},
      {"dmon.submit_us",
       safe_div(count("dmon.submit_us_sum"), count("dmon.polls")), "us"},
      {"dmon.receive_us",
       safe_div(count("dmon.receive_us_sum"), count("dmon.polls")), "us"},
      {"monitors.collect_us", span_mean_us(spans, "monitors.collect"), "us"},
      {"monitors.self_ms_per_slice", self_per_slice_ms("monitors.collect"),
       "ms"},
      {"ecode.deploy_us", span_q(setup, "ecode.deploy", 0.5), "us"},
      {"ecode.insns_per_sim_s", per_sim_s("ecode.insns"), "1/sim_s"},
      {"procfs.read_us_p50", span_q(spans, "procfs.read", 0.5), "us"},
      {"procfs.read_us_p90", span_q(spans, "procfs.read", 0.9), "us"},
      {"procfs.write_us", span_q(spans, "procfs.write", 0.5), "us"},
      {"procfs.self_ms_per_slice",
       self_per_slice_ms("procfs.read") + self_per_slice_ms("procfs.write"),
       "ms"},
      {"telemetry.flight_per_sim_s", per_sim_s("telemetry.flight_events"),
       "1/sim_s"},
      {"sp.frames_per_sim_s", per_sim_s("sp.frames_processed"), "1/sim_s"},
      {"sp.backlog_peak", count("sp.backlog_peak"), "count"},
      {"host.kernel_share_max", count("host.kernel_share_max"), "ratio"},
      {"slice.self_ms", self_per_slice_ms("slice"), "ms"},
      {"trace.overhead_pct",
       100.0 * safe_div(w.wall_s - plain.window.wall_s, plain.window.wall_s),
       "%"},
  };
}

}  // namespace
}  // namespace macro_e2e

int main(int argc, char** argv) {
  using namespace macro_e2e;
  Options opts;
  if (!parse_args(argc, argv, opts)) {
    std::fprintf(stderr,
                 "usage: macro_e2e --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <file>]\n");
    return 2;
  }
  const Workload* workload = nullptr;
  for (const Workload& w : workloads()) {
    if (opts.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "macro_e2e: unknown workload '%s'\n",
                 opts.workload.c_str());
    return 2;
  }
#if !defined(__OPTIMIZE__) || defined(MACRO_E2E_SANITIZED)
  std::fprintf(stderr,
               "macro_e2e: refusing to time an unoptimised or sanitizer "
               "build (%s)\n",
               MACRO_E2E_BUILD_TYPE);
  return 3;
#endif
  std::printf("provenance: build_type=%s compiler=\"%s\" nproc=%u\n",
              MACRO_E2E_BUILD_TYPE, MACRO_E2E_COMPILER,
              std::thread::hardware_concurrency());

  // Built before the first unit, so every RSS reading includes the gauge's
  // memory and workload_kb() can take it out.
  (void)gauge();
  std::vector<std::string> problems;
  std::vector<UnitResult> units;
  std::vector<Metric> metrics;
  if (!opts.trace) {
    const int count = std::max(
        workload->min_units,
        static_cast<int>(std::lround(opts.seconds / workload->nominal_unit_s)));
    for (int i = 0; i < count; ++i) {
      units.push_back(workload->run_unit(opts.seed));
      print_unit(i, "untraced", units.back());
    }
    metrics = end_to_end(units, host_slowdown(problems), problems);
  } else {
    units.push_back(workload->run_unit(opts.seed));
    print_unit(0, "untraced", units.back());
    tracer().set_enabled(true);
    units.push_back(workload->run_unit(opts.seed));
    tracer().set_enabled(false);
    print_unit(1, "traced", units.back());
    metrics = per_layer(units[0], units[1], host_slowdown(problems));
    if (!opts.trace_out.empty()) {
      if (tracer().write_chrome_json(opts.trace_out)) {
        std::printf("trace: %zu spans written to %s\n", tracer().spans().size(),
                    opts.trace_out.c_str());
      } else {
        problems.push_back("could not write " + opts.trace_out);
      }
    }
  }

  // Output checks and the determinism guard.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const Counts reference = fingerprint(units.front());
  for (std::size_t i = 0; i < units.size(); ++i) {
    attempted += units[i].attempted;
    failed += units[i].failed;
    for (const std::string& failure : units[i].check_failures) {
      problems.push_back(failure);
    }
    const std::string diff = first_difference(reference, fingerprint(units[i]));
    if (!diff.empty()) {
      problems.push_back("determinism: unit " + std::to_string(i) +
                         " differs from unit 0 on " + diff);
    }
  }
  for (const auto& [key, value] : reference) {
    std::printf("exact %s = %.17g\n", key.c_str(), value);
  }
  for (const Metric& m : metrics) {
    std::printf("metric %s = %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& problem : problems) {
    std::printf("CHECK FAILED: %s\n", problem.c_str());
  }
  print_result(problems.empty(), attempted, failed, metrics);
  return 0;
}
