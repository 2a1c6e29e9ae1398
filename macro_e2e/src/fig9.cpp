// fig9_smartpointer: the paper's Figure 9 on its 8-node testbed.
//
// SmartPointer streams 750 KB frames at 5 Hz over TCP from node 0 to node 1;
// one linpack thread joins node 1 every 200 simulated seconds, nine in all.
// Run once per filter mode (none, static, dynamic), each on its own cluster
// and engine, on the schedule of bench/fig9_cpu_loaded_client.cpp except
// that the stream starts at a seeded phase. The three modes run side by
// side, one slice each in turn: each mode's slices then sample the host's
// speed over the whole run, not over one third of it. That matters because
// the slice-time percentiles fall in single modes (the median among the
// static mode's slices, p90 among the no-filter mode's), and the host's
// speed drifts over tens of seconds. Separate engines keep every simulated
// result identical to running the modes one after another.
#include <algorithm>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dproc/smartpointer/client.hpp"
#include "dproc/smartpointer/server.hpp"
#include "dproc/workload/linpack.hpp"
#include "workload.hpp"

namespace macro_e2e {
namespace {

namespace sp = dproc::smartpointer;
using dproc::seconds;

constexpr int kStepSlices = 200;
constexpr int kMaxThreads = 9;
constexpr int kSlices = kStepSlices * (kMaxThreads + 1);  // 2000 s per mode
/// Set-up-only rounds (all three modes each) spread over the window, so
/// setup_s is a median of samples taken throughout the run rather than one
/// ~40 ms timing.
constexpr int kExtraSetupRounds = 12;
constexpr int kSetupEvery = kSlices / kExtraSetupRounds;

const char* mode_name(sp::FilterMode mode) {
  switch (mode) {
    case sp::FilterMode::kNone: return "none";
    case sp::FilterMode::kStatic: return "static";
    case sp::FilterMode::kDynamic: return "dynamic";
  }
  return "?";
}

/// One mode's cluster, server and client, set up and warmed to t = 5 s.
/// Members are destroyed client first, engine last.
struct Rig {
  std::unique_ptr<dproc::sim::Engine> engine;
  std::unique_ptr<core::Cluster> cluster;
  std::unique_ptr<sp::Server> server;
  std::unique_ptr<sp::Client> client;
};

Rig set_up(sp::FilterMode mode, std::uint64_t seed, UnitResult& result) {
  const Span setup_span{"setup"};
  const Clock::time_point setup_start = Clock::now();
  Rig rig;
  rig.engine = std::make_unique<dproc::sim::Engine>();
  core::ClusterConfig config;
  config.node_count = 8;
  config.dmon.poll_period = seconds(1.0);
  config.seed = seed;
  config.module_factory = timed_standard_modules(config.link.bandwidth_bps);
  {
    const Span span{"core.build"};
    const Clock::time_point t0 = Clock::now();
    rig.cluster = std::make_unique<core::Cluster>(*rig.engine, config);
    result.build_s += seconds_since(t0);
  }
  result.rss_kb_built = std::max(result.rss_kb_built, rss_kb());
  result.nodes += rig.cluster->size();
  {
    const Span span{"dmon.start"};
    rig.cluster->start_dproc();
  }
  {
    // The stream starts at 3 s plus a seeded phase within one frame
    // interval, so each seed streams a differently aligned frame sequence.
    dproc::Rng rng{seed ^ 0xf19};
    const Span span{"core.warmup"};
    const Clock::time_point t0 = Clock::now();
    rig.engine->run_until(SimTime{} + seconds(3.0 + rng.uniform(0.0, 0.2)));
    result.warmup_s += seconds_since(t0);
  }
  sp::ServerConfig server_config;
  server_config.frame_rate_hz = 5.0;
  server_config.atom_count = 30'000;  // 750 KB full frames
  sp::ClientConfig client_config;
  client_config.mode = mode;
  client_config.static_rep = sp::Representation::kPositionOnly;
  client_config.dmon = rig.cluster->dmon(1);
  {
    const Span span{"sp.connect"};
    rig.server = std::make_unique<sp::Server>(
        rig.cluster->host(0), rig.cluster->nic(0), rig.cluster->dmon(0),
        server_config);
    rig.server->start();
    rig.client = std::make_unique<sp::Client>(
        rig.cluster->host(1), rig.cluster->nic(1), 0, server_config.port,
        client_config);
    rig.client->connect();
  }
  {
    const Span span{"core.warmup"};
    const Clock::time_point t0 = Clock::now();
    rig.engine->run_until(SimTime{} + seconds(5.0));
    result.warmup_s += seconds_since(t0);
  }
  result.setup_s += seconds_since(setup_start);
  return rig;
}

constexpr double kBucketS = 25.0;

struct ModeOutcome {
  std::vector<double> rate_by_threads;  // processed frames/s, 2nd half of step
  /// Mean lag per 25 s bucket of the window; a bucket in which no frame
  /// completed carries the previous bucket's mean (lag is still climbing).
  std::vector<double> lag_by_bucket;
  std::size_t empty_buckets = 0;
  std::uint64_t unprocessed = 0;
};

/// One filter mode's rig and the state of its measured window. Members are
/// destroyed linpack threads first, rig last.
struct ModeRun {
  ModeRun(sp::FilterMode m, Rig r)
      : mode(m), rig(std::move(r)), meter(*rig.cluster) {}
  sp::FilterMode mode;
  Rig rig;
  Meter meter;
  SimTime start;
  std::uint64_t processed_before = 0;
  std::uint64_t attempted = 0;
  std::uint64_t backlog_peak = 0;
  std::vector<std::unique_ptr<dproc::workload::LinpackTask>> threads;
  ModeOutcome outcome;
};

void begin_window(ModeRun& run, UnitResult& result) {
  run.start = run.rig.engine->now();
  result.exact["net.drops_setup"] +=
      static_cast<double>(run.rig.cluster->fabric().stats().drops_total());
  run.processed_before = run.rig.client->frames_processed();
  run.meter.begin();
}

/// Slice `slice` (from 1) of one mode's window.
void step(ModeRun& run, int slice) {
  sp::Client& client = *run.rig.client;
  run.meter.slice({}, {});
  run.backlog_peak = std::max<std::uint64_t>(run.backlog_peak, client.backlog());
  // A frame counts once it has had a full second to be processed.
  if (slice == kSlices - 1) run.attempted = run.rig.server->frames_generated();
  const int in_step = slice % kStepSlices;
  if (in_step == kStepSlices / 2) client.checkpoint();
  if (in_step == 0) {
    run.outcome.rate_by_threads.push_back(client.event_rate_since_checkpoint());
    if (static_cast<int>(run.threads.size()) < kMaxThreads) {
      run.threads.push_back(std::make_unique<dproc::workload::LinpackTask>(
          run.rig.cluster->host(1)));
    }
  }
}

void end_window(ModeRun& run, UnitResult& result) {
  const sp::FilterMode mode = run.mode;
  const sp::Client& client = *run.rig.client;
  ModeOutcome& outcome = run.outcome;
  run.meter.end(result.window);

  const std::uint64_t processed = client.frames_processed();
  outcome.unprocessed = run.attempted - std::min(run.attempted, processed);
  result.exact["sp.frames_processed"] +=
      static_cast<double>(processed - run.processed_before);
  result.exact["sp.backlog_peak"] = std::max(
      result.exact["sp.backlog_peak"], static_cast<double>(run.backlog_peak));
  result.exact[std::string{"sp.unprocessed_"} + mode_name(mode)] =
      static_cast<double>(outcome.unprocessed);

  // Lag per 25 s bucket, as bench/fig9_cpu_loaded_client.cpp reports it.
  // The modeled latency samples are the dynamic mode's only: it is the
  // paper's headline policy and the only mode whose frames count as failed
  // operations; the other modes' lag is Figure 9(a)'s unbounded backlog.
  const auto buckets = static_cast<std::size_t>(kSlices / kBucketS);
  std::vector<double> sum(buckets, 0.0);
  std::vector<std::size_t> n(buckets, 0);
  for (const sp::Client::LagPoint& point : client.lag_series()) {
    const double t = (point.completed_at - run.start).sec();
    if (t < 0.0) continue;
    const auto bucket = static_cast<std::size_t>(t / kBucketS);
    if (bucket >= buckets) continue;
    sum[bucket] += point.lag.sec();
    ++n[bucket];
    if (mode == sp::FilterMode::kDynamic) {
      result.latency_ms.push_back(point.lag.sec() * 1e3);
    }
  }
  double previous = 0.0;
  for (std::size_t b = 0; b < buckets; ++b) {
    if (n[b] == 0) ++outcome.empty_buckets;
    previous = n[b] > 0 ? sum[b] / static_cast<double>(n[b]) : previous;
    outcome.lag_by_bucket.push_back(previous);
  }

  // Operations: every frame generated up to one second before the end of
  // the mode. Only the dynamic mode promises to keep up; the other modes'
  // backlogs are Figure 9(a)'s expected unbounded lag, checked below as
  // decay and reported as sp.unprocessed_<mode>.
  result.attempted += run.attempted;
  if (mode == sp::FilterMode::kDynamic) result.failed += outcome.unprocessed;
}

void check_mode(sp::FilterMode mode, const ModeOutcome& o,
                UnitResult& result) {
  char buf[256];
  auto fail = [&](const char* what) {
    std::snprintf(buf, sizeof buf, "fig9 %s: %s", mode_name(mode), what);
    result.check_failures.emplace_back(buf);
  };
  if (o.rate_by_threads.size() != kMaxThreads + 1) {
    fail("missing load steps");
    return;
  }
  if (mode == sp::FilterMode::kDynamic) {
    for (const double rate : o.rate_by_threads) {
      if (rate < 4.5 || rate > 5.5) fail("rate left 5 +- 0.5 frames/s");
    }
    // EXPERIMENTS.md: the dynamic lag stays at 0.15-0.17 s for the whole
    // run, so every bucket must hold, not just the first and the last.
    if (o.empty_buckets != 0) fail("a 25 s bucket completed no frame");
    for (std::size_t b = 0; b < o.lag_by_bucket.size(); ++b) {
      const double lag = o.lag_by_bucket[b];
      if (lag < 0.10 || lag > 0.25) {
        char what[96];
        std::snprintf(what, sizeof what,
                      "mean lag %.3f s in bucket %zu left 0.10-0.25 s", lag, b);
        fail(what);
      }
    }
    if (o.unprocessed != 0) fail("frames left unprocessed");
  } else {
    // Figure 9(b): the rate decays as linpack threads join; 9(a): the lag
    // grows without bound.
    if (o.rate_by_threads.front() < 4.5) fail("unloaded rate below 4.5/s");
    if (o.rate_by_threads.back() > 0.5 * o.rate_by_threads.front()) {
      fail("rate did not decay");
    }
    if (o.lag_by_bucket.back() < 10.0 * o.lag_by_bucket.front()) {
      fail("lag did not grow");
    }
  }
}

}  // namespace

UnitResult run_fig9_smartpointer(std::uint64_t seed) {
  constexpr sp::FilterMode kModes[] = {
      sp::FilterMode::kNone, sp::FilterMode::kStatic, sp::FilterMode::kDynamic};
  UnitResult result;
  std::vector<ModeRun> runs;
  runs.reserve(std::size(kModes));  // Meter keeps a reference into its rig
  for (const sp::FilterMode mode : kModes) {
    runs.emplace_back(mode, set_up(mode, seed, result));
  }
  result.setup_samples_s.push_back(result.setup_s);
  for (ModeRun& run : runs) begin_window(run, result);
  for (int slice = 1; slice <= kSlices; ++slice) {
    for (ModeRun& run : runs) step(run, slice);
    if (slice % kSetupEvery == 0) {
      UnitResult scratch;
      for (const sp::FilterMode mode : kModes) set_up(mode, seed, scratch);
      result.setup_samples_s.push_back(scratch.setup_s);
    }
  }
  for (ModeRun& run : runs) {
    end_window(run, result);
    const ModeOutcome& outcome = run.outcome;
    check_mode(run.mode, outcome, result);
    const std::string prefix = std::string{"sp."} + mode_name(run.mode);
    for (std::size_t k = 0; k < outcome.rate_by_threads.size(); ++k) {
      result.exact[prefix + ".rate_" + std::to_string(k)] =
          outcome.rate_by_threads[k];
    }
    const auto [lo, hi] = std::minmax_element(outcome.lag_by_bucket.begin(),
                                              outcome.lag_by_bucket.end());
    result.exact[prefix + ".bucket_lag_min_s"] = *lo;
    result.exact[prefix + ".bucket_lag_max_s"] = *hi;
  }
  return result;
}

}  // namespace macro_e2e
