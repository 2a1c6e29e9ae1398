// Flight recorder, health engine, and incident pipeline: the post-mortem
// observability layer end to end.
//
// Coverage, unit to acceptance:
//  * ring semantics — wraparound, oldest-first indexing, drop accounting,
//    render/parse round-trip, and a concurrent-record stress run (the
//    recorder's spinlock exists solely for this);
//  * health engine — incident-trigger dedup folding a sustained signal
//    into one open incident, and the score reacting to failure signals;
//  * the acceptance scenario — an 8-node chaos run (node crash, access
//    partition, registry outage, leader kill) post-mortemed purely from
//    the /proc/dproc/incidents dumps: every disruptive fault must be
//    explained by a recorded symptom after merging the per-node bundles
//    on the shared virtual clock;
//  * SmartPointer trust — the published health score demotes a client's
//    feed before any staleness-SLO violation exists;
//  * composition — every observability feature on at once, on the zone
//    overlay through a crash and a partition, pinned byte for byte; and six
//    rows covering every pair of the ten opt-in switches on the same plan,
//    each pinned and, with liveness on, required to converge.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dproc/core/cluster.hpp"
#include "dproc/host/host.hpp"
#include "dproc/core/health.hpp"
#include "dproc/core/incident.hpp"
#include "dproc/sim/fault.hpp"
#include "dproc/smartpointer/client.hpp"
#include "dproc/smartpointer/server.hpp"
#include "dproc/telemetry/flight.hpp"
#include "dproc/telemetry/telemetry.hpp"
#include "dproc/util/rng.hpp"

namespace dproc {
namespace {

using telemetry::FlightCode;
using telemetry::FlightEvent;
using telemetry::FlightRecorder;
using telemetry::FlightSubsystem;
using telemetry::Severity;

SimTime at(double sec) { return SimTime::zero() + seconds(sec); }

// --- ring semantics ---------------------------------------------------------

TEST(FlightRing, DisabledByDefaultRecordsNothing) {
  FlightRecorder rec;
  rec.record(Severity::kInfo, FlightSubsystem::kKecho, FlightCode::kMemberJoin,
             1);
  EXPECT_FALSE(rec.enabled());
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.dropped(), 0u);
  EXPECT_TRUE(rec.render().empty());
}

TEST(FlightRing, WraparoundKeepsNewestOldestFirst) {
  FlightRecorder rec;
  rec.configure(8);
  rec.set_enabled(true);
  for (std::uint64_t i = 0; i < 20; ++i) {
    rec.record(Severity::kInfo, FlightSubsystem::kDmon, FlightCode::kPeerLive,
               i);
  }
  EXPECT_EQ(rec.size(), 8u);
  EXPECT_EQ(rec.capacity(), 8u);
  EXPECT_EQ(rec.dropped(), 12u);
  for (std::size_t i = 0; i < rec.size(); ++i) {
    EXPECT_EQ(rec.event(i).args[0], 12u + i) << "slot " << i;
  }
  rec.clear();
  EXPECT_EQ(rec.size(), 0u);
}

TEST(FlightRing, RenderParseRoundTrip) {
  FlightRecorder rec;
  rec.configure(4);
  rec.set_enabled(true);
  rec.record(Severity::kWarn, FlightSubsystem::kDmon, FlightCode::kPeerStale,
             3, 4200, 0, 0, 0xdeadbeef);
  rec.record(Severity::kError, FlightSubsystem::kFault,
             FlightCode::kFaultInjected, 0, 6, 500000, UINT64_MAX);

  std::vector<FlightEvent> events;
  std::istringstream in(rec.render());
  std::string line;
  while (std::getline(in, line)) {
    FlightEvent e;
    ASSERT_TRUE(telemetry::parse_event(line, e)) << line;
    events.push_back(e);
  }
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].severity, Severity::kWarn);
  EXPECT_EQ(events[0].subsystem, FlightSubsystem::kDmon);
  EXPECT_EQ(events[0].code, FlightCode::kPeerStale);
  EXPECT_EQ(events[0].args[1], 4200u);
  EXPECT_EQ(events[0].trace_id, 0xdeadbeefu);
  EXPECT_EQ(events[1].code, FlightCode::kFaultInjected);
  EXPECT_EQ(events[1].args[3], UINT64_MAX);
  // Round-trip is a fixed point: rendering the parsed event reproduces the
  // line byte for byte.
  EXPECT_EQ(telemetry::render_event(events[0]) + "\n" +
                telemetry::render_event(events[1]) + "\n",
            rec.render());
}

TEST(FlightRing, ConcurrentRecordStress) {
  FlightRecorder rec;
  rec.configure(256);
  rec.set_enabled(true);
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 10'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rec, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        rec.record(Severity::kInfo, FlightSubsystem::kDmon,
                   FlightCode::kPeerLive, static_cast<std::uint64_t>(t), i);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  // Nothing lost silently: every record either landed or was counted as an
  // overwrite, and every retained slot is a coherent event.
  EXPECT_EQ(rec.size(), 256u);
  EXPECT_EQ(rec.size() + rec.dropped(), kThreads * kPerThread);
  for (std::size_t i = 0; i < rec.size(); ++i) {
    const FlightEvent& e = rec.event(i);
    EXPECT_EQ(e.code, FlightCode::kPeerLive);
    EXPECT_LT(e.args[0], static_cast<std::uint64_t>(kThreads));
    EXPECT_LT(e.args[1], kPerThread);
  }
}

// --- health engine ----------------------------------------------------------

struct HealthHarness {
  HealthHarness() : host(engine, 0, host::HostConfig{}, Rng{42}.split()) {
    host.telemetry().set_enabled(true);
    host.flight().configure(64);
    host.flight().set_enabled(true);
  }
  sim::Engine engine;
  host::Host host;
};

TEST(HealthEngine, SustainedTriggerDedupsIntoOneIncident) {
  HealthHarness h;
  core::HealthConfig config;
  config.enabled = true;
  config.dedup_window = seconds(2.0);
  core::HealthEngine health{h.host, &h.host.flight(), config};
  telemetry::Counter& evictions =
      h.host.telemetry().counter("kecho", "evictions");

  evictions.add();
  health.on_poll({}, at(1.0));
  EXPECT_EQ(health.incidents_opened(), 1u);

  // The signal persists across the next polls: absorbed as symptoms, not
  // new incidents.
  evictions.add();
  health.on_poll({}, at(2.0));
  evictions.add();
  health.on_poll({}, at(3.0));
  EXPECT_EQ(health.incidents_opened(), 1u);
  EXPECT_GE(health.triggers_deduped(), 2u);
  ASSERT_EQ(health.incidents().size(), 1u);
  EXPECT_GE(health.incidents()[0].symptoms, 2u);

  // Past the dedup window a fresh trigger opens a fresh incident.
  evictions.add();
  health.on_poll({}, at(7.0));
  EXPECT_EQ(health.incidents_opened(), 2u);

  // Bundles render and parse back losslessly (count, trigger, events).
  std::vector<core::IncidentBundle> parsed;
  ASSERT_TRUE(core::parse_bundles(health.render_incidents(), parsed));
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].trigger, "kecho/evictions");
  EXPECT_EQ(parsed[0].symptoms, health.incidents()[0].symptoms);
  EXPECT_FALSE(parsed[0].events.empty());
}

TEST(HealthEngine, ScoreFallsWithFailureSignalsAndRecovers) {
  HealthHarness h;
  core::HealthConfig config;
  config.enabled = true;
  config.score_window = 2;
  core::HealthEngine health{h.host, &h.host.flight(), config};
  EXPECT_EQ(health.score(), 100.0);
  EXPECT_TRUE(health.trusted());

  // Drops (the whole 1-poll window active) plus one third of peers stale:
  // 20 + 10 penalty.
  h.host.telemetry().counter("net", "drops").add(5);
  health.on_poll({.peers_total = 3, .peers_stale = 1}, at(1.0));
  EXPECT_NEAR(health.score(), 100.0 - 20.0 - 30.0 / 3.0, 1e-9);
  EXPECT_TRUE(health.trusted());

  // Clean polls age the counter signal out of the 2-poll score window:
  // half-active first, then gone.
  health.on_poll({.peers_total = 3}, at(2.0));
  EXPECT_NEAR(health.score(), 100.0 - 20.0 * 0.5, 1e-9);
  health.on_poll({.peers_total = 3}, at(3.0));
  health.on_poll({.peers_total = 3}, at(4.0));
  EXPECT_EQ(health.score(), 100.0);

  // The score history ring saw the dip.
  const core::MetricHistory* hist = health.history("health/score");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->size(), 4u);
  EXPECT_LT(hist->at(0), 100.0);
  EXPECT_EQ(hist->at(3), 100.0);
}

// --- acceptance: chaos post-mortem from incident dumps ----------------------

core::ClusterConfig chaos_config() {
  core::ClusterConfig config;
  config.node_count = 8;
  config.liveness.enabled = true;
  config.liveness.heartbeat_period = seconds(1.0);
  config.liveness.miss_threshold = 5;
  config.dmon.stale_after_periods = 3;
  config.registry.enabled = true;
  config.registry.replicas = 3;
  config.flight.enabled = true;
  config.health.enabled = true;
  return config;
}

TEST(FlightChaos, IncidentDumpsReconstructTheFaultPlan) {
  sim::Engine engine;
  core::Cluster cluster{engine, chaos_config()};
  cluster.start_dproc();

  sim::FaultPlan plan;
  plan.crash_node(at(5.0), 6)
      .restart_node(at(20.0), 6)
      .partition_link(at(8.0), cluster.uplink(5))
      .heal_link(at(14.0), cluster.uplink(5))
      .registry_outage(at(10.0), at(16.0))
      .kill_registry_leader(at(25.0));
  cluster.inject(plan);
  engine.run_until(at(45.0));

  // Post-mortem purely from the per-node procfs dumps, the operator path.
  std::vector<core::IncidentBundle> bundles;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    auto dump = cluster.procfs(i).read("/proc/dproc/incidents");
    ASSERT_TRUE(dump.is_ok()) << "node " << i;
    ASSERT_TRUE(core::parse_bundles(dump.value(), bundles)) << "node " << i;
  }
  ASSERT_FALSE(bundles.empty());

  const auto timeline = core::merge_timeline(bundles);
  const auto findings = core::align_faults(timeline);

  // All 7 injected faults appear exactly once in the merged timeline (the
  // cluster-wide ground-truth broadcast dedups), and every disruptive one
  // has a recorded symptom after it.
  ASSERT_EQ(findings.size(), 7u);
  EXPECT_TRUE(core::faults_recovered(findings));
  std::set<sim::FaultKind> kinds;
  for (const core::FaultFinding& f : findings) {
    kinds.insert(static_cast<sim::FaultKind>(f.fault.args[0]));
    if (!f.disruptive) continue;
    // >= not >: a registry outage records its symptom synchronously at the
    // fault instant (the replica's outage handler runs inline).
    EXPECT_GE(f.symptom.ts_ns, f.fault.ts_ns)
        << sim::to_string(static_cast<sim::FaultKind>(f.fault.args[0]));
  }
  for (sim::FaultKind kind :
       {sim::FaultKind::kNodeCrash, sim::FaultKind::kLinkDown,
        sim::FaultKind::kRegistryDown, sim::FaultKind::kRegistryLeaderKill}) {
    EXPECT_TRUE(kinds.contains(kind)) << sim::to_string(kind);
  }

  // First symptom of the crash is correctly attributed: a liveness
  // transition (or eviction) of the crashed node, not of a bystander.
  for (const core::FaultFinding& f : findings) {
    if (static_cast<sim::FaultKind>(f.fault.args[0]) !=
        sim::FaultKind::kNodeCrash) {
      continue;
    }
    ASSERT_TRUE(f.observed);
    EXPECT_EQ(f.symptom.args[0], f.fault.args[1]);
  }

  // Merged timestamps are monotone — the shared virtual clock IS the
  // causal order, no reconciliation pass needed.
  for (std::size_t i = 1; i < timeline.size(); ++i) {
    EXPECT_LE(timeline[i - 1].event.ts_ns, timeline[i].event.ts_ns);
  }

  // The machine-readable report agrees.
  const std::string json = core::timeline_json(timeline, findings);
  EXPECT_NE(json.find("\"recovered\": true"), std::string::npos);
  EXPECT_NE(json.find("node_crash"), std::string::npos);
}

TEST(FlightChaos, HealthScoreIsPublishedClusterWide) {
  sim::Engine engine;
  core::Cluster cluster{engine, chaos_config()};
  cluster.start_dproc();
  sim::FaultPlan plan;
  plan.crash_node(at(5.0), 6);
  cluster.inject(plan);
  engine.run_until(at(12.0));

  // Survivors saw churn: their own engines dipped below 100 and published
  // the score on the monitoring channel like any other metric.
  const core::HealthEngine* health = cluster.dmon(0)->health_engine();
  ASSERT_NE(health, nullptr);
  EXPECT_LT(health->score(), 100.0);
  const core::RemoteMetric* remote =
      cluster.dmon(0)->remote_metric(cluster.nic(1).node(),
                                     "dproc_health_score");
  ASSERT_NE(remote, nullptr);
  EXPECT_LT(remote->value, 100.0);
  EXPECT_GE(remote->value, 0.0);

  // And the procfs surface renders both views.
  auto local = cluster.procfs(0).read("/proc/dproc/health");
  ASSERT_TRUE(local.is_ok());
  EXPECT_NE(local.value().find("score"), std::string::npos);
  auto fleet = cluster.procfs(0).read("/proc/cluster/health");
  ASSERT_TRUE(fleet.is_ok());
  EXPECT_NE(fleet.value().find("node1"), std::string::npos);
}

// --- SmartPointer trust: health demotes before the SLO fires ----------------

TEST(FlightChaos, HealthScoreDemotesFeedBeforeSloFires) {
  using namespace smartpointer;
  sim::Engine engine;
  core::ClusterConfig config;
  config.node_count = 4;
  config.liveness.enabled = true;
  config.liveness.heartbeat_period = seconds(1.0);
  config.liveness.miss_threshold = 5;
  config.dmon.stale_after_periods = 3;
  config.flight.enabled = true;
  config.health.enabled = true;
  // Trust bar high enough that bystander churn (a third node crashing)
  // pushes the client below it.
  config.health.trust_threshold = 80.0;
  // A staleness SLO so generous it never fires: any distrust must come
  // from the health score, not the per-sample watchdog.
  config.trace.enabled = true;
  config.trace.channel_slo.emplace_back(config.dmon.monitor_channel,
                                        seconds(10.0));
  core::Cluster cluster{engine, config};
  cluster.start_dproc();

  Server server{cluster.host(0), cluster.nic(0), cluster.dmon(0),
                ServerConfig{}};
  server.start();
  ClientConfig client_config;
  client_config.mode = FilterMode::kDynamic;
  Client client{cluster.host(1), cluster.nic(1), 0, 9000, client_config};
  client.connect();

  sim::FaultPlan plan;
  plan.crash_node(at(5.0), 3);
  cluster.inject(plan);
  // Stop mid-churn: the eviction and drop signals are inside every score
  // window, so node 1's published score sits below the trust bar.
  engine.run_until(at(12.0));

  // No SLO violation anywhere, and node 1's own feed is live — yet its
  // published health score (dragged down by the node-3 churn it watched)
  // demoted the stream.
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    if (i == 3) continue;
    EXPECT_EQ(cluster.dmon(i)->slo_violations(), 0u) << "node " << i;
  }
  EXPECT_FALSE(cluster.dmon(0)->peer_health_ok(cluster.nic(1).node()));
  const Server::ClientState* state = server.client(cluster.nic(1).node());
  ASSERT_NE(state, nullptr);
  EXPECT_GT(state->health_distrusts, 0u);
  EXPECT_EQ(state->slo_distrusts, 0u);
  EXPECT_EQ(state->stale_fallbacks, 0u);
  EXPECT_EQ(state->last_rep, ServerConfig{}.stale_fallback_rep);

  // The decision is in the flight record for the post-mortem.
  bool trust_drop = false;
  const telemetry::FlightRecorder& flight = cluster.host(0).flight();
  for (std::size_t i = 0; i < flight.size(); ++i) {
    const FlightEvent& e = flight.event(i);
    if (e.code == FlightCode::kTrustDrop && e.args[1] == 2) trust_drop = true;
  }
  EXPECT_TRUE(trust_drop);
}


// --- every observability feature composed -----------------------------------

/// FNV-1a, as in trace_golden_test; strings are length-prefixed.
struct Fingerprint {
  std::uint64_t h = 1469598103934665603ull;

  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  void str(const std::string& s) {
    u64(s.size());
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
  }
};

/// The ten opt-in switches of ClusterConfig, one row of a feature matrix.
struct FeatureRow {
  bool liveness;
  bool registry;
  bool self_monitor;
  bool trace;
  bool batch;
  bool adapt;
  bool hierarchy;
  bool flight;
  bool health;
  bool sketch;
};

/// 16 nodes with the switches `row` turns on. Enabled features take the
/// composed run's sub-settings: zones of 4 with fanout 4 and node 15 as the
/// only summary subscriber, batching with exact-value delta suppression,
/// tracing with a 2 s SLO, a 3-replica registry and liveness with join
/// retries.
core::ClusterConfig feature_config(const FeatureRow& row) {
  core::ClusterConfig config;
  config.node_count = 16;
  if (row.hierarchy) {
    config.hierarchy.enabled = true;
    config.hierarchy.zone_size = 4;
    config.hierarchy.fanout = 4;
    config.hierarchy.subscribers = std::vector<std::size_t>{15};
  }
  if (row.batch) {
    config.batch.enabled = true;
    config.batch.delta_epsilon = 0.0;
  }
  if (row.trace) {
    config.trace.enabled = true;
    config.trace.default_slo = seconds(2.0);
  }
  config.self_monitor = row.self_monitor;
  config.adapt.enabled = row.adapt;
  config.flight.enabled = row.flight;
  config.health.enabled = row.health;
  config.sketch.enabled = row.sketch;
  if (row.registry) {
    config.registry.enabled = true;
    config.registry.replicas = 3;
  }
  if (row.liveness) {
    config.liveness.enabled = true;
    config.liveness.join_retries = true;
  }
  return config;
}

/// Every feature on (health implies self-monitoring either way).
constexpr FeatureRow kEveryFeature{true, true, true, true, true,
                                   true, true, true, true, true};

/// Runs `config` through the composed fault plan — crash node 5 at 10 s and
/// restart it at 15 s, partition uplink(9) from 12 s to 14 s — to 30 s, then
/// hands the cluster to `inspect`.
template <typename Inspect>
void run_fault_plan(const core::ClusterConfig& config, Inspect&& inspect) {
  sim::Engine engine;
  core::Cluster cluster{engine, config};
  cluster.start_dproc();
  sim::FaultPlan plan;
  plan.crash_node(at(10.0), 5)
      .restart_node(at(15.0), 5)
      .partition_link(at(12.0), cluster.uplink(9))
      .heal_link(at(14.0), cluster.uplink(9));
  cluster.inject(plan);
  engine.run_until(at(30.0));
  inspect(cluster);
}

struct ComposedRun {
  std::uint64_t hash = 0;
  std::size_t spans = 0;
  std::size_t hops = 0;
  std::size_t flight_events = 0;
};

/// Fingerprints every host's span and hop rings (all fields, oldest first)
/// plus its observability procfs files.
ComposedRun fingerprint_observability(core::Cluster& cluster, Fingerprint& fp) {
  ComposedRun run;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    const telemetry::Registry& tm = cluster.host(i).telemetry();
    tm.spans().for_each([&fp](const telemetry::Span& span) {
      fp.str(span.category);
      fp.str(span.name);
      fp.u64(static_cast<std::uint64_t>(span.start_ns));
      fp.u64(static_cast<std::uint64_t>(span.end_ns));
    });
    tm.hops().for_each([&fp](const telemetry::Hop& hop) {
      fp.u64(hop.trace_id);
      fp.u64(hop.origin);
      fp.u64(hop.channel);
      fp.u64(static_cast<std::uint64_t>(hop.stage));
      fp.u64(static_cast<std::uint64_t>(hop.ts_ns));
      fp.u64(static_cast<std::uint64_t>(hop.dur_ns));
    });
    run.spans += tm.spans().size();
    run.hops += tm.hops().size();
    run.flight_events += cluster.host(i).flight().size();
    for (const char* path :
         {"/proc/dproc/flight", "/proc/dproc/trace", "/proc/dproc/telemetry",
          "/proc/dproc/health", "/proc/dproc/incidents"}) {
      auto text = cluster.procfs(i).read(path);
      fp.str(path);
      fp.str(text.is_ok() ? text.value() : std::string{"<unreadable>"});
    }
  }
  run.hash = fp.h;
  return run;
}

/// Runs the every-feature cluster on the zone overlay through the fault
/// plan and fingerprints its observability state.
ComposedRun run_composed() {
  ComposedRun run;
  run_fault_plan(feature_config(kEveryFeature), [&run](core::Cluster& cluster) {
    Fingerprint fp;
    run = fingerprint_observability(cluster, fp);
  });
  return run;
}

// Recorded from the hand-rolled ring implementations this test was written
// against: a change to how any ring stores, orders or drops records, or to
// what the composed features record, changes this hash.
constexpr std::uint64_t kComposedGoldenHash = 0x1f5a6c1252b8b123ull;

TEST(FlightChaos, EveryFeatureComposedIsDeterministicAndPinned) {
  const ComposedRun first = run_composed();
  const ComposedRun second = run_composed();
  // The run is non-trivial: every ring saw traffic through the faults.
  EXPECT_GT(first.spans, 0u);
  EXPECT_GT(first.hops, 0u);
  EXPECT_GT(first.flight_events, 0u);
  EXPECT_EQ(first.hash, second.hash) << "composed run is not deterministic";
  EXPECT_EQ(first.hash, kComposedGoldenHash)
      << "composed hash 0x" << std::hex << first.hash
      << " diverged from the recorded one";
}

// --- pairwise composition ---------------------------------------------------

/// Six rows covering every pair of the ten switches (each pair of features
/// appears on, off, and in both mixed states in at least one row).
constexpr FeatureRow kPairwiseRows[] = {
    // liveness registry self_mon trace batch adapt hier flight health sketch
    {false, false, false, false, false, false, false, false, false, false},
    {true, true, true, true, true, true, false, false, false, false},
    {true, true, true, false, false, false, true, true, true, false},
    {true, false, false, true, true, false, true, true, false, true},
    {false, true, false, true, false, true, true, false, true, true},
    {false, false, true, false, true, true, false, true, true, true},
};

// Recorded before the d-mon/overlay split: a change to what any feature
// combination publishes, renders or records changes these hashes.
constexpr std::uint64_t kPairwiseGoldenHashes[] = {
    0xba071ffd089e589full, 0xc069bdde81d0f74aull, 0x92fc6b1c64505d17ull,
    0x879ee3ffbbd5ea23ull, 0xbae75c8183f032eeull, 0xc56606bbf0826a5cull,
};

struct PairwiseRun {
  std::uint64_t hash = 0;
  bool converged = false;
};

/// The composed fingerprint plus /proc/dproc/{status,hierarchy}, every
/// d-mon's valid remote metrics and the subscriber's summary entries.
/// `converged`: flat, every node sees every other node live; overlay, the
/// subscriber's summary counts all 16 nodes on every entry.
PairwiseRun run_pairwise(const FeatureRow& row) {
  PairwiseRun run;
  run_fault_plan(feature_config(row), [&run, &row](core::Cluster& cluster) {
    Fingerprint fp;
    (void)fingerprint_observability(cluster, fp);
    run.converged = true;
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      for (const char* path : {"/proc/dproc/status", "/proc/dproc/hierarchy"}) {
        auto text = cluster.procfs(i).read(path);
        fp.str(path);
        fp.str(text.is_ok() ? text.value() : std::string{"<unreadable>"});
      }
      const core::DMon& dmon = *cluster.dmon(i);
      const std::size_t metrics = dmon.metric_table().size();
      dmon.for_each_peer([&](net::NodeId node, const std::string&) {
        for (core::MetricId id = 0; id < metrics; ++id) {
          const core::RemoteMetric* m = dmon.remote_metric(node, id);
          if (m == nullptr) continue;
          fp.u64(node);
          fp.u64(id);
          fp.u64(std::bit_cast<std::uint64_t>(m->value));
          fp.u64(static_cast<std::uint64_t>(m->sampled_at.ns()));
        }
      });
      if (!row.hierarchy) {
        for (std::size_t j = 0; j < cluster.size(); ++j) {
          if (j != i && dmon.peer_state(static_cast<net::NodeId>(j)) !=
                            core::PeerState::kLive) {
            run.converged = false;
          }
        }
      }
    }
    const net::AggregateBatch* summary = cluster.dmon(15)->cluster_summary();
    if (row.hierarchy && (summary == nullptr || summary->entries.empty())) {
      run.converged = false;
    }
    if (summary != nullptr) {
      fp.u64(summary->flags);
      fp.u64(summary->tier);
      fp.u64(summary->zone);
      for (const net::AggregateBatch::Entry& e : summary->entries) {
        fp.u64(e.id);
        fp.u64(e.count);
        fp.u64(static_cast<std::uint64_t>(e.latest_ns));
        fp.u64(std::bit_cast<std::uint64_t>(e.min));
        fp.u64(std::bit_cast<std::uint64_t>(e.max));
        fp.u64(std::bit_cast<std::uint64_t>(e.sum));
        for (const net::AggregateBatch::Top& top : e.top) {
          fp.u64(top.node);
          fp.u64(std::bit_cast<std::uint64_t>(top.value));
        }
        if (e.count != cluster.size()) run.converged = false;
      }
    }
    run.hash = fp.h;
  });
  return run;
}

TEST(FlightChaos, PairwiseFeatureRowsAreDeterministicAndPinned) {
  for (std::size_t r = 0; r < std::size(kPairwiseRows); ++r) {
    const FeatureRow& row = kPairwiseRows[r];
    const PairwiseRun first = run_pairwise(row);
    const PairwiseRun second = run_pairwise(row);
    EXPECT_EQ(first.hash, second.hash) << "row " << r << " not deterministic";
    EXPECT_EQ(first.hash, kPairwiseGoldenHashes[r])
        << "row " << r << " hash 0x" << std::hex << first.hash
        << " diverged from the recorded one";
    // Without liveness the stack is failure-unaware by design: a restarted
    // node may keep a silent peer stale, so only liveness rows must heal.
    if (row.liveness) {
      EXPECT_TRUE(first.converged) << "row " << r << " did not converge";
    }
  }
}

}  // namespace
}  // namespace dproc
