// Cluster health engine: per-metric history rings, a per-node health score,
// and triggered incident bundles for post-mortem debugging.
//
// The flight recorder (telemetry/flight.hpp) answers *what happened*; the
// health engine answers *how bad is it right now* and decides *when to
// snapshot*. Each poll it reads a small set of failure-signal counters from
// the host's telemetry registry (network drops, staleness-SLO violations,
// collect errors, evictions, registry failovers), pushes the windowed
// deltas into fixed-depth history rings, folds them with the peer-staleness
// census into a 0-100 score, and runs ACME-style watchdog rules (counter
// delta >= threshold over a window) that open incident bundles — each a
// frozen copy of the flight ring plus the history rings at the moment the
// rule tripped, dumpable via /proc/dproc/incidents and mergeable across
// nodes by tools/incident_report.
//
// Everything is off by default (HealthConfig::enabled = false): no engine
// is built, no procfs file registered, no counter resolved — the golden
// trace and the baseline benchmarks stay byte-identical.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dproc/core/incident.hpp"
#include "dproc/telemetry/flight.hpp"
#include "dproc/util/ring_buffer.hpp"
#include "dproc/util/time.hpp"

namespace dproc::host {
class Host;
}  // namespace dproc::host

namespace dproc::telemetry {
class Counter;
class Gauge;
}  // namespace dproc::telemetry

namespace dproc::core {

/// One ACME-style watchdog rule: trips when the named series accumulates at
/// least `min_delta` over its newest `window` polls. Series names are the
/// engine's tracked telemetry series ("kecho/evictions", ...).
struct WatchdogRule {
  std::string series;
  double min_delta = 1.0;
  int window = 1;
};

/// Health-engine knobs. Disabled by default: no engine, no score, no
/// incidents — byte-identical golden trace. Enabling it implies
/// self-monitoring at the cluster builder (the score is computed from
/// telemetry counters and published through DPROC_MON).
struct HealthConfig {
  bool enabled = false;
  /// Newest polls folded into the score (failure signals age out of the
  /// score after this many clean polls).
  int score_window = 4;
  /// Consumers (SmartPointer) distrust a peer whose published score is
  /// below this.
  double trust_threshold = 60.0;
  /// A trigger landing within this window of the last open incident is
  /// absorbed as a symptom of it instead of opening a duplicate.
  SimDuration dedup_window = seconds(2.0);
};

/// The last K windowed deltas of one series, allocated when the engine is
/// built; push() never allocates.
using MetricHistory = RingBuffer<double>;

/// Peer-staleness census d-mon hands the engine each poll.
struct HealthSnapshot {
  std::size_t peers_total = 0;
  std::size_t peers_stale = 0;
  std::size_t peers_dead = 0;
};

class HealthEngine {
 public:
  HealthEngine(host::Host& host, telemetry::FlightRecorder* flight,
               HealthConfig config);
  HealthEngine(const HealthEngine&) = delete;
  HealthEngine& operator=(const HealthEngine&) = delete;

  /// Identity stamped into incident bundles (the cluster builder's node
  /// index and name).
  void set_node(std::uint32_t node, std::string name);

  /// One engine round, driven from d-mon's poll: reads the counters,
  /// pushes windowed deltas, recomputes the score, runs the watchdogs.
  void on_poll(const HealthSnapshot& snapshot, SimTime now);

  [[nodiscard]] double score() const { return score_; }
  [[nodiscard]] bool trusted() const {
    return score_ >= config_.trust_threshold;
  }
  [[nodiscard]] const HealthConfig& config() const { return config_; }

  [[nodiscard]] const std::vector<IncidentBundle>& incidents() const {
    return incidents_;
  }
  /// Incidents opened since construction (monotone; unlike incidents_,
  /// never truncated by the capacity cap).
  [[nodiscard]] std::uint64_t incidents_opened() const { return opened_; }
  /// Triggers absorbed into an already-open incident (dedup hits).
  [[nodiscard]] std::uint64_t triggers_deduped() const { return deduped_; }

  /// Tracked series names, in score order (stable across polls).
  [[nodiscard]] const std::vector<std::string>& series_names() const;
  [[nodiscard]] const MetricHistory* history(const std::string& series) const;

  /// Renders /proc/dproc/health (score, per-series window state).
  [[nodiscard]] std::string render() const;
  /// Renders /proc/dproc/incidents (render_bundles format).
  [[nodiscard]] std::string render_incidents() const;

 private:
  struct Series {
    std::string name;
    const telemetry::Counter* counter = nullptr;  // null: pushed directly
    std::uint64_t last_value = 0;
    MetricHistory history;
  };

  [[nodiscard]] Series* find_series(const std::string& name);
  void open_incident(const std::string& trigger, SimTime now);

  host::Host& host_;
  telemetry::FlightRecorder* flight_;
  HealthConfig config_;
  std::uint32_t node_ = 0;
  std::string node_name_;

  std::vector<Series> series_;
  std::vector<std::string> series_names_;
  std::vector<WatchdogRule> rules_;

  double score_ = 100.0;
  bool degraded_ = false;  // below trust threshold (flight-edge tracking)
  HealthSnapshot last_snapshot_{};

  std::vector<IncidentBundle> incidents_;
  std::uint64_t opened_ = 0;
  std::uint64_t deduped_ = 0;
  std::int64_t last_open_ns_ = -1;

  telemetry::Gauge& tm_score_;
  telemetry::Counter& tm_incidents_;
  std::vector<telemetry::FlightEvent> snapshot_scratch_;
};

}  // namespace dproc::core
