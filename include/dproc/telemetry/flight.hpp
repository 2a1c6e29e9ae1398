// Flight recorder: a per-host, fixed-capacity, allocation-free ring of
// structured events — the post-mortem complement to the metric layer.
//
// Counters say *how much*; the flight recorder says *what happened, when,
// in what order*. Every kernel service records the state transitions that
// matter for debugging a distributed incident (membership churn, leader
// elections, peers going stale, SLO breaches, adaptation clamps) plus the
// fault injector's ground truth, all stamped on the virtual clock. Because
// the simulator shares one global clock, timestamps merged across nodes
// ARE the causal order, so tools/incident_report can reconstruct a
// cluster-wide timeline from per-node dumps.
//
// Disabled (the default) record() is a single relaxed atomic load and a
// branch: no allocation, no locking, no simulated cost — the golden trace
// is untouched. Enabled, record() takes a short spinlock and writes one
// fixed-size slot; the ring is allocated by configure(), so recording
// never allocates. The lock exists only for the concurrent-stress test
// harness — the simulator itself is single-threaded.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "dproc/util/ring_buffer.hpp"

namespace dproc::sim {
class Engine;
}  // namespace dproc::sim

namespace dproc::telemetry {

/// Cluster-level flight recorder knobs. Disabled by default: recorders stay
/// unconfigured and unenabled, so record points are branch-only and the
/// golden trace is byte-identical.
struct FlightConfig {
  bool enabled = false;
};

enum class Severity : std::uint8_t {
  kDebug = 0,
  kInfo = 1,
  kWarn = 2,
  kError = 3,
};
[[nodiscard]] const char* to_string(Severity severity);

/// Which kernel service recorded the event.
enum class FlightSubsystem : std::uint8_t {
  kKecho = 0,
  kRegistry = 1,
  kDmon = 2,
  kAdapt = 3,
  kFault = 4,
  kHealth = 5,
  kSmartPointer = 6,
};
[[nodiscard]] const char* to_string(FlightSubsystem subsystem);

/// Structured event codes, blocked per subsystem so dumps stay greppable
/// and the incident tool can pattern-match without string parsing.
enum class FlightCode : std::uint16_t {
  // kecho membership
  kMemberJoin = 1,    // args: {node}
  kMemberLeave = 2,   // args: {node}
  kMemberEvict = 3,   // args: {node, missed_heartbeats}
  // registry replica set
  kLeaderElected = 100,   // args: {replica, epoch}
  kLeaseExpired = 101,    // args: {replica}
  kSyncApplied = 102,     // args: {replica, entries}
  kRegistryOutage = 103,  // args: {replica}
  kRegistryOnline = 104,  // args: {replica}
  // d-mon peer liveness / collection
  kPeerLive = 200,       // args: {node}
  kPeerStale = 201,      // args: {node, age_ms}
  kPeerDead = 202,       // args: {node, age_ms}
  kCollectError = 203,   // args: {module_index}
  kSloViolation = 204,   // args: {node, age_ms, slo_ms}
  // adaptation controller
  kAdaptRound = 300,  // args: {round, changed}
  kAdaptClamp = 301,  // args: {clamps, overhead_ppm}
  // fault-injector ground truth
  kFaultInjected = 400,  // args: {fault_kind, target, param_ppm, node}
  // health engine
  kHealthDegraded = 500,   // args: {score}
  kHealthRecovered = 501,  // args: {score}
  kIncidentOpened = 502,   // args: {incident_id, trigger_code}
  kWatchdogTrip = 503,     // args: {rule_index, delta}
  // SmartPointer trust decisions
  kTrustDrop = 600,  // args: {node, reason}
};
[[nodiscard]] const char* to_string(FlightCode code);

/// One recorded event. Fixed-size POD so the ring is a flat array; up to
/// four uint64 arguments carry the code-specific payload (see the comments
/// on FlightCode) and trace_id optionally links the event to a PR-4 causal
/// trace.
struct FlightEvent {
  std::int64_t ts_ns = 0;
  std::uint64_t trace_id = 0;
  std::uint64_t args[4] = {0, 0, 0, 0};
  FlightCode code = FlightCode::kMemberJoin;
  Severity severity = Severity::kInfo;
  FlightSubsystem subsystem = FlightSubsystem::kKecho;
};

/// The per-host recorder. Owned by host::Host next to the telemetry
/// Registry; services receive a pointer and call record() at transition
/// points. Oldest events are overwritten when the ring is full (dropped()
/// counts the overwrites) — for post-mortems the most recent history wins.
class FlightRecorder {
 public:
  explicit FlightRecorder(const sim::Engine* clock = nullptr)
      : clock_(clock) {}
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Allocates the ring. Recording stays a no-op until both configure()
  /// and set_enabled(true) have run; reconfiguring clears retained events.
  void configure(std::size_t capacity);
  void set_enabled(bool enabled) {
    enabled_.store(enabled && ring_.capacity() > 0,
                   std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Records one event, stamped on the virtual clock. Disabled: one relaxed
  /// load and a branch. Enabled: spinlock + slot write, no allocation.
  void record(Severity severity, FlightSubsystem subsystem, FlightCode code,
              std::uint64_t a0 = 0, std::uint64_t a1 = 0, std::uint64_t a2 = 0,
              std::uint64_t a3 = 0, std::uint64_t trace_id = 0);

  [[nodiscard]] std::size_t size() const { return ring_.size(); }
  /// 0 until configure() has run.
  [[nodiscard]] std::size_t capacity() const { return ring_.capacity(); }
  [[nodiscard]] std::uint64_t dropped() const { return ring_.dropped(); }
  /// Event i counted from the oldest retained (0 == oldest).
  [[nodiscard]] const FlightEvent& event(std::size_t i) const {
    return ring_.at(i);
  }
  void clear();

  /// Copies the retained events, oldest first, into `out` (appended).
  void snapshot(std::vector<FlightEvent>& out) const;

  /// Text dump, one event per line:
  ///   flight <ts_ns> <severity> <subsystem> <code> <a0> <a1> <a2> <a3>
  ///   [trace=<hex>]
  /// — the format tools/incident_report parses back.
  [[nodiscard]] std::string render() const;

 private:
  const sim::Engine* clock_;
  std::atomic<bool> enabled_{false};
  mutable std::atomic_flag lock_ = ATOMIC_FLAG_INIT;
  RingBuffer<FlightEvent> ring_;  // unsized until configure()
};

/// Renders one event in the dump line format (no trailing newline).
[[nodiscard]] std::string render_event(const FlightEvent& event);

/// Parses one dump line produced by render_event/render; returns false on
/// anything that is not a well-formed "flight ..." line.
[[nodiscard]] bool parse_event(const std::string& line, FlightEvent& out);

}  // namespace dproc::telemetry
