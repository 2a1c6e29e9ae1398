#include "dproc/telemetry/flight.hpp"

#include <cstdio>
#include <cstring>
#include <sstream>

#include "dproc/sim/engine.hpp"

namespace dproc::telemetry {

const char* to_string(Severity severity) {
  switch (severity) {
    case Severity::kDebug: return "debug";
    case Severity::kInfo: return "info";
    case Severity::kWarn: return "warn";
    case Severity::kError: return "error";
  }
  return "?";
}

const char* to_string(FlightSubsystem subsystem) {
  switch (subsystem) {
    case FlightSubsystem::kKecho: return "kecho";
    case FlightSubsystem::kRegistry: return "registry";
    case FlightSubsystem::kDmon: return "dmon";
    case FlightSubsystem::kAdapt: return "adapt";
    case FlightSubsystem::kFault: return "fault";
    case FlightSubsystem::kHealth: return "health";
    case FlightSubsystem::kSmartPointer: return "smartptr";
  }
  return "?";
}

const char* to_string(FlightCode code) {
  switch (code) {
    case FlightCode::kMemberJoin: return "member_join";
    case FlightCode::kMemberLeave: return "member_leave";
    case FlightCode::kMemberEvict: return "member_evict";
    case FlightCode::kLeaderElected: return "leader_elected";
    case FlightCode::kLeaseExpired: return "lease_expired";
    case FlightCode::kSyncApplied: return "sync_applied";
    case FlightCode::kRegistryOutage: return "registry_outage";
    case FlightCode::kRegistryOnline: return "registry_online";
    case FlightCode::kPeerLive: return "peer_live";
    case FlightCode::kPeerStale: return "peer_stale";
    case FlightCode::kPeerDead: return "peer_dead";
    case FlightCode::kCollectError: return "collect_error";
    case FlightCode::kSloViolation: return "slo_violation";
    case FlightCode::kAdaptRound: return "adapt_round";
    case FlightCode::kAdaptClamp: return "adapt_clamp";
    case FlightCode::kFaultInjected: return "fault_injected";
    case FlightCode::kHealthDegraded: return "health_degraded";
    case FlightCode::kHealthRecovered: return "health_recovered";
    case FlightCode::kIncidentOpened: return "incident_opened";
    case FlightCode::kWatchdogTrip: return "watchdog_trip";
    case FlightCode::kTrustDrop: return "trust_drop";
  }
  return "?";
}

void FlightRecorder::configure(std::size_t capacity) {
  RingBuffer<FlightEvent> ring{capacity == 0 ? 1 : capacity};
  ring.reserve();
  while (lock_.test_and_set(std::memory_order_acquire)) {}
  ring_ = std::move(ring);
  lock_.clear(std::memory_order_release);
}

void FlightRecorder::record(Severity severity, FlightSubsystem subsystem,
                            FlightCode code, std::uint64_t a0, std::uint64_t a1,
                            std::uint64_t a2, std::uint64_t a3,
                            std::uint64_t trace_id) {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  FlightEvent event;
  event.ts_ns = clock_ ? clock_->now().ns() : 0;
  event.trace_id = trace_id;
  event.args[0] = a0;
  event.args[1] = a1;
  event.args[2] = a2;
  event.args[3] = a3;
  event.code = code;
  event.severity = severity;
  event.subsystem = subsystem;

  while (lock_.test_and_set(std::memory_order_acquire)) {}
  ring_.push(event);
  lock_.clear(std::memory_order_release);
}

void FlightRecorder::clear() {
  while (lock_.test_and_set(std::memory_order_acquire)) {}
  ring_.clear();
  lock_.clear(std::memory_order_release);
}

void FlightRecorder::snapshot(std::vector<FlightEvent>& out) const {
  while (lock_.test_and_set(std::memory_order_acquire)) {}
  out.reserve(out.size() + ring_.size());
  ring_.for_each([&out](const FlightEvent& event) { out.push_back(event); });
  lock_.clear(std::memory_order_release);
}

std::string render_event(const FlightEvent& event) {
  std::ostringstream out;
  out << "flight " << event.ts_ns << " " << to_string(event.severity) << " "
      << to_string(event.subsystem) << " "
      << static_cast<unsigned>(event.code) << ":" << to_string(event.code);
  for (std::uint64_t arg : event.args) out << " " << arg;
  if (event.trace_id != 0) {
    char hex[24];
    std::snprintf(hex, sizeof hex, "0x%llx",
                  static_cast<unsigned long long>(event.trace_id));
    out << " trace=" << hex;
  }
  return out.str();
}

std::string FlightRecorder::render() const {
  // Event lines only — every line parses back via parse_event. Summary
  // headers (enabled state, capacity, drops) are the procfs wrapper's job.
  std::vector<FlightEvent> events;
  snapshot(events);
  std::ostringstream out;
  for (const FlightEvent& event : events) {
    out << render_event(event) << "\n";
  }
  return out.str();
}

namespace {

bool severity_of(const std::string& word, Severity& out) {
  for (Severity s : {Severity::kDebug, Severity::kInfo, Severity::kWarn,
                     Severity::kError}) {
    if (word == to_string(s)) {
      out = s;
      return true;
    }
  }
  return false;
}

bool subsystem_of(const std::string& word, FlightSubsystem& out) {
  for (FlightSubsystem s :
       {FlightSubsystem::kKecho, FlightSubsystem::kRegistry,
        FlightSubsystem::kDmon, FlightSubsystem::kAdapt,
        FlightSubsystem::kFault, FlightSubsystem::kHealth,
        FlightSubsystem::kSmartPointer}) {
    if (word == to_string(s)) {
      out = s;
      return true;
    }
  }
  return false;
}

}  // namespace

bool parse_event(const std::string& line, FlightEvent& out) {
  std::istringstream in(line);
  std::string tag;
  if (!(in >> tag) || tag != "flight") return false;
  FlightEvent event;
  std::string severity_word, subsystem_word, code_word;
  if (!(in >> event.ts_ns >> severity_word >> subsystem_word >> code_word)) {
    return false;
  }
  if (!severity_of(severity_word, event.severity)) return false;
  if (!subsystem_of(subsystem_word, event.subsystem)) return false;
  // code renders as "<number>:<name>"; only the number is authoritative.
  const std::size_t colon = code_word.find(':');
  unsigned long code_value = 0;
  try {
    code_value = std::stoul(code_word.substr(0, colon));
  } catch (...) {
    return false;
  }
  if (code_value > 0xffff) return false;
  event.code = static_cast<FlightCode>(code_value);
  for (std::uint64_t& arg : event.args) {
    if (!(in >> arg)) return false;
  }
  std::string trace_word;
  if (in >> trace_word) {
    if (trace_word.rfind("trace=", 0) != 0) return false;
    try {
      event.trace_id = std::stoull(trace_word.substr(6), nullptr, 0);
    } catch (...) {
      return false;
    }
  }
  out = event;
  return true;
}

}  // namespace dproc::telemetry
