#include "dproc/core/health.hpp"

#include <algorithm>
#include <sstream>

#include "dproc/host/host.hpp"
#include "dproc/telemetry/telemetry.hpp"

namespace dproc::core {

namespace {

/// Windowed-delta entries retained per tracked series.
constexpr std::size_t kHistoryDepth = 32;
// Score weights: penalty = weight x (fraction of the score window with a
// nonzero delta), except staleness which scales with the fraction of peers
// not live. They sum to 100, so a node failing on every axis bottoms out
// at 0.
constexpr double kWeightDrops = 20.0;
constexpr double kWeightStale = 30.0;
constexpr double kWeightSlo = 20.0;
constexpr double kWeightCollect = 10.0;
constexpr double kWeightEvict = 20.0;
/// Incident bundles retained (oldest evicted first).
constexpr std::size_t kIncidentCapacity = 8;
/// Flight events frozen into each bundle (the newest tail of the ring).
constexpr std::size_t kIncidentEvents = 128;

/// Sum over the newest min(window, size) entries.
double window_sum(const MetricHistory& history, std::size_t window) {
  const std::size_t n = std::min(window, history.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += history.at(history.size() - 1 - i);
  }
  return sum;
}

/// Fraction of the newest min(window, size) entries that are nonzero; 0
/// when empty.
double window_active(const MetricHistory& history, std::size_t window) {
  const std::size_t n = std::min(window, history.size());
  if (n == 0) return 0.0;
  std::size_t active = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (history.at(history.size() - 1 - i) != 0.0) ++active;
  }
  return static_cast<double>(active) / static_cast<double>(n);
}

}  // namespace

HealthEngine::HealthEngine(host::Host& host, telemetry::FlightRecorder* flight,
                           HealthConfig config)
    : host_(host),
      flight_(flight),
      config_(std::move(config)),
      tm_score_(host.telemetry().gauge("health", "score")),
      tm_incidents_(host.telemetry().counter("health", "incidents")) {
  // Failure-signal series, resolved once. Counter series take per-poll
  // deltas; the census series ("peers/stale") and the score's own history
  // are pushed directly.
  telemetry::Registry& tm = host_.telemetry();
  const std::pair<const char*, const telemetry::Counter*> counters[] = {
      {"net/drops", &tm.counter("net", "drops")},
      {"trace/slo_violations", &tm.counter("trace", "slo_violations")},
      {"dmon/collect_errors", &tm.counter("dmon", "collect_errors")},
      {"kecho/evictions", &tm.counter("kecho", "evictions")},
      {"registry/failovers", &tm.counter("registry", "failovers")},
  };
  for (const auto& [name, counter] : counters) {
    series_.push_back(
        Series{name, counter, counter->value(), MetricHistory{kHistoryDepth}});
  }
  for (const char* name : {"peers/stale", "health/score"}) {
    series_.push_back(Series{name, nullptr, 0, MetricHistory{kHistoryDepth}});
  }
  for (Series& s : series_) s.history.reserve();
  series_names_.reserve(series_.size());
  for (const Series& s : series_) series_names_.push_back(s.name);

  // The watchdogs — the paper-motivated post-mortem triggers: a member
  // eviction, a registry leader failover, or a staleness-SLO breach each
  // opens an incident.
  rules_ = {WatchdogRule{"kecho/evictions", 1.0, 1},
            WatchdogRule{"registry/failovers", 1.0, 1},
            WatchdogRule{"trace/slo_violations", 1.0, 1}};
  tm_score_.set(score_);
}

void HealthEngine::set_node(std::uint32_t node, std::string name) {
  node_ = node;
  node_name_ = std::move(name);
}

HealthEngine::Series* HealthEngine::find_series(const std::string& name) {
  for (Series& s : series_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

const std::vector<std::string>& HealthEngine::series_names() const {
  return series_names_;
}

const MetricHistory* HealthEngine::history(const std::string& series) const {
  for (const Series& s : series_) {
    if (s.name == series) return &s.history;
  }
  return nullptr;
}

void HealthEngine::on_poll(const HealthSnapshot& snapshot, SimTime now) {
  last_snapshot_ = snapshot;
  for (Series& s : series_) {
    if (s.counter == nullptr) continue;
    const std::uint64_t value = s.counter->value();
    const std::uint64_t delta = value >= s.last_value ? value - s.last_value
                                                      : value;  // reset-safe
    s.last_value = value;
    s.history.push(static_cast<double>(delta));
  }
  if (Series* stale = find_series("peers/stale")) {
    stale->history.push(
        static_cast<double>(snapshot.peers_stale + snapshot.peers_dead));
  }

  // Score: 100 minus weighted penalties. Counter penalties scale with the
  // fraction of the score window that saw a nonzero delta (so one bad poll
  // ages out after score_window clean ones); staleness scales with the
  // fraction of peers not live right now.
  const auto window = static_cast<std::size_t>(
      std::max(config_.score_window, 1));
  auto active = [this, window](const char* name) {
    for (const Series& s : series_) {
      if (s.name == name) return window_active(s.history, window);
    }
    return 0.0;
  };
  const double stale_frac =
      snapshot.peers_total > 0
          ? static_cast<double>(snapshot.peers_stale + snapshot.peers_dead) /
                static_cast<double>(snapshot.peers_total)
          : 0.0;
  const double penalty =
      kWeightDrops * active("net/drops") +
      kWeightSlo * active("trace/slo_violations") +
      kWeightCollect * active("dmon/collect_errors") +
      kWeightEvict * std::max(active("kecho/evictions"),
                              active("registry/failovers")) +
      kWeightStale * stale_frac;
  score_ = std::clamp(100.0 - penalty, 0.0, 100.0);
  if (Series* self = find_series("health/score")) self->history.push(score_);
  tm_score_.set(score_);

  const bool now_degraded = score_ < config_.trust_threshold;
  if (now_degraded != degraded_) {
    degraded_ = now_degraded;
    if (flight_ != nullptr) {
      flight_->record(now_degraded ? telemetry::Severity::kWarn
                                   : telemetry::Severity::kInfo,
                      telemetry::FlightSubsystem::kHealth,
                      now_degraded ? telemetry::FlightCode::kHealthDegraded
                                   : telemetry::FlightCode::kHealthRecovered,
                      static_cast<std::uint64_t>(score_));
    }
  }

  for (std::size_t r = 0; r < rules_.size(); ++r) {
    const WatchdogRule& rule = rules_[r];
    Series* series = find_series(rule.series);
    if (series == nullptr) continue;
    const double delta = window_sum(
        series->history, static_cast<std::size_t>(std::max(rule.window, 1)));
    if (delta < rule.min_delta) continue;
    // A sustained signal re-trips every poll; the dedup window below folds
    // the repeats into the open incident as symptoms.
    if (flight_ != nullptr) {
      flight_->record(telemetry::Severity::kWarn,
                      telemetry::FlightSubsystem::kHealth,
                      telemetry::FlightCode::kWatchdogTrip, r,
                      static_cast<std::uint64_t>(delta));
    }
    open_incident(rule.series, now);
  }
}

void HealthEngine::open_incident(const std::string& trigger, SimTime now) {
  if (last_open_ns_ >= 0 && !incidents_.empty() &&
      now.ns() - last_open_ns_ <= config_.dedup_window.ns()) {
    ++incidents_.back().symptoms;
    ++deduped_;
    return;
  }
  last_open_ns_ = now.ns();
  ++opened_;
  tm_incidents_.add();

  IncidentBundle bundle;
  bundle.node = node_;
  bundle.node_name = node_name_;
  bundle.id = opened_;
  bundle.opened_ns = now.ns();
  bundle.trigger = trigger;
  bundle.score = score_;
  if (flight_ != nullptr) {
    flight_->record(telemetry::Severity::kError,
                    telemetry::FlightSubsystem::kHealth,
                    telemetry::FlightCode::kIncidentOpened, opened_);
    snapshot_scratch_.clear();
    flight_->snapshot(snapshot_scratch_);
    const std::size_t keep =
        std::min(kIncidentEvents, snapshot_scratch_.size());
    bundle.events.assign(snapshot_scratch_.end() - static_cast<long>(keep),
                         snapshot_scratch_.end());
  }
  bundle.history.reserve(series_.size());
  for (const Series& s : series_) {
    std::vector<double> values;
    values.reserve(s.history.size());
    for (std::size_t i = 0; i < s.history.size(); ++i) {
      values.push_back(s.history.at(i));
    }
    bundle.history.emplace_back(s.name, std::move(values));
  }
  incidents_.push_back(std::move(bundle));
  if (incidents_.size() > kIncidentCapacity) {
    incidents_.erase(incidents_.begin());
  }
}

std::string HealthEngine::render() const {
  std::ostringstream out;
  out << "score " << score_ << " trusted " << (trusted() ? 1 : 0)
      << " threshold " << config_.trust_threshold << "\n"
      << "peers total " << last_snapshot_.peers_total << " stale "
      << last_snapshot_.peers_stale << " dead " << last_snapshot_.peers_dead
      << "\n";
  const auto window =
      static_cast<std::size_t>(std::max(config_.score_window, 1));
  for (const Series& s : series_) {
    out << "series " << s.name << " window_sum "
        << window_sum(s.history, window) << " active "
        << window_active(s.history, window) << " depth "
        << s.history.size() << "/" << s.history.capacity() << "\n";
  }
  out << "incidents retained " << incidents_.size() << " opened " << opened_
      << " deduped " << deduped_ << "\n";
  return out.str();
}

std::string HealthEngine::render_incidents() const {
  return render_bundles(incidents_);
}

}  // namespace dproc::core
