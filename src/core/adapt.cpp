#include "dproc/core/adapt.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

namespace dproc::core {

namespace {
/// Floor for the normalization denominator so all-zero metrics (or the
/// first non-zero twitch of one) cannot divide by ~0 into a huge rate.
constexpr double kScaleFloor = 1e-9;
/// Cap on the budget clamp's per-round scale factor: one pathological
/// overhead sample (e.g. a partition-heal receive burst) must not fling
/// every period straight to max in a single round.
constexpr double kMaxClampFactor = 8.0;
/// EWMA smoothing for per-metric change rates and magnitude scales.
constexpr double kEwmaAlpha = 0.3;
/// Multiplicative period moves per round (decrease/increase).
constexpr double kTightenFactor = 0.5;
constexpr double kRelaxFactor = 1.5;
}  // namespace

PeriodController::PeriodController(AdaptConfig config, SimDuration base_period)
    : config_(config), base_period_(base_period) {
  if (config_.min_period <= SimDuration::zero()) {
    config_.min_period = milliseconds(1.0);
  }
  if (config_.max_period < config_.min_period) {
    config_.max_period = config_.min_period;
  }
  base_period_ = std::clamp(base_period_, config_.min_period,
                            config_.max_period);
}

void PeriodController::add_region(std::string module, MetricId first,
                                  std::size_t count) {
  Region region;
  region.module = std::move(module);
  region.first = first;
  region.count = count;
  region.period = base_period_;
  regions_.push_back(std::move(region));
  const std::size_t need = first + count;
  if (metrics_.size() < need) metrics_.resize(need);
}

void PeriodController::observe(
    const std::vector<MetricSample>& collected,
    const std::vector<PublishedState>& last_published) {
  for (const MetricSample& s : collected) {
    if (s.id >= metrics_.size()) continue;
    MetricState& m = metrics_[s.id];
    // Baseline: the cluster's current view of the metric when one exists
    // (the drift a slow period is accumulating), else our own previous
    // collection (the plain per-poll delta).
    double baseline;
    if (s.id < last_published.size() && last_published[s.id].published) {
      baseline = last_published[s.id].value;
    } else if (m.seen) {
      baseline = m.prev;
    } else {
      baseline = s.value;
    }
    const double delta = std::abs(s.value - baseline);
    const double magnitude = std::abs(s.value);
    m.scale = m.seen ? (1.0 - kEwmaAlpha) * m.scale + kEwmaAlpha * magnitude
                     : magnitude;
    const double norm = delta / std::max(m.scale, kScaleFloor);
    m.rate = m.seen ? (1.0 - kEwmaAlpha) * m.rate + kEwmaAlpha * norm : norm;
    m.prev = s.value;
    m.seen = true;
  }
}

bool PeriodController::adapt(double measured_overhead) {
  ++rounds_;
  last_overhead_ = measured_overhead;
  bool changed = false;

  // Accuracy pass: each region follows its hottest metric. Volatile regions
  // tighten toward min_period; regions quieter than half the target decay
  // toward slow keyframe-only publishing. The dead band in between keeps
  // borderline regions from oscillating every round.
  for (Region& region : regions_) {
    double score = 0.0;
    for (std::size_t i = 0; i < region.count; ++i) {
      const std::size_t id = region.first + i;
      if (id < metrics_.size()) score = std::max(score, metrics_[id].rate);
    }
    region.score = score;
    SimDuration next = region.period;
    if (score > config_.accuracy_target) {
      next = std::max(config_.min_period,
                      region.period * kTightenFactor);
      if (next != region.period) ++tightened_;
    } else if (score < config_.accuracy_target * 0.5) {
      next = std::min(config_.max_period, region.period * kRelaxFactor);
      if (next != region.period) ++relaxed_;
    }
    if (next != region.period) {
      region.period = next;
      changed = true;
    }
  }

  // Budget clamp, last so it outranks accuracy: publishing cost scales
  // roughly with publish rate, so scaling every period by overhead/budget
  // walks the total back under budget within a round or two.
  if (config_.overhead_budget > 0.0 &&
      measured_overhead > config_.overhead_budget) {
    const double factor = std::min(
        measured_overhead / config_.overhead_budget, kMaxClampFactor);
    for (Region& region : regions_) {
      const SimDuration next =
          std::min(config_.max_period, region.period * factor);
      if (next != region.period) {
        region.period = next;
        changed = true;
        ++clamps_;
      }
    }
  }
  return changed;
}

void PeriodController::reset() {
  for (Region& region : regions_) {
    region.period = base_period_;
    region.score = 0.0;
  }
  for (MetricState& m : metrics_) m = MetricState{};
  rounds_ = 0;
  tightened_ = 0;
  relaxed_ = 0;
  clamps_ = 0;
  last_overhead_ = 0.0;
}

double PeriodController::rate(MetricId id) const {
  return id < metrics_.size() ? metrics_[id].rate : 0.0;
}

const PeriodController::Region* PeriodController::region_of(
    MetricId id) const {
  for (const Region& region : regions_) {
    if (id >= region.first && id < region.first + region.count) {
      return &region;
    }
  }
  return nullptr;
}

Status PeriodController::set_budget(double budget) {
  if (!(budget > 0.0) || !std::isfinite(budget)) {
    return Status::invalid_argument("budget must be a positive fraction");
  }
  config_.overhead_budget = budget;
  return Status::ok();
}

Status PeriodController::set_target(double target) {
  if (!(target > 0.0) || !std::isfinite(target)) {
    return Status::invalid_argument("target must be a positive rate");
  }
  config_.accuracy_target = target;
  return Status::ok();
}

std::string PeriodController::describe() const {
  std::ostringstream out;
  out << std::setprecision(6);
  out << "budget " << config_.overhead_budget << " target "
      << config_.accuracy_target << " every " << config_.adapt_every_periods
      << " polls\n"
      << "last_overhead " << last_overhead_ << "\n"
      << "rounds " << rounds_ << " tightened " << tightened_ << " relaxed "
      << relaxed_ << " budget_clamps " << clamps_ << "\n";
  for (const Region& region : regions_) {
    out << "region " << region.module << " period "
        << to_string(region.period) << " score " << region.score << "\n";
  }
  return out.str();
}

}  // namespace dproc::core
