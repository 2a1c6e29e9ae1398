// Self-adapting monitoring periods under an explicit overhead budget.
//
// The paper's tuning interface makes monitoring *customizable* — operators
// hand-tune per-metric periods through `control` files — but leaves the
// tuning loop open: somebody has to watch the streams and rewrite the
// periods. This controller closes it, borrowing DAMON's core idea (see
// DESIGN.md §14): the operator states a *goal* — an overhead budget (max
// fraction of simulated CPU the monitor may burn) and an accuracy target
// (how much normalized change per poll a metric may accumulate before its
// period is too slow) — and the mechanism adjusts per-region periods to
// meet it.
//
// Regions follow DAMON's shape too: adaptation operates on contiguous
// metric-id ranges (one per monitoring module — the same ranges d-mon's
// group_by_range batching uses), scored by the hottest metric inside, so
// the controller's state stays O(modules), not O(metrics x peers).
//
// The controller owns no wires and no clocks: d-mon feeds it observations
// each poll (observe) and the measured overhead each adaptation interval
// (adapt), then copies the resulting periods into PublisherTuning as
// *adaptive* periods — a layer that overrides only the default period, so
// an operator's explicit `period <metric> ...` rule always wins.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dproc/core/metrics.hpp"
#include "dproc/util/status.hpp"
#include "dproc/util/time.hpp"

namespace dproc::core {

/// Adaptation knobs. Off by default: no controller is built, no periods
/// move, and the golden trace stays byte-identical.
struct AdaptConfig {
  bool enabled = false;
  /// Max fraction of simulated CPU the d-mon may spend on monitoring
  /// (poll + submit + receive kernel time over wall time). When the
  /// measured overhead exceeds it, every region's period is scaled up
  /// proportionally — the budget clamp outranks accuracy.
  double overhead_budget = 0.01;
  /// Target normalized change per poll: a region whose hottest metric
  /// accumulates more change than this tightens (down to min_period);
  /// one accumulating less than half of it relaxes (up to max_period).
  double accuracy_target = 0.05;
  /// Run the controller once every this many polls.
  int adapt_every_periods = 5;
  SimDuration min_period = seconds(1.0);
  SimDuration max_period = seconds(30.0);
};

/// Last value a publisher sent per metric id. Shared between the batching
/// path (delta suppression) and the controller: the published value is the
/// accuracy baseline — |collected - published| is exactly how wrong the
/// cluster's view of this metric currently is.
struct PublishedState {
  bool published = false;
  double value = 0.0;
};

/// The per-d-mon period controller (pure state machine; d-mon drives it).
class PeriodController {
 public:
  /// One adaptation region: a module's contiguous metric-id range, its
  /// current adaptive period and last round's score.
  struct Region {
    std::string module;
    MetricId first = 0;
    std::size_t count = 0;
    SimDuration period{};
    double score = 0.0;  // hottest metric's change rate, last round
  };

  PeriodController(AdaptConfig config, SimDuration base_period);

  /// Registers one module's metric-id range (regions start at the base
  /// period). Ranges must be disjoint; order is irrelevant.
  void add_region(std::string module, MetricId first, std::size_t count);

  /// Per-poll rate tracking. `collected` is the id-dense local sample
  /// vector; `last_published` the publisher's delta-suppression cache. A
  /// metric's change is measured against its last *published* value when
  /// one exists (how stale is the cluster's view), else against its own
  /// previous collection (plain per-poll delta, e.g. with batching off).
  void observe(const std::vector<MetricSample>& collected,
               const std::vector<PublishedState>& last_published);

  /// One adaptation round: re-scores every region, tightens/relaxes its
  /// period against the accuracy target, then applies the budget clamp on
  /// the measured overhead. Returns true when any period changed.
  bool adapt(double measured_overhead);

  /// Restart support: forgets rates, resets periods to base and zeroes the
  /// counters (a rebooted monitor has no memory).
  void reset();

  [[nodiscard]] const std::vector<Region>& regions() const { return regions_; }
  /// Current smoothed change rate of one metric (0 when never observed).
  [[nodiscard]] double rate(MetricId id) const;
  /// The region covering `id`, or nullptr when no region does.
  [[nodiscard]] const Region* region_of(MetricId id) const;

  // --- knobs (procfs-writable) --------------------------------------------
  Status set_budget(double budget);
  Status set_target(double target);
  [[nodiscard]] double budget() const { return config_.overhead_budget; }
  [[nodiscard]] double target() const { return config_.accuracy_target; }
  [[nodiscard]] const AdaptConfig& config() const { return config_; }

  // --- counters (telemetry / procfs) --------------------------------------
  [[nodiscard]] std::uint64_t rounds() const { return rounds_; }
  [[nodiscard]] std::uint64_t periods_tightened() const { return tightened_; }
  [[nodiscard]] std::uint64_t periods_relaxed() const { return relaxed_; }
  [[nodiscard]] std::uint64_t budget_clamps() const { return clamps_; }
  [[nodiscard]] double last_overhead() const { return last_overhead_; }

  /// Renders state for /proc/dproc/adapt.
  [[nodiscard]] std::string describe() const;

 private:
  struct MetricState {
    bool seen = false;
    double prev = 0.0;   // last collected value
    double scale = 0.0;  // EWMA of |value| (normalization denominator)
    double rate = 0.0;   // EWMA of |delta| / scale
  };

  AdaptConfig config_;
  SimDuration base_period_;
  std::vector<Region> regions_;
  std::vector<MetricState> metrics_;  // indexed by metric id

  std::uint64_t rounds_ = 0;
  std::uint64_t tightened_ = 0;
  std::uint64_t relaxed_ = 0;
  std::uint64_t clamps_ = 0;
  double last_overhead_ = 0.0;
};

}  // namespace dproc::core
