// Workloads of the macro benchmark and the measurement window they share.
//
// A workload unit is one deterministic cluster lifetime: set-up (build,
// d-mon start, joins, app connect, warm-up) followed by a fixed number of
// measured slices. A slice advances the engine one simulated second, stopping
// at seeded instants to run the application's reads and writes — a closed
// loop: the next slice starts once they are done. Everything but the
// wall-clock fields repeats exactly for a given seed.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dproc/core/cluster.hpp"
#include "dproc/util/rng.hpp"
#include "probe.hpp"

namespace macro_e2e {

namespace core = dproc::core;
namespace host = dproc::host;
namespace net = dproc::net;
namespace procfs = dproc::procfs;
using dproc::Result;
using dproc::SimTime;
using dproc::Status;

/// Deterministic values by name ("sim.events", "dmon.submit_us_sum", ...):
/// counts (whole numbers far below 2^53, so exact as doubles) and sums of
/// modeled costs.
using Counts = std::map<std::string, double>;

/// Window totals of one or more measured windows (fig9 merges its three
/// filter modes). Only wall_s and slice_ms are wall clock; everything else
/// repeats exactly for a seed.
struct WindowTotals {
  double sim_s = 0.0;       // simulated seconds measured
  double node_sim_s = 0.0;  // simulated node-seconds measured
  double wall_s = 0.0;
  std::vector<double> slice_ms;
  /// Per slice: index of the host gauge chunk that ran right after it
  /// (the latest one when the gauge's interval had not yet passed).
  std::vector<std::size_t> slice_gauge;
  Counts sums;   // summed when windows merge
  Counts peaks;  // maximum when windows merge

  void merge(const WindowTotals& other);
};

/// One measured cluster lifetime's results.
struct UnitResult {
  std::size_t nodes = 0;
  double setup_s = 0.0;       // wall: build .. first measured slice
  /// setup_s samples of this unit (fig9 adds set-up-only repetitions).
  std::vector<double> setup_samples_s;
  double build_s = 0.0;       // wall: Cluster construction
  double warmup_s = 0.0;      // wall: warm-up run_until calls
  double rss_kb_built = 0.0;  // RSS right after construction
  WindowTotals window;

  /// Deterministic results: modeled values and per-layer counts. Compared
  /// across units and between traced and untraced passes.
  Counts exact;
  std::vector<double> latency_ms;  // modeled latency samples (virtual)
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;
};

/// Sums every node's counters into a snapshot, so a window is the
/// difference of two snapshots. Reads FabricStats and per-node counters
/// only; installs no hook.
class Meter {
 public:
  explicit Meter(core::Cluster& cluster);
  /// Starts the window at the current simulated time.
  void begin();
  /// One measured slice: advances the engine one simulated second. The
  /// application's step `j` runs once the engine reaches `phases[j]`
  /// seconds into the slice (ascending, in [0, 1)); everything runs inside
  /// the "slice" span and counts toward the slice's wall time.
  void slice(const std::vector<double>& phases,
             const std::function<void(std::size_t)>& app);
  /// Closes the window into `out`.
  void end(WindowTotals& out);

 private:
  /// Cumulative counters summed over nodes, and each node's kernel CPU
  /// seconds (for the worst node's share).
  struct Snapshot {
    Counts totals;
    std::vector<double> kernel_s;
  };
  [[nodiscard]] Snapshot take() const;

  core::Cluster& cluster_;
  Snapshot begin_;
  SimTime start_;
  WindowTotals acc_;
};

/// Cluster config factory for the timed standard modules: the module set
/// Cluster::register_standard_modules installs, each subclassed so that
/// collect() runs inside a "monitors.collect" span (d-mon's type checks on
/// the concrete modules still match).
[[nodiscard]] std::function<void(core::DMon&, host::Host&, net::Nic&)>
timed_standard_modules(double link_capacity_bps);

/// Procfs read/write wrapped in their spans.
[[nodiscard]] Result<std::string> traced_read(procfs::ProcFs& fs,
                                              const std::string& path);
Status traced_write(procfs::ProcFs& fs, const std::string& path,
                    const std::string& data);

/// Parses "<key> <number>" from a rendered pseudo-file; false if absent.
bool field(const std::string& text, const std::string& key, double& out);

/// Read times for one slice: `count` phases drawn uniformly in [0, 1) from
/// the workload's seeded generator, each paired with the task it runs,
/// sorted by phase. Reading at random instants makes the modeled ages a
/// sample of what a reader sees, not an artefact of the poll grid.
struct Phased {
  std::vector<double> phases;
  std::vector<std::size_t> tasks;
};
[[nodiscard]] Phased draw_phases(dproc::Rng& rng, std::size_t count);

UnitResult run_fig9_smartpointer(std::uint64_t seed);
UnitResult run_flat64(std::uint64_t seed, int slices);
UnitResult run_hier128_full(std::uint64_t seed, int slices);

}  // namespace macro_e2e
