// Host-speed gauge.
//
// The benchmark runs on a share of a machine whose speed wanders with what
// else runs on it: memory latency moves by ±20% over seconds, and back-to-
// back runs of identical code have differed by up to 2x in wall time over
// minutes. The gauge measures that drift from inside the process: a fixed
// synthetic event loop with the simulator's cost mix (binary-heap
// scheduling of std::function callbacks, small heap allocations, random
// reads over a table larger than the caches) runs in short chunks between
// the workload's slices, so gauge and workload see the same host. Its code
// and data never depend on the program under test, so a change to the
// program moves the workload's times and not the gauge's.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "probe.hpp"

namespace macro_e2e {

class HostGauge {
 public:
  /// A chunk's wall time on the reference machine (4-vCPU x86 VM) on a
  /// quiet host, in ms: the unit the wall-clock metrics are scaled to.
  static constexpr double kReferenceChunkMs = 4.0;

  HostGauge();
  HostGauge(const HostGauge&) = delete;
  HostGauge& operator=(const HostGauge&) = delete;

  /// Runs one chunk when the sampling interval of wall time has passed
  /// since the last one, or none has run yet.
  void tick();

  [[nodiscard]] const std::vector<double>& samples_ms() const {
    return samples_ms_;
  }
  /// Resident memory the gauge's table and events add to the process, KB.
  [[nodiscard]] double resident_kb() const { return resident_kb_; }

 private:
  struct Event {
    std::uint64_t when;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  void push(Event event);
  void run_next();
  std::uint64_t next_random();

  std::vector<Event> heap_;
  std::vector<std::uint64_t> table_;
  std::vector<std::unique_ptr<std::uint64_t[]>> slots_;
  std::uint64_t seq_ = 0;
  std::uint64_t state_ = 0x9e3779b97f4a7c15ull;
  std::vector<double> samples_ms_;
  Clock::time_point last_;
  double resident_kb_ = 0.0;
};

/// The process-wide gauge; Meter ticks it after every slice.
[[nodiscard]] HostGauge& gauge();

}  // namespace macro_e2e
