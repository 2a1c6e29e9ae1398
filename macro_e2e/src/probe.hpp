// Benchmark-side instrumentation: wall clock, allocation counter, RSS and
// an in-memory span tracer.
//
// Everything here observes the program from outside its layers: spans are
// opened by the benchmark's own code around its calls into the cluster
// (set-up phases, slices, procfs reads and writes, filter deploys) and by
// the timed module subclasses in workload.cpp around collect(). Nothing
// here feeds back into the simulation, so tracing cannot change behaviour.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace macro_e2e {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// operator new calls since process start. The process is single-threaded
/// (the simulator runs every node on one event loop), so the counter is a
/// plain integer.
[[nodiscard]] std::uint64_t alloc_count();

/// This process's resident set size and its high-water mark, in KB.
[[nodiscard]] double rss_kb();
[[nodiscard]] double peak_rss_kb();

struct SpanRecord {
  const char* name = nullptr;  // string literal
  std::int64_t start_ns = 0;   // since the tracer's epoch
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;    // index of the enclosing span, -1 at the root
};

/// Per-name roll-up of recorded spans. Self time is a span's duration minus
/// the durations of its direct children.
struct SpanSummary {
  std::uint64_t count = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;
  std::vector<double> durations_ns;
};

/// Records nested spans in memory while enabled. Spans nest strictly (one
/// thread, scoped guards), so the open span is the parent of the next one.
class Tracer {
 public:
  void set_enabled(bool on) { on_ = on; }
  [[nodiscard]] bool enabled() const { return on_; }

  std::int32_t begin(const char* name);
  void end(std::int32_t id);

  [[nodiscard]] const std::vector<SpanRecord>& spans() const { return spans_; }
  /// Heap allocations the tracer itself made while growing its span store;
  /// subtracted from the engine's allocation count.
  [[nodiscard]] std::uint64_t own_allocs() const { return own_allocs_; }

  /// Per-name summary of the spans that lie inside a span named `within`
  /// (that span included); all spans when `within` is null.
  [[nodiscard]] std::map<std::string, SpanSummary> summarize(
      const char* within = nullptr) const;
  /// Chrome trace-event JSON ("X" events, microseconds), loadable in
  /// chrome://tracing or Perfetto. Returns false on an I/O error.
  bool write_chrome_json(const std::string& path) const;

 private:
  bool on_ = false;
  std::vector<SpanRecord> spans_;
  std::int32_t open_ = -1;
  std::uint64_t own_allocs_ = 0;
  Clock::time_point epoch_ = Clock::now();
};

/// The process-wide tracer the scoped spans record into.
[[nodiscard]] Tracer& tracer();

/// Scoped span: a single branch when tracing is off.
class Span {
 public:
  explicit Span(const char* name)
      : id_(tracer().enabled() ? tracer().begin(name) : -1) {}
  ~Span() {
    if (id_ >= 0) tracer().end(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int32_t id_;
};

}  // namespace macro_e2e
