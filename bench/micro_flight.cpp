// Flight-recorder microbenchmark: the cost of a record point, wall-clock.
//
// The recorder's contract is that instrumenting every membership change,
// liveness transition, and SLO breach is cheap enough to leave on in any
// experiment: a disabled record point is one relaxed atomic load and a
// branch, and an enabled one is a spinlock acquire plus a fixed-size slot
// write — no allocation either way. This bench measures both paths with
// std::chrono (real nanoseconds, not simulated cycles, since record() is
// host-side bookkeeping outside the simulation's cost model), pins the
// steady-state allocation count at zero via the alloc counter, and fails
// (exit 1) if the enabled path exceeds 100 ns/event — the acceptance bar.
//
// Extras report the telemetry counter-add and by-name lookup costs for
// comparison: a flight record should stay within an order of magnitude of
// a counter bump, or instrumenting transitions would distort experiments.
#include <chrono>
#include <cstdint>
#include <cstdio>

#include "alloc_counter.hpp"
#include "bench_json.hpp"
#include "dproc/telemetry/flight.hpp"
#include "dproc/telemetry/telemetry.hpp"

namespace dproc::bench {
namespace {

volatile std::uint64_t g_sink = 0;

/// Measures `fn(i)` over `iters` iterations; returns ns/op.
template <typename Fn>
double measure_ns(std::uint64_t iters, Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) fn(i);
  const auto stop = std::chrono::steady_clock::now();
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
          .count();
  return static_cast<double>(ns) / static_cast<double>(iters);
}

JsonBenchEntry entry(const std::string& name, double ns_per_event,
                     std::uint64_t iters, std::uint64_t allocs) {
  JsonBenchEntry e;
  e.name = name;
  e.ns_per_event = ns_per_event;
  e.ops_per_sec = ns_per_event > 0 ? 1e9 / ns_per_event : 0.0;
  e.allocs_per_event =
      static_cast<double>(allocs) / static_cast<double>(iters);
  e.iterations = iters;
  return e;
}

int run() {
  const std::uint64_t iters = bench_iterations(2'000'000);
  std::vector<JsonBenchEntry> entries;

  telemetry::FlightRecorder disabled;  // never configured: the default state
  {
    const std::uint64_t a0 = alloc_count();
    const double ns = measure_ns(iters, [&](std::uint64_t i) {
      disabled.record(telemetry::Severity::kInfo,
                      telemetry::FlightSubsystem::kDmon,
                      telemetry::FlightCode::kPeerLive, i);
    });
    entries.push_back(
        entry("record_disabled", ns, iters, alloc_count() - a0));
    g_sink += disabled.size();
  }

  telemetry::FlightRecorder enabled;
  enabled.configure(1024);
  enabled.set_enabled(true);
  double enabled_ns = 0.0;
  {
    // Warm the ring past the fill phase so the measured loop is pure
    // steady-state overwrite.
    for (std::uint64_t i = 0; i < 2048; ++i) {
      enabled.record(telemetry::Severity::kInfo,
                     telemetry::FlightSubsystem::kDmon,
                     telemetry::FlightCode::kPeerLive, i);
    }
    const std::uint64_t a0 = alloc_count();
    enabled_ns = measure_ns(iters, [&](std::uint64_t i) {
      enabled.record(telemetry::Severity::kWarn,
                     telemetry::FlightSubsystem::kDmon,
                     telemetry::FlightCode::kPeerStale, i, i * 3, i * 5, 0,
                     i);
    });
    const std::uint64_t allocs = alloc_count() - a0;
    entries.push_back(entry("record_enabled", enabled_ns, iters, allocs));
    g_sink += enabled.dropped();
    if (allocs != 0) {
      std::fprintf(stderr,
                   "micro_flight: enabled record() allocated (%llu allocs)\n",
                   static_cast<unsigned long long>(allocs));
      return 1;
    }
  }

  // Comparison points: a telemetry counter bump through a pointer resolved
  // once, and the string-keyed lookup per bump it avoids. The pointer is
  // volatile so every add loads and stores the counter as a hot path does;
  // a loop of unconditional adds would otherwise fold into one.
  telemetry::Registry registry;
  telemetry::Counter* volatile counter = &registry.counter("bench", "events");
  {
    const std::uint64_t a0 = alloc_count();
    const double ns =
        measure_ns(iters, [&](std::uint64_t) { counter->add(); });
    entries.push_back(entry("counter_add", ns, iters, alloc_count() - a0));
  }
  {
    const std::uint64_t lookup_iters = iters / 10 + 1;
    const std::uint64_t a0 = alloc_count();
    const double ns = measure_ns(lookup_iters, [&](std::uint64_t) {
      registry.counter("bench", "events").add();
    });
    entries.push_back(entry("counter_lookup_by_name", ns, lookup_iters,
                            alloc_count() - a0));
  }

  entries[1].extras.emplace_back("budget_ns", 100.0);
  write_bench_json("micro_flight", entries);
  std::printf("record disabled %.2f ns, enabled %.2f ns (budget 100 ns)\n",
              entries[0].ns_per_event, enabled_ns);

  // The acceptance bar. Smoke runs (tiny DPROC_BENCH_ITERS) are noisy, so
  // the bar only binds at full scale.
  if (iters >= 1'000'000 && enabled_ns > 100.0) {
    std::fprintf(stderr, "micro_flight: enabled record %.2f ns > 100 ns\n",
                 enabled_ns);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace dproc::bench

int main() { return dproc::bench::run(); }
