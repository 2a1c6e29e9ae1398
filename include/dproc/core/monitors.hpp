// dproc monitoring modules: CPU_MON, MEM_MON, DISK_MON, NET_MON, PMC.
//
// Each module registers with d-mon via register_module(); d-mon invokes
// collect() once per polling period through the stored callback, exactly the
// paper's register-service/callback structure. Modules that need finer
// sampling than the polling period (CPU_MON's run-queue averaging) own a
// kernel thread, modeled as a periodic engine timer whose per-wakeup CPU
// cost is charged to the kernel class.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dproc/core/metrics.hpp"
#include "dproc/core/sketch.hpp"
#include "dproc/host/battery.hpp"
#include "dproc/host/host.hpp"
#include "dproc/net/tcp.hpp"
#include "dproc/sim/engine.hpp"

namespace dproc::core {

class MonitoringModule {
 public:
  virtual ~MonitoringModule() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Metric descriptors, ids left 0; d-mon assigns ids at registration.
  [[nodiscard]] virtual std::vector<MetricDesc> metrics() const = 0;

  /// Appends one sample per metric, in metrics() order.
  virtual void collect(std::vector<MetricSample>& out, SimTime now) = 0;

  /// Applications can retune the module's internal sampling period via the
  /// control interface; the default implementation ignores it.
  virtual void set_period(SimDuration period) { (void)period; }

 protected:
  /// Helper for collect() implementations.
  static MetricSample sample(MetricId id, double value, SimTime now) {
    return MetricSample{id, value, now};
  }
};

/// Average run-queue length over an application-specified window (default
/// 1 minute, like /proc/loadavg's shortest standard window), sampled by a
/// kernel thread at 10 Hz. Also reports instantaneous CPU utilization.
class CpuMonitor : public MonitoringModule {
 public:
  CpuMonitor(host::Host& host, SimDuration window = seconds(60.0),
             SimDuration sample_interval = milliseconds(100.0),
             double sample_cycles = 1200.0);
  ~CpuMonitor() override;

  [[nodiscard]] std::string name() const override { return "cpu"; }
  [[nodiscard]] std::vector<MetricDesc> metrics() const override;
  void collect(std::vector<MetricSample>& out, SimTime now) override;
  void set_period(SimDuration period) override { window_ = period; }

  [[nodiscard]] double load_average() const;

 private:
  void schedule_next_sample();

  host::Host& host_;
  SimDuration window_;
  SimDuration sample_interval_;
  double sample_cycles_;
  std::vector<std::pair<SimTime, double>> samples_;  // bounded ring
  std::size_t max_samples_;
  sim::EventHandle timer_;
};

/// Free memory via the nr_free_pages() analogue.
class MemMonitor : public MonitoringModule {
 public:
  explicit MemMonitor(host::Host& host) : host_(host) {}

  [[nodiscard]] std::string name() const override { return "mem"; }
  [[nodiscard]] std::vector<MetricDesc> metrics() const override;
  void collect(std::vector<MetricSample>& out, SimTime now) override;

 private:
  host::Host& host_;
};

/// Read/write ops and sector rates over the collection interval (default
/// driven by d-mon's polling period; the paper's default is 1 s).
class DiskMonitor : public MonitoringModule {
 public:
  explicit DiskMonitor(host::Host& host) : host_(host) {}

  [[nodiscard]] std::string name() const override { return "disk"; }
  [[nodiscard]] std::vector<MetricDesc> metrics() const override;
  void collect(std::vector<MetricSample>& out, SimTime now) override;

 private:
  host::Host& host_;
  host::DiskCounters last_{};
  SimTime last_at_;
  bool seeded_ = false;
};

/// Interface throughput, connection RTT, TCP retransmissions, UDP losses,
/// and an available-bandwidth estimate (link capacity minus observed use) —
/// the quantity SmartPointer's dynamic filters consume.
class NetMonitor : public MonitoringModule {
 public:
  NetMonitor(host::Host& host, net::Nic& nic, double link_capacity_bps = 100e6);

  [[nodiscard]] std::string name() const override { return "net"; }
  [[nodiscard]] std::vector<MetricDesc> metrics() const override;
  void collect(std::vector<MetricSample>& out, SimTime now) override;

  /// Renders per-connection stats (the paper's "round-trip times of
  /// established network connections ... of all individual connections");
  /// d-mon serves it as /proc/net/connections.
  [[nodiscard]] std::string render_connections() const;

 private:
  host::Host& host_;
  net::Nic& nic_;
  double link_capacity_bps_;
  std::uint64_t last_bytes_in_ = 0;
  std::uint64_t last_bytes_out_ = 0;
  std::uint64_t last_datagrams_lost_ = 0;
  SimTime last_at_;
  bool seeded_ = false;
  // Interface rates are smoothed so that periodic event bursts on an
  // otherwise idle node do not masquerade as load changes.
  Ewma in_bps_{0.35};
  Ewma out_bps_{0.35};
};

/// Exposes hardware performance counters cluster-wide. Counter selection is
/// dynamic: this is the module the paper's extension story deploys at run
/// time to remote kernels.
class PmcMonitor : public MonitoringModule {
 public:
  PmcMonitor(host::Host& host, std::vector<std::string> counters);

  [[nodiscard]] std::string name() const override { return "pmc"; }
  [[nodiscard]] std::vector<MetricDesc> metrics() const override;
  void collect(std::vector<MetricSample>& out, SimTime now) override;

 private:
  host::Host& host_;
  std::vector<std::string> counters_;
};

/// Battery charge and instantaneous power draw — the paper's future-work
/// "power as a first-class resource" and the canonical example of a module
/// deployed dynamically into a remote kernel (§2.1). The Battery is owned
/// by the embedder (it outlives monitoring), matching a driver-provided
/// power supply object.
class BatteryMonitor : public MonitoringModule {
 public:
  explicit BatteryMonitor(host::Battery& battery) : battery_(battery) {}

  [[nodiscard]] std::string name() const override { return "power"; }
  [[nodiscard]] std::vector<MetricDesc> metrics() const override;
  void collect(std::vector<MetricSample>& out, SimTime now) override;

 private:
  host::Battery& battery_;
};

/// DPROC_MON: the self-monitoring module. Publishes this node's own dproc
/// overhead — event counts, submit/receive/poll latency quantiles, filter
/// work, suppressed samples, fabric drops — on the monitoring channel like
/// any other metric, so each node's monitoring cost is visible cluster-wide
/// under /proc/cluster/<node>/dproc/... and is steerable and filterable
/// with the same tuning machinery as application metrics. Reads the host's
/// telemetry registry; with telemetry disabled the latency quantiles read 0
/// (counters always count).
class DprocMonitor : public MonitoringModule {
 public:
  /// `with_health` appends the two health-engine metrics (dproc_health_score,
  /// dproc_health_incidents) so the published schema — and thus the wire
  /// bytes — only change when the health engine is actually on.
  explicit DprocMonitor(host::Host& host, bool with_health = false);

  [[nodiscard]] std::string name() const override { return "dproc"; }
  [[nodiscard]] std::vector<MetricDesc> metrics() const override;
  void collect(std::vector<MetricSample>& out, SimTime now) override;

 private:
  host::Host& host_;
  bool with_health_ = false;
  telemetry::Counter& submits_;
  telemetry::Counter& receives_;
  telemetry::Counter& heartbeats_;
  telemetry::Counter& suppressed_;
  telemetry::Counter& filter_insns_;
  telemetry::Counter& net_drops_;
  telemetry::Counter& slo_violations_;
  telemetry::Counter& adapt_rounds_;
  telemetry::Counter& adapt_changes_;
  telemetry::Gauge& adapt_overhead_;
  telemetry::LatencyRecorder& submit_us_;
  telemetry::LatencyRecorder& receive_us_;
  telemetry::LatencyRecorder& poll_us_;
};

/// Configurable-width module for experiments and extension testing: emits
/// `metric_count` metrics whose values come from `value_fn` (constant zero
/// by default). With 250 metrics one monitoring event is ~5 KB on the wire,
/// the size used by the paper's Figure 7.
class SyntheticMonitor : public MonitoringModule {
 public:
  using ValueFn = std::function<double(std::size_t metric, SimTime now)>;

  SyntheticMonitor(std::string name, std::size_t metric_count,
                   ValueFn value_fn = {});

  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] std::vector<MetricDesc> metrics() const override;
  void collect(std::vector<MetricSample>& out, SimTime now) override;

 private:
  std::string name_;
  std::size_t metric_count_;
  ValueFn value_fn_;
};

/// TOP_K: publishes the k heaviest consumers of some per-entity quantity —
/// CPU cycles per PID, bytes per flow — through a constant-space
/// heavy-hitter sketch (core/sketch). The published frame is always 2k
/// metrics (`<name>_top<i>_key` / `<name>_top<i>_val`), so the monitoring
/// cost is identical whether the node runs 100 processes or 10,000: the
/// resource-aware answer to "who is eating this node?". The sketch is also
/// exposed so d-mon can bind it as the filter sketch host, letting deployed
/// E-code filters call topk()/topkid()/cmlookup() against live state.
class TopKMonitor : public MonitoringModule {
 public:
  /// Appends this period's (entity key, weight) observations.
  using ObserveFn = std::function<void(
      std::vector<std::pair<std::int64_t, double>>& out, SimTime now)>;

  TopKMonitor(std::string name, std::size_t k, ObserveFn observe,
              SketchParams params = {});

  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] std::vector<MetricDesc> metrics() const override;
  void collect(std::vector<MetricSample>& out, SimTime now) override;

  [[nodiscard]] std::size_t k() const { return k_; }
  [[nodiscard]] TopKSketch& sketch() { return sketch_; }
  [[nodiscard]] const TopKSketch& sketch() const { return sketch_; }
  /// Sketch footprint in bytes — constant in the entity count.
  [[nodiscard]] std::size_t state_bytes() const { return sketch_.byte_size(); }

 private:
  std::string name_;
  std::size_t k_;
  ObserveFn observe_;
  TopKSketch sketch_;
  std::vector<std::pair<std::int64_t, double>> obs_;  // reused per collect
};

/// Deterministic Zipf(s) observation source over `entity_count` keys: each
/// collect draws `draws_per_collect` unit-weight observations from a fixed
/// seeded stream. Stands in for a real per-PID scheduler account (the
/// per-PID CPU and per-flow byte distributions both skew heavily in
/// practice) while keeping tests and the accuracy experiments exactly
/// reproducible.
[[nodiscard]] TopKMonitor::ObserveFn make_zipf_observer(
    std::size_t entity_count, double s, std::uint64_t seed,
    std::size_t draws_per_collect = 256);

/// The family's stock members: top-k CPU consumers by PID and top-k flows
/// by bytes. Both are Zipf-backed (see make_zipf_observer); entity count is
/// the knob the constant-space experiment sweeps.
[[nodiscard]] std::unique_ptr<TopKMonitor> make_topk_process_monitor(
    std::size_t k, std::size_t process_count, double zipf_s = 1.2,
    std::uint64_t seed = 1, SketchParams params = {});
[[nodiscard]] std::unique_ptr<TopKMonitor> make_topk_flow_monitor(
    std::size_t k, std::size_t flow_count, double zipf_s = 1.2,
    std::uint64_t seed = 2, SketchParams params = {});

}  // namespace dproc::core
