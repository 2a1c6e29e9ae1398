#include "workload.hpp"

#include <algorithm>
#include <sstream>

#include "dproc/core/monitors.hpp"
#include "gauge.hpp"

namespace macro_e2e {
namespace {

/// Wraps a standard module's collect() in a span; everything else is the
/// module itself.
template <typename Module>
class Timed final : public Module {
 public:
  using Module::Module;
  void collect(std::vector<core::MetricSample>& out, SimTime now) override {
    const Span span{"monitors.collect"};
    Module::collect(out, now);
  }
};

}  // namespace

void WindowTotals::merge(const WindowTotals& o) {
  sim_s += o.sim_s;
  node_sim_s += o.node_sim_s;
  wall_s += o.wall_s;
  slice_ms.insert(slice_ms.end(), o.slice_ms.begin(), o.slice_ms.end());
  slice_gauge.insert(slice_gauge.end(), o.slice_gauge.begin(),
                     o.slice_gauge.end());
  for (const auto& [name, value] : o.sums) sums[name] += value;
  for (const auto& [name, value] : o.peaks) {
    peaks[name] = std::max(peaks[name], value);
  }
}

Meter::Meter(core::Cluster& cluster) : cluster_(cluster) {}

Meter::Snapshot Meter::take() const {
  Snapshot s;
  Counts& c = s.totals;
  c["sim.cancel_flags"] =
      static_cast<double>(cluster_.engine().cancel_flags_allocated());
  const net::FabricStats& fabric = cluster_.fabric().stats();
  c["net.packets_sent"] = static_cast<double>(fabric.packets_sent);
  c["net.packets_delivered"] = static_cast<double>(fabric.packets_delivered);
  c["net.drops_window"] = static_cast<double>(fabric.drops_total());
  std::uint64_t delivered_bytes = 0, retransmits = 0, heartbeats = 0,
                evictions = 0, flight = 0, polls = 0;
  double submit_us = 0.0, receive_us = 0.0;
  s.kernel_s.reserve(cluster_.size());
  for (std::size_t i = 0; i < cluster_.size(); ++i) {
    core::ClusterNode& node = cluster_.node(i);
    delivered_bytes += cluster_.fabric().bytes_delivered_to(node.nic->node());
    for (const net::TcpConnection* conn : node.nic->tcp_connections()) {
      retransmits += conn->stats().retransmissions;
    }
    heartbeats += node.kecho->heartbeats_sent();
    evictions += node.kecho->evictions_initiated();
    flight += node.host->flight().size() + node.host->flight().dropped();
    if (node.dmon) {
      submit_us += node.dmon->submit_cost_us().sum();
      receive_us += node.dmon->receive_cost_us().sum();
      polls += node.dmon->submit_cost_us().count();
    }
    s.kernel_s.push_back(node.host->cpu().kernel_cpu_time().sec());
  }
  c["net.delivered_bytes"] = static_cast<double>(delivered_bytes);
  c["net.tcp_retransmits"] = static_cast<double>(retransmits);
  c["kecho.heartbeats"] = static_cast<double>(heartbeats);
  c["kecho.evictions"] = static_cast<double>(evictions);
  c["telemetry.flight_events"] = static_cast<double>(flight);
  c["dmon.submit_us_sum"] = submit_us;
  c["dmon.receive_us_sum"] = receive_us;
  c["dmon.polls"] = static_cast<double>(polls);
  return s;
}

void Meter::begin() {
  begin_ = take();
  start_ = cluster_.engine().now();
  acc_ = WindowTotals{};
}

void Meter::slice(const std::vector<double>& phases,
                  const std::function<void(std::size_t)>& app) {
  dproc::sim::Engine& engine = cluster_.engine();
  const SimTime slice_start = engine.now();
  const std::uint64_t events_before = engine.events_processed();
  std::uint64_t engine_allocs = 0;
  auto advance = [&](SimTime until) {
    const std::uint64_t allocs_before = alloc_count();
    const std::uint64_t tracer_before = tracer().own_allocs();
    engine.run_until(until);
    engine_allocs += (alloc_count() - allocs_before) -
                     (tracer().own_allocs() - tracer_before);
  };
  const Clock::time_point t0 = Clock::now();
  {
    const Span span{"slice"};
    for (std::size_t j = 0; j < phases.size(); ++j) {
      advance(slice_start + dproc::seconds(phases[j]));
      app(j);
    }
    advance(slice_start + dproc::seconds(1.0));
  }
  const double ms = std::chrono::duration<double, std::milli>(
                        Clock::now() - t0)
                        .count();
  acc_.slice_ms.push_back(ms);
  acc_.wall_s += ms / 1e3;
  Counts& sums = acc_.sums;
  sums["sim.events"] +=
      static_cast<double>(engine.events_processed() - events_before);
  sums["sim.engine_allocs"] += static_cast<double>(engine_allocs);
  double& pending_peak = acc_.peaks["sim.pending_peak"];
  pending_peak =
      std::max(pending_peak, static_cast<double>(engine.pending_events()));
  std::uint64_t receives = 0, published = 0, suppressed = 0, insns = 0;
  for (std::size_t i = 0; i < cluster_.size(); ++i) {
    if (const core::DMon* dmon = cluster_.dmon(i)) {
      const core::PollRecord& poll = dmon->last_poll();
      receives += poll.events_received;
      published += poll.samples_published;
      suppressed += poll.delta_suppressed;
      insns += poll.filter_instructions;
    }
  }
  sums["kecho.receives"] += static_cast<double>(receives);
  sums["dmon.published"] += static_cast<double>(published);
  sums["dmon.suppressed"] += static_cast<double>(suppressed);
  sums["ecode.insns"] += static_cast<double>(insns);
  // Outside the slice's timing, its span and the engine's allocation count.
  gauge().tick();
  acc_.slice_gauge.push_back(gauge().samples_ms().size() - 1);
}

void Meter::end(WindowTotals& out) {
  const Snapshot e = take();
  acc_.sim_s = (cluster_.engine().now() - start_).sec();
  acc_.node_sim_s = acc_.sim_s * static_cast<double>(cluster_.size());
  for (const auto& [name, value] : e.totals) {
    acc_.sums[name] = value - begin_.totals.at(name);
  }
  double& kernel_node_s = acc_.sums["host.kernel_node_s"];
  double& share_max = acc_.peaks["host.kernel_share_max"];
  for (std::size_t i = 0; i < e.kernel_s.size(); ++i) {
    const double kernel = e.kernel_s[i] - begin_.kernel_s[i];
    kernel_node_s += kernel;
    share_max = std::max(share_max, kernel / acc_.sim_s);
  }
  out.merge(acc_);
}

std::function<void(core::DMon&, host::Host&, net::Nic&)>
timed_standard_modules(double link_capacity_bps) {
  // Mirrors Cluster::register_standard_modules module for module.
  return [link_capacity_bps](core::DMon& dmon, host::Host& host,
                             net::Nic& nic) {
    dmon.register_module(
        std::make_unique<Timed<core::CpuMonitor>>(host, dproc::seconds(5.0)));
    dmon.register_module(std::make_unique<Timed<core::MemMonitor>>(host));
    dmon.register_module(std::make_unique<Timed<core::DiskMonitor>>(host));
    dmon.register_module(std::make_unique<Timed<core::NetMonitor>>(
        host, nic, link_capacity_bps));
    dmon.register_module(std::make_unique<Timed<core::PmcMonitor>>(
        host, std::vector<std::string>{host::Pmc::kCacheMisses}));
  };
}

Result<std::string> traced_read(procfs::ProcFs& fs, const std::string& path) {
  const Span span{"procfs.read"};
  return fs.read(path);
}

Status traced_write(procfs::ProcFs& fs, const std::string& path,
                    const std::string& data) {
  const Span span{"procfs.write"};
  return fs.write(path, data);
}

bool field(const std::string& text, const std::string& key, double& out) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.size() > key.size() && line.compare(0, key.size(), key) == 0 &&
        line[key.size()] == ' ') {
      std::istringstream value(line.substr(key.size() + 1));
      return static_cast<bool>(value >> out);
    }
  }
  return false;
}

Phased draw_phases(dproc::Rng& rng, std::size_t count) {
  std::vector<std::pair<double, std::size_t>> draws(count);
  for (std::size_t i = 0; i < count; ++i) draws[i] = {rng.uniform(), i};
  std::sort(draws.begin(), draws.end());
  Phased out;
  out.phases.reserve(count);
  out.tasks.reserve(count);
  for (const auto& [phase, task] : draws) {
    out.phases.push_back(phase);
    out.tasks.push_back(task);
  }
  return out;
}

}  // namespace macro_e2e
