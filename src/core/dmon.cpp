#include "dproc/core/dmon.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

#include "dproc/net/fabric.hpp"
#include "dproc/net/wire.hpp"
#include "dproc/util/logging.hpp"

namespace dproc::core {

namespace {

constexpr std::uint8_t kOpMonitor = 1;
constexpr std::uint8_t kOpControl = 2;
constexpr std::uint8_t kOpMonitorBatch = 3;
constexpr std::uint8_t kOpInterest = 4;
// Hierarchical overlay (wire only when HierarchyConfig::enabled):
constexpr std::uint8_t kOpAggregate = 5;     // zone roll-up, tier-up
constexpr std::uint8_t kOpDrillRequest = 6;  // drill subscription, tier-down
constexpr std::uint8_t kOpDrillData = 7;     // drilled raw batch, tier-up

// Fixed KECho frame header (channel, source, submit time, payload length):
// the extra wire bytes an interest-skipped member never receives, on top of
// the payload itself.
constexpr std::size_t kKechoHeaderBytes = 4 + 4 + 8 + 4;

net::MessagePtr encode_monitor_event(const std::vector<MetricSample>& samples) {
  net::ByteWriter w;
  w.u8(kOpMonitor);
  w.u32(static_cast<std::uint32_t>(samples.size()));
  for (const MetricSample& s : samples) {
    w.u32(s.id);
    w.f64(s.value);
    w.i64(s.sampled_at.ns());
  }
  return net::make_message(w.take());
}

net::MessagePtr encode_batch_event(const net::MonitorBatch& batch) {
  net::ByteWriter w;
  w.reserve(1 + batch.encoded_bytes());
  w.u8(kOpMonitorBatch);
  batch.encode(w);
  return net::make_message(w.take());
}

net::MessagePtr encode_aggregate_event(const net::AggregateBatch& batch) {
  net::ByteWriter w;
  w.reserve(1 + batch.encoded_bytes());
  w.u8(kOpAggregate);
  batch.encode(w);
  return net::make_message(w.take());
}

net::MessagePtr encode_drill_request(net::NodeId requester, net::NodeId target,
                                     bool enable, std::uint32_t ttl_periods) {
  net::ByteWriter w;
  w.u8(kOpDrillRequest);
  w.u32(requester);
  w.u32(target);
  w.u8(enable ? 1 : 0);
  w.u32(ttl_periods);
  return net::make_message(w.take());
}

net::MessagePtr encode_drill_data(net::NodeId origin,
                                  const net::MonitorBatch& batch) {
  net::ByteWriter w;
  w.reserve(1 + 4 + batch.encoded_bytes());
  w.u8(kOpDrillData);
  w.u32(origin);
  batch.encode(w);
  return net::make_message(w.take());
}

/// Renders one metric's roll-up from an AggregateBatch for procfs (the
/// zone-summary and cluster-rollup files).
std::string render_aggregate_entry(const net::AggregateBatch& batch,
                                   MetricId id, SimTime now, SimTime built_at,
                                   const net::Fabric* fabric) {
  const net::AggregateBatch::Entry* entry = nullptr;
  for (const net::AggregateBatch::Entry& e : batch.entries) {
    if (e.id == id) {
      entry = &e;
      break;
    }
  }
  if (entry == nullptr) return "no data\n";
  std::ostringstream out;
  out << std::setprecision(12);
  out << "count " << entry->count << "\n";
  if (batch.has(net::AggregateBatch::kFlagMean) && entry->count > 0) {
    out << "mean " << (entry->sum / static_cast<double>(entry->count)) << "\n";
  }
  if (batch.has(net::AggregateBatch::kFlagMin)) {
    out << "min " << entry->min << "\n";
  }
  if (batch.has(net::AggregateBatch::kFlagMax)) {
    out << "max " << entry->max << "\n";
  }
  out << "latest_age_s " << (now - SimTime{entry->latest_ns}).sec() << "\n"
      << "built_age_s " << (now - built_at).sec() << "\n";
  for (const net::AggregateBatch::Top& top : entry->top) {
    out << "top ";
    if (fabric != nullptr && top.node < fabric->node_count()) {
      out << fabric->node_name(top.node);
    } else {
      out << top.node;
    }
    out << " " << top.value << "\n";
  }
  return out.str();
}

net::MessagePtr encode_control_event(net::NodeId target,
                                     const TuningConfig& config) {
  net::ByteWriter w;
  w.u8(kOpControl);
  w.u32(target);
  const std::vector<std::uint8_t> body = encode_tuning(config);
  w.u32(static_cast<std::uint32_t>(body.size()));
  auto message = std::make_shared<net::Message>();
  message->header = w.take();
  message->header.insert(message->header.end(), body.begin(), body.end());
  return message;
}

std::string render_value(const RemoteMetric& metric, SimTime now,
                         PeerState state) {
  if (!metric.valid) return "no data\n";
  std::ostringstream out;
  // age_s is measured from the publisher's sample time, so staleness readers
  // see the full data age (queueing + network latency included); recv_age_s
  // isolates how long ago the value arrived here.
  out << std::setprecision(12) << metric.value << "\n"
      << "sampled_at_s " << metric.sampled_at.sec() << "\n"
      << "age_s " << (now - metric.sampled_at).sec() << "\n"
      << "recv_age_s " << (now - metric.received_at).sec() << "\n";
  // Degradation marker only when degraded: healthy output is unchanged.
  if (state != PeerState::kLive) out << "state " << to_string(state) << "\n";
  return out.str();
}

}  // namespace

std::size_t group_by_range(const std::vector<MetricSample>& sorted,
                           const std::vector<MetricRange>& ranges,
                           std::vector<std::vector<MetricSample>>& groups) {
  groups.resize(ranges.size());
  for (std::vector<MetricSample>& group : groups) group.clear();
  std::size_t strays = 0;
  std::size_t cursor = 0;
  for (std::size_t gi = 0; gi < ranges.size(); ++gi) {
    const MetricRange& range = ranges[gi];
    // Ids below this range fit no earlier range either (both sides are
    // ascending): they are strays, not members of whichever group happens
    // to come next.
    while (cursor < sorted.size() && sorted[cursor].id < range.first) {
      ++strays;
      ++cursor;
    }
    while (cursor < sorted.size() &&
           sorted[cursor].id < range.first + range.count) {
      groups[gi].push_back(sorted[cursor]);
      ++cursor;
    }
  }
  strays += sorted.size() - cursor;  // beyond the last range
  return strays;
}

const char* to_string(PeerState state) {
  switch (state) {
    case PeerState::kLive:
      return "live";
    case PeerState::kStale:
      return "stale";
    case PeerState::kDead:
      return "dead";
  }
  return "?";
}

DMon::DMon(host::Host& host, net::Nic& nic, kecho::Node& kecho,
           procfs::ProcFs& procfs, DmonConfig config)
    : host_(host), nic_(nic), kecho_(kecho), procfs_(procfs),
      config_(std::move(config)),
      tm_polls_(host.telemetry().counter("dmon", "polls")),
      tm_events_submitted_(host.telemetry().counter("dmon", "events_submitted")),
      tm_events_received_(host.telemetry().counter("dmon", "events_received")),
      tm_suppressed_(host.telemetry().counter("dmon", "suppressed")),
      tm_filter_compiles_(host.telemetry().counter("dmon", "filter_compiles")),
      tm_filter_insns_(host.telemetry().counter("ecode", "filter_insns")),
      tm_slo_violations_(host.telemetry().counter("trace", "slo_violations")),
      tm_collect_errors_(host.telemetry().counter("dmon", "collect_errors")),
      tm_stray_samples_(host.telemetry().counter("dmon", "stray_samples")),
      tm_batch_submits_(host.telemetry().counter("dmon", "batch_submits")),
      tm_batch_samples_(host.telemetry().counter("dmon", "batch_samples")),
      tm_batch_delta_suppressed_(
          host.telemetry().counter("dmon", "batch_delta_suppressed")),
      tm_batch_keyframes_(host.telemetry().counter("dmon", "batch_keyframes")),
      tm_bytes_saved_(host.telemetry().counter("kecho", "bytes_saved")),
      tm_adapt_rounds_(host.telemetry().counter("dmon", "adapt_rounds")),
      tm_adapt_changes_(host.telemetry().counter("dmon", "adapt_changes")),
      tm_adapt_overhead_(host.telemetry().gauge("dmon", "adapt_overhead")),
      tm_poll_us_(host.telemetry().latency("dmon", "poll_us")),
      tm_submit_us_(host.telemetry().latency("dmon", "submit_us")),
      tm_receive_us_(host.telemetry().latency("dmon", "receive_us")) {
  procfs_.mkdir("/proc/cluster");
  procfs_.register_file("/proc/dproc/telemetry",
                        [this] { return host_.telemetry().render(); });
  procfs_.register_file("/proc/dproc/trace", [this] {
    const telemetry::Registry& tm = host_.telemetry();
    std::ostringstream out;
    out << "tracing " << (tm.trace_enabled() ? "enabled" : "disabled") << "\n"
        << "hops " << tm.hops().size() << "/" << tm.hops().capacity()
        << " dropped " << tm.hops().dropped() << "\n"
        << "slo_violations " << slo_violations() << "\n";
    if (!tm.hops().empty()) {
      const auto channels = kecho_.channels();
      out << telemetry::render_hop_breakdown(
          telemetry::hop_breakdown({&tm}),
          [&channels](std::uint32_t id) -> std::string {
            for (const auto& [cid, name] : channels) {
              if (cid == id) return name;
            }
            return {};
          });
    }
    return out.str();
  });
  procfs_.register_file("/proc/dproc/status", [this] {
    std::ostringstream out;
    out << "node " << nic_.node() << " (" << host_.name() << ")\n"
        << "poll_period " << to_string(config_.poll_period) << "\n"
        << "modules " << modules_.size() << "\n"
        << "metrics " << metric_table_.size() << "\n"
        << "last_submit_cost_us " << last_poll_.submit_cost.us() << "\n"
        << "last_receive_cost_us " << last_poll_.receive_cost.us() << "\n";
    if (config_.batch.enabled) {
      out << "batching on epsilon " << config_.batch.delta_epsilon
          << " keyframe_every " << config_.batch.keyframe_every
          << " interest " << (config_.batch.interest ? 1 : 0) << "\n"
          << "delta_suppressed " << delta_suppressed_total() << "\n"
          << "interest_bytes_saved " << interest_bytes_saved() << "\n";
    }
    if (collect_errors() > 0) {
      out << "collect_errors " << collect_errors() << "\n";
    }
    if (stray_samples() > 0) out << "stray_samples " << stray_samples() << "\n";
    if (!last_control_error_.empty()) {
      out << "last_control_error " << last_control_error_ << "\n";
    }
    if (tuning_) out << tuning_->describe();
    return out.str();
  });
  procfs_.register_file(
      "/proc/dproc/interest",
      [this] {
        std::ostringstream out;
        out << "local";
        if (local_interest_.empty()) out << " all";
        for (const std::string& name : local_interest_) out << " " << name;
        out << "\n";
        for (const auto& [node, set] : peer_interests_) {
          out << "peer " << node;
          for (const std::string& name : set) out << " " << name;
          out << "\n";
        }
        return out.str();
      },
      [this](const std::string& text) {
        std::istringstream in(text);
        std::vector<std::string> modules;
        std::string word;
        while (in >> word) {
          if (word == "all") return declare_interest({});
          modules.push_back(word);
        }
        return declare_interest(std::move(modules));
      });
  procfs_.register_file(
      "/proc/dproc/adapt",
      [this] {
        if (!adapter_) return std::string{"adaptation disabled\n"};
        return adapter_->describe();
      },
      [this](const std::string& text) {
        if (!adapter_) {
          return Status::failed_precondition("adaptation disabled");
        }
        // Knob language: `budget <fraction>` / `target <rate>`, one per
        // line, applied in order; the first bad line rejects the write.
        std::istringstream in(text);
        std::string line;
        while (std::getline(in, line)) {
          std::istringstream words(line);
          std::string command;
          if (!(words >> command) || command.starts_with('#')) continue;
          double value = 0.0;
          if (!(words >> value)) {
            return Status::invalid_argument(command + ": missing value");
          }
          Status status;
          if (command == "budget") {
            status = adapter_->set_budget(value);
          } else if (command == "target") {
            status = adapter_->set_target(value);
          } else {
            status = Status::invalid_argument("unknown adapt knob '" +
                                              command + "'");
          }
          if (!status) return status;
        }
        return Status::ok();
      });
  procfs_.register_file("/proc/dproc/flight", [this] {
    const telemetry::FlightRecorder& flight = host_.flight();
    std::ostringstream out;
    out << "recorder " << (flight.enabled() ? "enabled" : "disabled")
        << " capacity " << flight.capacity() << " retained " << flight.size()
        << " dropped " << flight.dropped() << "\n"
        << flight.render();
    return out.str();
  });
  if (config_.health.enabled) {
    health_ = std::make_unique<HealthEngine>(host_, &host_.flight(),
                                             config_.health);
    health_->set_node(nic_.node(), host_.name());
    procfs_.register_file("/proc/dproc/health",
                          [this] { return health_->render(); });
    procfs_.register_file("/proc/dproc/incidents",
                          [this] { return health_->render_incidents(); });
    // The cluster-wide view: this node's score plus every declared peer's
    // self-assessed score as received over the monitoring channel.
    procfs_.register_file("/proc/cluster/health", [this] {
      std::ostringstream out;
      out << "local " << host_.name() << " score " << health_->score()
          << " trusted " << (health_->trusted() ? 1 : 0) << "\n";
      for (const auto& [node, peer] : peers_) {
        out << "peer " << node << " " << peer.name << " score ";
        const RemoteMetric* m = remote_metric(node, "dproc_health_score");
        if (m == nullptr) {
          out << "- trusted -\n";
        } else {
          out << m->value << " trusted " << (peer_health_ok(node) ? 1 : 0)
              << "\n";
        }
      }
      return out.str();
    });
  }
  kecho_.add_membership_listener(
      [this](kecho::MemberEventKind kind, net::NodeId node) {
        on_membership(kind, node);
      });
  rebuild_tuning();
}

DMon::~DMon() { stop(); }

void DMon::charge(double cycles) {
  if (cycles <= 0) return;
  host_.cpu().consume_kernel_cycles(cycles);
}

void DMon::rebuild_tuning() {
  tuning_ = std::make_unique<PublisherTuning>(config_.poll_period, metric_ids_);
  tuning_->enable_sketch_builtins(config_.sketch.enabled);
  tuning_->set_sketch_host(sketch_bridge_.get());
}

void DMon::register_module(std::unique_ptr<MonitoringModule> module) {
  ModuleEntry entry;
  entry.first_id = static_cast<MetricId>(metric_table_.size());
  std::vector<MetricDesc> descs = module->metrics();
  entry.metric_count = descs.size();
  entry.module = std::move(module);
  for (MetricDesc& desc : descs) {
    desc.id = static_cast<MetricId>(metric_table_.size());
    metric_ids_[desc.key] = desc.id;
    metric_table_.push_back(desc);
  }
  register_local_files(entry);
  // NET_MON additionally serves the per-connection table.
  if (auto* net_monitor = dynamic_cast<NetMonitor*>(entry.module.get())) {
    procfs_.register_file("/proc/net/connections", [net_monitor] {
      return net_monitor->render_connections();
    });
  }
  // With sketch support on, the first TOP_K module's sketch becomes the
  // host deployed filters read; later ones are skmerge() auxiliaries.
  if (config_.sketch.enabled) {
    if (auto* topk = dynamic_cast<TopKMonitor*>(entry.module.get())) {
      if (sketch_bridge_ == nullptr) {
        sketch_bridge_ = std::make_unique<FilterSketchBridge>(topk->sketch());
      } else {
        sketch_bridge_->add_aux(topk->sketch());
      }
    }
  }
  modules_.push_back(std::move(entry));
  const ModuleEntry& added = modules_.back();
  module_ranges_.push_back(MetricRange{added.first_id, added.metric_count});
  last_collected_.resize(metric_table_.size());
  last_published_.resize(metric_table_.size());
  rebuild_tuning();

  // Peers declared before this module gained metrics: create their files.
  for (auto& [node, peer] : peers_) {
    peer.metrics.resize(metric_table_.size());
    for (std::size_t i = entry.first_id; i < metric_table_.size(); ++i) {
      const MetricDesc& desc = metric_table_[i];
      const net::NodeId node_copy = node;
      const MetricId id = desc.id;
      procfs_.register_file(
          "/proc/cluster/" + peer.name + "/" + desc.path, [this, node_copy, id] {
            auto it = peers_.find(node_copy);
            if (it == peers_.end() || id >= it->second.metrics.size()) {
              return std::string{"no data\n"};
            }
            return render_value(it->second.metrics[id], host_.engine().now(),
                                state_of(it->second));
          });
    }
  }
}

void DMon::register_local_files(const ModuleEntry& entry) {
  for (std::size_t i = 0; i < entry.metric_count; ++i) {
    const MetricDesc& desc = metric_table_[entry.first_id + i];
    const MetricId id = desc.id;
    procfs_.register_file("/proc/" + desc.path, [this, id] {
      if (id >= last_collected_.size()) return std::string{"no data\n"};
      std::ostringstream out;
      out << std::setprecision(12) << last_collected_[id].value << "\n";
      return out.str();
    });
  }
}

void DMon::add_peer(net::NodeId node, const std::string& name) {
  auto [it, created] = peers_.try_emplace(node);
  Peer& peer = it->second;
  peer.name = name;
  peer.metrics.resize(metric_table_.size());
  if (created) peer.declared_at = host_.engine().now();
  for (const MetricDesc& desc : metric_table_) {
    const MetricId id = desc.id;
    procfs_.register_file(
        "/proc/cluster/" + name + "/" + desc.path, [this, node, id] {
          auto peer_it = peers_.find(node);
          if (peer_it == peers_.end() || id >= peer_it->second.metrics.size()) {
            return std::string{"no data\n"};
          }
          return render_value(peer_it->second.metrics[id],
                              host_.engine().now(), state_of(peer_it->second));
        });
  }
  procfs_.register_file("/proc/cluster/" + name + "/status", [this, node] {
    auto peer_it = peers_.find(node);
    if (peer_it == peers_.end()) return std::string{"state dead\n"};
    const Peer& p = peer_it->second;
    std::ostringstream out;
    out << "state " << to_string(state_of(p)) << "\n"
        << "has_data " << (p.has_data ? 1 : 0) << "\n"
        << "last_update_s " << p.last_update.sec() << "\n"
        << "age_s " << (host_.engine().now() - p.last_update).sec() << "\n";
    return out.str();
  });
  procfs_.register_file(
      "/proc/cluster/" + name + "/control",
      [name] {
        return "# write control commands for node " + name +
               ": period/threshold/differential/fuel/filter/clear\n";
      },
      [this, node](const std::string& text) {
        auto config = parse_control_commands(text);
        if (!config) return config.status();
        return send_tuning(node, config.value());
      });
}

void DMon::start() {
  if (started_) return;
  started_ = true;
  if (config_.adapt.enabled && adapter_ == nullptr) {
    // Regions mirror the module ranges registered so far (the cluster
    // builder registers every module before start_dproc); modules added
    // later keep their static periods.
    adapter_ = std::make_unique<PeriodController>(config_.adapt,
                                                  tuning_->default_period());
    for (std::size_t i = 0; i < modules_.size(); ++i) {
      adapter_->add_region(modules_[i].module->name(),
                           module_ranges_[i].first, module_ranges_[i].count);
    }
  }
  if (config_.hierarchy.enabled && config_.hierarchy_layout != nullptr) {
    start_hierarchy();
  } else {
    monitor_channel_ = &kecho_.join(config_.monitor_channel);
    monitor_channel_->set_handler(
        [this](const kecho::Event& event) { on_monitor_event(event); });
    control_channel_ = &kecho_.join(config_.control_channel);
    control_channel_->set_handler(
        [this](const kecho::Event& event) { on_control_event(event); });
  }
  poll_timer_ = host_.engine().schedule_periodic(config_.poll_period,
                                                 [this] { poll(); });
}

void DMon::stop() {
  poll_timer_.cancel();
  started_ = false;
}

void DMon::restart() {
  stop();
  for (auto& [node, peer] : peers_) {
    std::fill(peer.metrics.begin(), peer.metrics.end(), RemoteMetric{});
    peer.declared_at = host_.engine().now();
    peer.last_update = SimTime{};
    peer.has_data = false;
    peer.dead = false;
    peer.slo_violated = false;
    peer.last_slo_violation = SimTime{};
    peer.last_state = PeerState::kLive;
  }
  // A rebooted monitor has no roll-up, drill or membership memory either;
  // the keyframed zone feeds and drill refreshes reconverge it.
  for (ZoneDuty& duty : duties_) {
    duty.rollup.clear();
    duty.drills.clear();
    duty.last_built_valid = false;
  }
  hier_dead_.clear();
  local_drills_.clear();
  summary_valid_ = false;
  // A rebooted controller has no rate memory; periods restart at base.
  if (adapter_) adapter_->reset();
  tuning_->clear_adaptive_periods();
  adapt_poll_count_ = 0;
  adapt_window_cost_ = SimDuration::zero();
  force_keyframe_ = false;
  start();
}

PeerState DMon::state_of(const Peer& peer) const {
  if (peer.dead) return PeerState::kDead;
  const SimDuration horizon =
      config_.poll_period * static_cast<double>(config_.stale_after_periods);
  const SimTime basis = peer.has_data ? peer.last_update : peer.declared_at;
  return host_.engine().now() - basis > horizon ? PeerState::kStale
                                                : PeerState::kLive;
}

std::optional<PeerHealth> DMon::peer_health(net::NodeId node) const {
  auto it = peers_.find(node);
  if (it == peers_.end()) return std::nullopt;
  const Peer& peer = it->second;
  return PeerHealth{state_of(peer), peer.last_update, peer.has_data,
                    feed_within_slo(node)};
}

bool DMon::feed_within_slo(net::NodeId node) const {
  auto it = peers_.find(node);
  if (it == peers_.end() || !it->second.slo_violated) return true;
  // Sticky for the staleness horizon: one violation distrusts the feed
  // until a horizon's worth of in-budget updates has passed.
  const SimDuration horizon =
      config_.poll_period * static_cast<double>(config_.stale_after_periods);
  return host_.engine().now() - it->second.last_slo_violation > horizon;
}

PeerState DMon::peer_state(net::NodeId node) const {
  auto health = peer_health(node);
  return health ? health->state : PeerState::kDead;
}

bool DMon::peer_health_ok(net::NodeId node) const {
  if (!health_) return true;
  if (!health_score_id_) {
    const auto id = metric_id("dproc_health_score");
    if (!id) return true;  // DPROC_MON not registered (yet)
    health_score_id_ = id;
  }
  const RemoteMetric* m = remote_metric(node, *health_score_id_);
  if (m == nullptr) return true;  // no score yet: absence is peer_state's job
  return m->value >= config_.health.trust_threshold;
}

void DMon::scan_peer_health(SimTime now) {
  telemetry::FlightRecorder& flight = host_.flight();
  const bool flight_on = flight.enabled();
  if (!flight_on && !health_) return;
  HealthSnapshot census;
  census.peers_total = peers_.size();
  for (auto& [node, peer] : peers_) {
    const PeerState state = state_of(peer);
    if (state == PeerState::kStale) ++census.peers_stale;
    if (state == PeerState::kDead) ++census.peers_dead;
    if (flight_on && state != peer.last_state) {
      const SimTime basis = peer.has_data ? peer.last_update : peer.declared_at;
      const auto age_ms =
          static_cast<std::uint64_t>((now - basis).ns() / 1'000'000);
      switch (state) {
        case PeerState::kLive:
          flight.record(telemetry::Severity::kInfo,
                        telemetry::FlightSubsystem::kDmon,
                        telemetry::FlightCode::kPeerLive, node);
          break;
        case PeerState::kStale:
          flight.record(telemetry::Severity::kWarn,
                        telemetry::FlightSubsystem::kDmon,
                        telemetry::FlightCode::kPeerStale, node, age_ms);
          break;
        case PeerState::kDead:
          flight.record(telemetry::Severity::kError,
                        telemetry::FlightSubsystem::kDmon,
                        telemetry::FlightCode::kPeerDead, node, age_ms);
          break;
      }
    }
    peer.last_state = state;
  }
  if (health_) {
    // The engine round is kernel work like any other per-poll bookkeeping.
    charge(config_.overheads.procfs_update_cycles_per_event);
    health_->on_poll(census, now);
  }
}

void DMon::on_membership(kecho::MemberEventKind kind, net::NodeId node) {
  if (hier_) {
    // The election's shared membership view: every candidate derives the
    // acting aggregator from the same events, so leaves, standbys and
    // parents converge on the same answer without a protocol.
    if (kind == kecho::MemberEventKind::kJoined) {
      hier_dead_.erase(node);
    } else {
      hier_dead_.insert(node);
      if (kind == kecho::MemberEventKind::kLeft) {
        // A confirmed departure's samples must not linger in the roll-up.
        for (ZoneDuty& duty : duties_) duty.rollup.forget_origin(node);
      }
    }
  }
  if (kind == kecho::MemberEventKind::kJoined) {
    // The joiner may be a publisher that has never seen this node's
    // interest declaration (it joined after we declared, or it restarted
    // and lost its table): re-broadcast so late publishers converge.
    broadcast_interest();
  } else if (kind == kecho::MemberEventKind::kLeft) {
    // A confirmed departure forgets the peer's interest; an eviction does
    // not (it may be spurious, and a wrongly-narrowed feed is worse than a
    // few extra bytes to a dead node).
    peer_interests_.erase(node);
  }
  auto it = peers_.find(node);
  if (it == peers_.end()) return;
  switch (kind) {
    case kecho::MemberEventKind::kJoined:
      // A (re)joined peer gets a fresh grace window before going stale.
      it->second.dead = false;
      if (!it->second.has_data) it->second.declared_at = host_.engine().now();
      break;
    case kecho::MemberEventKind::kEvicted:
      it->second.dead = true;
      break;
    case kecho::MemberEventKind::kLeft:
      // Confirmed departure: purge the procfs subtree and forget the peer.
      (void)procfs_.remove("/proc/cluster/" + it->second.name);
      peers_.erase(it);
      break;
  }
}

std::optional<MetricId> DMon::metric_id(const std::string& key) const {
  auto it = metric_ids_.find(key);
  if (it == metric_ids_.end()) return std::nullopt;
  return it->second;
}

const RemoteMetric* DMon::remote_metric(net::NodeId node, MetricId id) const {
  auto it = peers_.find(node);
  if (it == peers_.end() || id >= it->second.metrics.size()) return nullptr;
  const RemoteMetric& metric = it->second.metrics[id];
  return metric.valid ? &metric : nullptr;
}

const RemoteMetric* DMon::remote_metric(net::NodeId node,
                                        const std::string& key) const {
  auto id = metric_id(key);
  return id ? remote_metric(node, *id) : nullptr;
}

Status DMon::apply_tuning(const TuningConfig& config) {
  charge(config_.overheads.control_apply_cycles);
  // Module-internal sampling windows (e.g. CPU_MON's run-queue averaging
  // period): resolve and validate every target before touching any module,
  // so a request that half-fails leaves no window already rewritten — the
  // whole request applies or none of it does.
  std::vector<std::pair<MonitoringModule*, SimDuration>> window_updates;
  window_updates.reserve(config.module_periods.size());
  for (const auto& [module_name, period] : config.module_periods) {
    if (period <= SimDuration::zero()) {
      Status status =
          Status::invalid_argument("module window must be positive");
      last_control_error_ = status.to_string();
      return status;
    }
    MonitoringModule* target = nullptr;
    for (ModuleEntry& entry : modules_) {
      if (entry.module->name() == module_name) {
        target = entry.module.get();
        break;
      }
    }
    if (target == nullptr) {
      Status status = Status::not_found("unknown module '" + module_name + "'");
      last_control_error_ = status.to_string();
      return status;
    }
    window_updates.emplace_back(target, period);
  }
  const std::uint64_t compiles_before = tuning_->filter_compiles();
  Status status = tuning_->apply(config);
  // Compile cycles are charged only when the tuning actually compiled —
  // re-installing an unchanged source hits the compiled-program cache.
  if (tuning_->filter_compiles() > compiles_before && config.filter_source) {
    charge(config_.overheads.filter_compile_cycles_per_byte *
           static_cast<double>(config.filter_source->size()));
    tm_filter_compiles_.add();
  }
  last_control_error_ = status.is_ok() ? std::string{} : status.to_string();
  if (!status) return status;
  for (const auto& [module, period] : window_updates) {
    module->set_period(period);
  }
  // Any effective-period change invalidates delta-suppressed subscribers'
  // decode baselines (their next expected update may now be a slow period
  // away): force a keyframe so they re-anchor immediately. Filter-only or
  // threshold-only configs leave the cadence alone.
  if (config.clear || config.default_period || !config.metric_periods.empty() ||
      !config.module_periods.empty()) {
    force_keyframe_ = true;
  }
  return status;
}

Status DMon::send_tuning(net::NodeId target, const TuningConfig& config) {
  if (target == nic_.node()) return apply_tuning(config);
  // Metric names and filter sources follow cluster-wide conventions, so a
  // bad parameter or a filter that cannot compile is caught here and the
  // error surfaced to the writer instead of dying silently at the remote
  // publisher. (Module names stay remote-validated: module sets are
  // per-node.)
  Status valid = tuning_->validate(config);
  if (!valid) {
    last_control_error_ = valid.to_string();
    return valid;
  }
  if (control_channel_ == nullptr || !control_channel_->ready()) {
    return Status::failed_precondition(
        "control channel not established yet");
  }
  const net::MessagePtr frame = encode_control_event(target, config);
  control_channel_->submit(frame, begin_trace(control_channel_->id()));
  return Status::ok();
}

net::TraceContext DMon::begin_trace(kecho::ChannelId channel) {
  if (!host_.telemetry().trace_enabled()) return {};
  const std::int64_t now_ns = host_.engine().now().ns();
  net::TraceContext ctx;
  // Cluster-unique and deterministic: the high word is the origin node,
  // the low word a per-node sequence.
  ctx.trace_id = (static_cast<std::uint64_t>(nic_.node()) << 32) |
                 static_cast<std::uint64_t>(++trace_seq_);
  ctx.origin = nic_.node();
  ctx.hop = static_cast<std::uint8_t>(telemetry::HopStage::kPublish);
  ctx.publish_ns = now_ns;
  ctx.prev_hop_ns = now_ns;
  host_.telemetry().record_hop(telemetry::Hop{
      ctx.trace_id, ctx.origin, channel, telemetry::HopStage::kPublish, now_ns,
      0});
  return ctx;
}

void DMon::note_render(const kecho::Event& event,
                       const std::string& slo_channel, Peer* peer) {
  if (!event.trace.valid() || !host_.telemetry().trace_enabled()) return;
  const std::int64_t now_ns = host_.engine().now().ns();
  host_.telemetry().record_hop(telemetry::Hop{
      event.trace.trace_id, event.trace.origin, event.channel,
      telemetry::HopStage::kRender, now_ns,
      now_ns - event.trace.prev_hop_ns});
  // Staleness SLO watchdog: the end-to-end age of the sample at the moment
  // it becomes visible to consumers, against the channel's budget.
  const SimDuration budget = config_.trace.slo_for(slo_channel);
  if (budget <= SimDuration::zero()) return;
  const SimDuration age = SimTime{now_ns} - SimTime{event.trace.publish_ns};
  if (age <= budget) return;
  tm_slo_violations_.add();
  host_.flight().record(telemetry::Severity::kWarn,
                        telemetry::FlightSubsystem::kDmon,
                        telemetry::FlightCode::kSloViolation,
                        event.trace.origin,
                        static_cast<std::uint64_t>(age.ns() / 1'000'000),
                        static_cast<std::uint64_t>(budget.ns() / 1'000'000), 0,
                        event.trace.trace_id);
  if (peer != nullptr) {
    peer->slo_violated = true;
    peer->last_slo_violation = SimTime{now_ns};
  }
  DPROC_DEBUG() << "dmon " << nic_.node() << ": trace " << event.trace.trace_id
                << " from node " << event.trace.origin << " exceeded "
                << slo_channel << " staleness budget (" << age.us()
                << " us > " << budget.us() << " us)";
}

DMon::Peer& DMon::ensure_peer(net::NodeId origin) {
  auto it = peers_.find(origin);
  if (it == peers_.end()) {
    // Peer never declared: learn it from the fabric's name table.
    add_peer(origin, nic_.fabric().node_name(origin));
    it = peers_.find(origin);
  }
  return it->second;
}

void DMon::apply_batch_to_peer(Peer& peer, const net::MonitorBatch& batch,
                               std::uint64_t trace_id) {
  const SimTime now = host_.engine().now();
  for (const net::MonitorBatch::Entry& e : batch.entries) {
    if (e.id < peer.metrics.size()) {
      peer.metrics[e.id] =
          RemoteMetric{e.value, SimTime{e.sampled_ns}, now, true, trace_id};
    }
  }
}

void DMon::on_monitor_event(const kecho::Event& event) {
  net::ByteReader r{event.payload_header()};
  const std::uint8_t op = r.u8();
  if (hier_ && op == kOpAggregate) {
    // The root summary arriving at a subscriber (or standby root
    // candidate, keeping its failover state warm).
    if (!net::AggregateBatch::decode(r, agg_rx_)) {
      DPROC_WARN() << "dmon " << nic_.node()
                   << ": malformed aggregate event from " << event.source;
      return;
    }
    summary_ = agg_rx_;
    summary_at_ = host_.engine().now();
    summary_valid_ = true;
    if (agg_rx_.tier < tm_tier_.size()) {
      tm_tier_[agg_rx_.tier].rx_events->add();
      tm_tier_[agg_rx_.tier].rx_bytes->add(event.payload_size());
    }
    note_render(event, config_.monitor_channel, nullptr);
    const double cycles = config_.overheads.procfs_update_cycles_per_event;
    charge(cycles);
    handler_cost_ += seconds(cycles / host_.cpu().config().clock_hz);
    return;
  }
  if (hier_ && op == kOpDrillRequest) {
    // Root intake of a subscriber's drill subscription.
    const net::NodeId requester = r.u32();
    const net::NodeId target = r.u32();
    const bool enable = r.u8() != 0;
    const std::uint32_t ttl = r.u32();
    if (!r.ok()) return;
    if (ZoneDuty* root = duty_of(config_.hierarchy_layout->root().id)) {
      const SimTime expiry =
          host_.engine().now() + config_.poll_period * static_cast<double>(ttl);
      apply_drill(*root, requester, target, enable, expiry);
    }
    return;
  }
  if (hier_ && op == kOpDrillData) {
    // Requester receipt: the drilled node's raw feed, unflattened from the
    // tree — apply it exactly like a direct monitoring batch.
    const net::NodeId origin = r.u32();
    if (!net::MonitorBatch::decode(r, rx_batch_) ||
        origin >= nic_.fabric().node_count()) {
      DPROC_WARN() << "dmon " << nic_.node()
                   << ": malformed drill data from " << event.source;
      return;
    }
    Peer& peer = ensure_peer(origin);
    peer.last_update = host_.engine().now();
    peer.has_data = true;
    peer.dead = false;
    apply_batch_to_peer(peer, rx_batch_, event.trace.trace_id);
    if (tm_hier_drill_data_ != nullptr) tm_hier_drill_data_->add();
    const double cycles = config_.overheads.procfs_update_cycles_per_event;
    charge(cycles);
    handler_cost_ += seconds(cycles / host_.cpu().config().clock_hz);
    return;
  }
  if (op != kOpMonitor && op != kOpMonitorBatch) return;
  if (op == kOpMonitorBatch && !net::MonitorBatch::decode(r, rx_batch_)) {
    DPROC_WARN() << "dmon " << nic_.node() << ": malformed batch event from "
                 << event.source;
    return;
  }

  Peer& peer = ensure_peer(event.source);
  // Any event is a sign of life: refresh the staleness clock and clear a
  // possibly spurious eviction.
  peer.last_update = host_.engine().now();
  peer.has_data = true;
  peer.dead = false;

  if (op == kOpMonitor) {
    const std::uint32_t count = r.u32();
    for (std::uint32_t i = 0; i < count && r.ok(); ++i) {
      const MetricId id = r.u32();
      const double value = r.f64();
      const SimTime sampled{r.i64()};
      if (id < peer.metrics.size()) {
        peer.metrics[id] = RemoteMetric{value, sampled, host_.engine().now(),
                                        true, event.trace.trace_id};
      }
    }
  } else {
    apply_batch_to_peer(peer, rx_batch_, event.trace.trace_id);
  }
  note_render(event, config_.monitor_channel, &peer);
  const double cycles = config_.overheads.procfs_update_cycles_per_event;
  charge(cycles);
  handler_cost_ += seconds(cycles / host_.cpu().config().clock_hz);
}

void DMon::on_control_event(const kecho::Event& event) {
  const std::span<const std::uint8_t> header = event.payload_header();
  net::ByteReader r{header};
  const std::uint8_t op = r.u8();
  if (op == kOpInterest) {
    on_interest_event(event, r);
    return;
  }
  if (op != kOpControl) return;
  const net::NodeId target = r.u32();
  if (target != nic_.node()) return;
  const std::uint32_t body_size = r.u32();
  if (!r.ok() || r.remaining() != body_size) {
    DPROC_WARN() << "dmon " << nic_.node() << ": malformed control event";
    return;
  }
  auto config = decode_tuning(header.subspan(header.size() - body_size));
  if (!config) {
    DPROC_WARN() << "dmon " << nic_.node()
                 << ": bad tuning payload: " << config.status().to_string();
    return;
  }
  const SimDuration before = host_.cpu().kernel_cpu_time();
  Status status = apply_tuning(config.value());
  handler_cost_ += host_.cpu().kernel_cpu_time() - before;
  // Applying a control event is its render hop: the retune became visible.
  note_render(event, config_.control_channel, nullptr);
  if (!status) {
    DPROC_WARN() << "dmon " << nic_.node()
                 << ": tuning from node " << event.source
                 << " rejected: " << status.to_string();
  }
}

void DMon::on_interest_event(const kecho::Event& event, net::ByteReader& r) {
  const std::uint32_t count = r.u32();
  std::vector<std::string> modules;
  for (std::uint32_t i = 0; i < count && r.ok(); ++i) {
    modules.push_back(r.str());
  }
  if (!r.ok()) {
    DPROC_WARN() << "dmon " << nic_.node()
                 << ": malformed interest event from " << event.source;
    return;
  }
  std::sort(modules.begin(), modules.end());
  modules.erase(std::unique(modules.begin(), modules.end()), modules.end());
  if (modules.empty()) {
    // Empty set = interested in everything again.
    peer_interests_.erase(event.source);
  } else {
    peer_interests_[event.source] = std::move(modules);
  }
  // Storing the declaration is its render hop: it became effective.
  note_render(event, config_.control_channel, nullptr);
  const double cycles = config_.overheads.procfs_update_cycles_per_event;
  charge(cycles);
  handler_cost_ += seconds(cycles / host_.cpu().config().clock_hz);
}

Status DMon::declare_interest(std::vector<std::string> modules) {
  std::sort(modules.begin(), modules.end());
  modules.erase(std::unique(modules.begin(), modules.end()), modules.end());
  local_interest_ = std::move(modules);
  interest_declared_ = true;
  if (control_channel_ == nullptr || !control_channel_->ready()) {
    // Remembered anyway: the declaration goes out when membership events
    // fire after the channel comes up.
    return Status::failed_precondition("control channel not established yet");
  }
  broadcast_interest();
  return Status::ok();
}

void DMon::broadcast_interest() {
  if (!interest_declared_ || control_channel_ == nullptr ||
      !control_channel_->ready()) {
    return;
  }
  net::ByteWriter w;
  w.u8(kOpInterest);
  w.u32(static_cast<std::uint32_t>(local_interest_.size()));
  for (const std::string& name : local_interest_) w.str(name);
  const net::MessagePtr frame = net::make_message(w.take());
  control_channel_->submit(frame, begin_trace(control_channel_->id()));
}

void DMon::note_strays(std::size_t count) {
  if (count == 0) return;
  tm_stray_samples_.add(count);
  if (!warned_strays_) {
    warned_strays_ = true;
    DPROC_WARN() << "dmon " << nic_.node() << ": dropped " << count
                 << " publish-ready sample(s) whose id fits no registered "
                    "module range (stale or unregistered metric id)";
  }
}

void DMon::submit_per_module(const std::vector<MetricSample>& sorted,
                             PollRecord& record) {
  const std::size_t strays =
      group_by_range(sorted, module_ranges_, groups_scratch_);
  note_strays(strays);
  for (const std::vector<MetricSample>& group : groups_scratch_) {
    if (group.empty()) continue;
    const net::MessagePtr frame = encode_monitor_event(group);
    record.submit_cost +=
        monitor_channel_->submit(frame, begin_trace(monitor_channel_->id()));
    ++record.events_submitted;
    record.samples_published += group.size();
  }
}

bool DMon::build_publish_batch(std::vector<MetricSample>& sorted,
                               PollRecord& record, net::MonitorBatch& batch) {
  // Strays cannot ride in a batch either: peers index their metric tables
  // by id, and a stale id would overwrite some other metric's slot there.
  std::size_t strays = 0;
  std::erase_if(sorted, [&](const MetricSample& s) {
    if (s.id < metric_table_.size()) return false;
    ++strays;
    return true;
  });
  note_strays(strays);

  // The hierarchy path calls this with batching off too (zone feeds are
  // always MonitorBatch frames); without BatchConfig every frame is a
  // keyframe and delta suppression stays inert.
  const bool keyframe =
      force_keyframe_ ||
      !config_.batch.enabled || config_.batch.keyframe_every <= 1 ||
      batch_seq_ %
              static_cast<std::uint64_t>(config_.batch.keyframe_every) ==
          0;
  ++batch_seq_;
  if (last_published_.size() < metric_table_.size()) {
    last_published_.resize(metric_table_.size());
  }

  batch.flags = 0;
  batch.entries.clear();
  batch.entries.reserve(sorted.size());
  for (const MetricSample& s : sorted) {
    if (!keyframe && config_.batch.delta_epsilon >= 0 &&
        last_published_[s.id].published &&
        std::abs(s.value - last_published_[s.id].value) <=
            config_.batch.delta_epsilon) {
      ++record.delta_suppressed;
      continue;
    }
    batch.entries.push_back(
        net::MonitorBatch::Entry{s.id, s.value, s.sampled_at.ns()});
  }
  tm_batch_delta_suppressed_.add(record.delta_suppressed);
  // A period where everything was suppressed sends no frame at all — same
  // as a period where the filter kept everything back.
  if (batch.entries.empty()) return false;

  // The pending force is satisfied only once a keyframe actually goes out;
  // an all-suppressed or empty period keeps it armed for the next frame.
  if (keyframe) force_keyframe_ = false;
  if (keyframe) batch.flags |= net::MonitorBatch::kFlagKeyframe;
  record.keyframe = keyframe;
  for (const net::MonitorBatch::Entry& e : batch.entries) {
    last_published_[e.id] = PublishedState{true, e.value};
  }
  record.samples_published = batch.entries.size();
  return true;
}

void DMon::submit_batch(std::vector<MetricSample>& sorted, PollRecord& record) {
  if (!build_publish_batch(sorted, record, batch_scratch_)) return;
  const net::MonitorBatch& batch = batch_scratch_;
  const net::MessagePtr full = encode_batch_event(batch);
  if (!config_.batch.interest || peer_interests_.empty()) {
    record.submit_cost +=
        monitor_channel_->submit(full, begin_trace(monitor_channel_->id()));
  } else {
    // Per-member payload selection: one filtered frame per distinct
    // interest set (members sharing a set share the encoding), the full
    // frame for members that never declared, nullptr (skip) for members
    // whose set matches nothing in this batch. The cache vector and the
    // filtered batch are persistent scratch — cleared here, capacity kept.
    auto& cache = interest_cache_;
    cache.clear();
    std::uint64_t saved = 0;
    auto interested = [this](const std::vector<std::string>& set,
                             MetricId id) {
      for (std::size_t mi = 0; mi < module_ranges_.size(); ++mi) {
        const MetricRange& range = module_ranges_[mi];
        if (id >= range.first && id < range.first + range.count) {
          return std::binary_search(set.begin(), set.end(),
                                    modules_[mi].module->name());
        }
      }
      return false;
    };
    auto select = [&](net::NodeId member) -> net::MessagePtr {
      auto it = peer_interests_.find(member);
      if (it == peer_interests_.end() || it->second.empty()) return full;
      net::MessagePtr frame;
      bool cached = false;
      for (const auto& [set, cached_frame] : cache) {
        if (*set == it->second) {
          frame = cached_frame;
          cached = true;
          break;
        }
      }
      if (!cached) {
        filtered_scratch_.flags = batch.flags;
        filtered_scratch_.entries.clear();
        for (const net::MonitorBatch::Entry& e : batch.entries) {
          if (interested(it->second, e.id)) {
            filtered_scratch_.entries.push_back(e);
          }
        }
        if (!filtered_scratch_.entries.empty()) {
          frame = encode_batch_event(filtered_scratch_);
        }
        cache.emplace_back(&it->second, frame);
      }
      if (frame == nullptr) {
        saved += full->size() + kKechoHeaderBytes;
      } else if (frame != full) {
        saved += full->size() - frame->size();
      }
      return frame;
    };
    record.submit_cost += monitor_channel_->submit_to_each(
        select, begin_trace(monitor_channel_->id()));
    tm_bytes_saved_.add(saved);
  }
  ++record.events_submitted;
  tm_batch_submits_.add();
  tm_batch_samples_.add(batch.entries.size());
  if (record.keyframe) tm_batch_keyframes_.add();
}

// --- hierarchical aggregation overlay --------------------------------------

bool DMon::hier_alive(std::size_t node) const {
  return node == static_cast<std::size_t>(nic_.node()) ||
         hier_dead_.find(node) == hier_dead_.end();
}

std::optional<std::size_t> DMon::zone_acting(std::uint32_t zone_id) const {
  if (config_.hierarchy_layout == nullptr) return std::nullopt;
  const HierarchyLayout& layout = *config_.hierarchy_layout;
  if (zone_id >= layout.zones().size()) return std::nullopt;
  return layout.acting(layout.zone(zone_id),
                       [this](std::size_t node) { return hier_alive(node); });
}

DMon::ZoneDuty* DMon::duty_of(std::uint32_t zone_id) {
  for (ZoneDuty& duty : duties_) {
    if (duty.zone->id == zone_id) return &duty;
  }
  return nullptr;
}

kecho::Channel* DMon::join_zone_channel(std::uint32_t zone_id) {
  auto it = zone_channels_.find(zone_id);
  if (it != zone_channels_.end()) return it->second;
  const HierarchyZone& zone = config_.hierarchy_layout->zone(zone_id);
  kecho::Channel& channel =
      kecho_.join(config_.monitor_channel + "." + zone.name);
  channel.set_handler([this, zone_id](const kecho::Event& event) {
    on_zone_event(zone_id, event);
  });
  zone_channels_[zone_id] = &channel;
  return &channel;
}

void DMon::start_hierarchy() {
  const HierarchyLayout& layout = *config_.hierarchy_layout;
  const std::size_t self = nic_.node();
  if (self >= layout.node_count()) {
    // Outside the layout (a late-added node): fall back to the flat stack
    // rather than publishing into zones nobody aggregates.
    DPROC_WARN() << "dmon " << self
                 << ": node outside the hierarchy layout; running flat";
    monitor_channel_ = &kecho_.join(config_.monitor_channel);
    monitor_channel_->set_handler(
        [this](const kecho::Event& event) { on_monitor_event(event); });
    control_channel_ = &kecho_.join(config_.control_channel);
    control_channel_->set_handler(
        [this](const kecho::Event& event) { on_control_event(event); });
    return;
  }
  hier_ = true;
  leaf_zone_ = &layout.leaf_of(self);

  bool subscriber = !config_.hierarchy.subscribers.has_value();
  if (config_.hierarchy.subscribers) {
    for (const std::size_t node : *config_.hierarchy.subscribers) {
      if (node == self) {
        subscriber = true;
        break;
      }
    }
  }
  const std::vector<std::uint32_t> duty_ids = layout.duty_zones(self);
  bool root_candidate = false;
  for (const std::uint32_t zid : duty_ids) {
    if (zid == layout.root().id) root_candidate = true;
  }
  // Summary membership: subscribers (to read) and root candidates (to
  // publish and to take drill requests). The control channel stays
  // subscriber-scoped — zone traffic never rides it.
  if (subscriber || root_candidate) {
    monitor_channel_ = &kecho_.join(config_.monitor_channel);
    monitor_channel_->set_handler(
        [this](const kecho::Event& event) { on_monitor_event(event); });
  }
  if (subscriber) {
    control_channel_ = &kecho_.join(config_.control_channel);
    control_channel_->set_handler(
        [this](const kecho::Event& event) { on_control_event(event); });
  }

  duties_.clear();
  for (const std::uint32_t zid : duty_ids) {
    ZoneDuty duty;
    duty.zone = &layout.zone(zid);
    duty.channel = join_zone_channel(zid);
    duty.parent_channel = duty.zone->parent
                              ? join_zone_channel(*duty.zone->parent)
                              : monitor_channel_;
    duties_.push_back(std::move(duty));
  }

  tm_tier_.clear();
  tm_tier_.resize(layout.tiers());
  for (std::uint32_t tier = 0; tier < layout.tiers(); ++tier) {
    const std::string prefix = "t" + std::to_string(tier) + "_";
    telemetry::Registry& tm = host_.telemetry();
    tm_tier_[tier].tx_events = &tm.counter("hier", prefix + "tx_events");
    tm_tier_[tier].tx_bytes = &tm.counter("hier", prefix + "tx_bytes");
    tm_tier_[tier].rx_events = &tm.counter("hier", prefix + "rx_events");
    tm_tier_[tier].rx_bytes = &tm.counter("hier", prefix + "rx_bytes");
  }
  tm_hier_rollups_ = &host_.telemetry().counter("hier", "rollup_publishes");
  tm_hier_drill_req_ = &host_.telemetry().counter("hier", "drill_requests");
  tm_hier_drill_data_ = &host_.telemetry().counter("hier", "drill_data_frames");
  register_hier_files();
}

void DMon::register_hier_files() {
  if (hier_files_registered_) return;
  hier_files_registered_ = true;
  procfs_.register_file("/proc/dproc/hierarchy", [this]() mutable {
    std::ostringstream out;
    const HierarchyLayout& layout = *config_.hierarchy_layout;
    out << "zones " << layout.zones().size() << " tiers " << layout.tiers()
        << " zone_size " << config_.hierarchy.zone_size << " fanout "
        << config_.hierarchy.fanout << "\n"
        << "leaf " << (leaf_zone_ != nullptr ? leaf_zone_->name : "-") << "\n";
    for (const ZoneDuty& duty : duties_) {
      const auto act = zone_acting(duty.zone->id);
      out << "duty " << duty.zone->name << " acting ";
      if (act) {
        out << *act;
        if (*act == static_cast<std::size_t>(nic_.node())) out << " (self)";
      } else {
        out << "-";
      }
      out << " origins " << duty.rollup.origin_count() << " children "
          << duty.rollup.child_count() << " drills " << duty.drills.size()
          << "\n";
    }
    out << "summary " << (summary_valid_ ? "valid" : "none");
    if (summary_valid_) {
      out << " entries " << summary_.entries.size() << " age_s "
          << (host_.engine().now() - summary_at_).sec();
    }
    out << "\n";
    return out.str();
  });
  procfs_.register_file(
      "/proc/dproc/drilldown",
      [this] {
        std::ostringstream out;
        out << "local";
        for (const net::NodeId target : local_drills_) out << " " << target;
        out << "\n";
        for (const ZoneDuty& duty : duties_) {
          for (const auto& [target, requesters] : duty.drills) {
            out << duty.zone->name << " target " << target << " requesters "
                << requesters.size() << "\n";
          }
        }
        return out.str();
      },
      [this](const std::string& text) {
        std::istringstream in(text);
        unsigned long node = 0;
        std::string mode;
        if (!(in >> node)) {
          return Status::invalid_argument("usage: <node-id> [on|off]");
        }
        in >> mode;
        return drill_down(static_cast<net::NodeId>(node), mode != "off");
      });
  // Cluster-wide roll-up files at summary members. /proc/cluster/summary
  // belongs to the application-level ClusterAggregator; the overlay renders
  // under /proc/cluster/rollup.
  if (monitor_channel_ != nullptr) {
    for (const MetricDesc& desc : metric_table_) {
      const MetricId id = desc.id;
      procfs_.register_file("/proc/cluster/rollup/" + desc.path, [this, id] {
        if (!summary_valid_) return std::string{"no data\n"};
        return render_aggregate_entry(summary_, id, host_.engine().now(),
                                      summary_at_, &nic_.fabric());
      });
    }
  }
  // Zone summaries at every candidate (whichever candidate is acting, the
  // standbys' copies go stale rather than vanish).
  for (const ZoneDuty& duty : duties_) {
    const std::uint32_t zid = duty.zone->id;
    const std::string base = "/proc/cluster/zones/" + duty.zone->name + "/";
    for (const MetricDesc& desc : metric_table_) {
      const MetricId id = desc.id;
      procfs_.register_file(base + desc.path, [this, zid, id]() mutable {
        const ZoneDuty* duty = duty_of(zid);
        if (duty == nullptr || !duty->last_built_valid) {
          return std::string{"no data\n"};
        }
        return render_aggregate_entry(duty->last_built, id,
                                      host_.engine().now(),
                                      duty->last_built_at, &nic_.fabric());
      });
    }
  }
}

void DMon::on_zone_event(std::uint32_t zone_id, const kecho::Event& event) {
  net::ByteReader r{event.payload_header()};
  const std::uint8_t op = r.u8();
  const SimTime now = host_.engine().now();
  if (op == kOpMonitorBatch) {
    // A zone member's raw feed into its leaf aggregator.
    ZoneDuty* duty = duty_of(zone_id);
    if (duty == nullptr || duty->zone->tier != 0) return;
    if (!net::MonitorBatch::decode(r, rx_batch_)) {
      DPROC_WARN() << "dmon " << nic_.node()
                   << ": malformed zone batch from " << event.source;
      return;
    }
    duty->rollup.update_origin(event.source, rx_batch_, now);
    if (!tm_tier_.empty()) {
      tm_tier_[0].rx_events->add();
      tm_tier_[0].rx_bytes->add(event.payload_size());
    }
    // The aggregator's own procfs view of its zone mates stays live.
    Peer& peer = ensure_peer(event.source);
    peer.last_update = now;
    peer.has_data = true;
    peer.dead = false;
    apply_batch_to_peer(peer, rx_batch_, event.trace.trace_id);
    note_render(event, config_.monitor_channel, &peer);
    maybe_forward_drill(*duty, event.source, rx_batch_, nullptr);
    const double cycles = config_.overheads.procfs_update_cycles_per_event;
    charge(cycles);
    handler_cost_ += seconds(cycles / host_.cpu().config().clock_hz);
    return;
  }
  if (op == kOpAggregate) {
    // A child zone's roll-up on this (parent) zone's channel. Sibling
    // candidates overhear it too — only a candidate of the parent folds,
    // and only frames whose zone really is a child (the zone id doubles as
    // the overwrite key, so a re-elected child aggregator republishing the
    // same zone never double-counts).
    if (!net::AggregateBatch::decode(r, agg_rx_)) {
      DPROC_WARN() << "dmon " << nic_.node()
                   << ": malformed aggregate from " << event.source;
      return;
    }
    ZoneDuty* duty = duty_of(zone_id);
    if (duty == nullptr) return;
    const auto& zones = config_.hierarchy_layout->zones();
    if (agg_rx_.zone >= zones.size() ||
        zones[agg_rx_.zone].parent != zone_id) {
      return;
    }
    duty->rollup.update_child(agg_rx_, now);
    if (agg_rx_.tier < tm_tier_.size()) {
      tm_tier_[agg_rx_.tier].rx_events->add();
      tm_tier_[agg_rx_.tier].rx_bytes->add(event.payload_size());
    }
    const double cycles = config_.overheads.procfs_update_cycles_per_event;
    charge(cycles);
    handler_cost_ += seconds(cycles / host_.cpu().config().clock_hz);
    return;
  }
  if (op == kOpDrillRequest) {
    // Downward propagation: a request on channel(p) is for the duties
    // whose parent is p (the zone that forwarded it).
    const net::NodeId requester = r.u32();
    const net::NodeId target = r.u32();
    const bool enable = r.u8() != 0;
    const std::uint32_t ttl = r.u32();
    if (!r.ok()) return;
    const SimTime expiry =
        now + config_.poll_period * static_cast<double>(ttl);
    for (ZoneDuty& duty : duties_) {
      if (duty.zone->parent && *duty.zone->parent == zone_id) {
        apply_drill(duty, requester, target, enable, expiry);
      }
    }
    return;
  }
  if (op == kOpDrillData) {
    // Upward relay: we were addressed as the acting aggregator of this
    // zone. Validate, then pass the frame along the acting chain.
    const net::NodeId origin = r.u32();
    ZoneDuty* duty = duty_of(zone_id);
    if (duty == nullptr) return;
    if (!net::MonitorBatch::decode(r, rx_batch_)) {
      DPROC_WARN() << "dmon " << nic_.node()
                   << ": malformed drill relay from " << event.source;
      return;
    }
    send_drill_up(*duty, origin, encode_drill_data(origin, rx_batch_),
                  nullptr);
    return;
  }
}

void DMon::submit_hier(std::vector<MetricSample>& sorted, PollRecord& record) {
  if (leaf_zone_ == nullptr) return;
  const auto act = zone_acting(leaf_zone_->id);
  if (!act) return;
  const std::size_t self = nic_.node();
  const SimTime now = host_.engine().now();
  if (*act == self) {
    // This node is its own aggregator: fold locally, no loopback frame.
    if (!build_publish_batch(sorted, record, batch_scratch_)) return;
    ZoneDuty* duty = duty_of(leaf_zone_->id);
    duty->rollup.update_origin(static_cast<std::uint32_t>(self),
                               batch_scratch_, now);
    maybe_forward_drill(*duty, static_cast<net::NodeId>(self), batch_scratch_,
                        &record);
    return;
  }
  kecho::Channel* channel = zone_channels_.at(leaf_zone_->id);
  if (!channel->ready()) return;
  if (!build_publish_batch(sorted, record, batch_scratch_)) return;
  const net::MessagePtr frame = encode_batch_event(batch_scratch_);
  record.submit_cost += channel->submit_to(
      static_cast<net::NodeId>(*act), frame, begin_trace(channel->id()));
  ++record.events_submitted;
  tm_batch_submits_.add();
  tm_batch_samples_.add(batch_scratch_.entries.size());
  if (record.keyframe) tm_batch_keyframes_.add();
  if (!tm_tier_.empty()) {
    tm_tier_[0].tx_events->add();
    tm_tier_[0].tx_bytes->add(frame->size());
  }
}

void DMon::publish_rollups(PollRecord& record) {
  const SimTime now = host_.engine().now();
  const SimDuration horizon =
      config_.poll_period * static_cast<double>(config_.stale_after_periods);
  const std::size_t self = nic_.node();
  for (ZoneDuty& duty : duties_) {
    const auto act = zone_acting(duty.zone->id);
    if (!act || *act != self) continue;
    const RollupSpec& spec = config_.hierarchy.rollup_for(duty.zone->name);
    if (!duty.rollup.build(agg_scratch_, spec, now, horizon)) continue;
    agg_scratch_.tier = static_cast<std::uint8_t>(duty.zone->tier);
    agg_scratch_.zone = duty.zone->id;
    duty.last_built = agg_scratch_;
    duty.last_built_at = now;
    duty.last_built_valid = true;
    if (tm_hier_rollups_ != nullptr) tm_hier_rollups_->add();
    if (duty.zone->parent) {
      // Fold into our own parent duty directly (a submit never loops back
      // to the sender); the wire copy keeps the other parent candidates'
      // standby state warm for failover.
      if (ZoneDuty* parent = duty_of(*duty.zone->parent)) {
        parent->rollup.update_child(agg_scratch_, now);
      }
    } else {
      summary_ = agg_scratch_;
      summary_at_ = now;
      summary_valid_ = true;
    }
    kecho::Channel* up = duty.parent_channel;
    if (up == nullptr || !up->ready() || up->remote_member_count() == 0) {
      continue;
    }
    const net::MessagePtr frame = encode_aggregate_event(agg_scratch_);
    record.submit_cost += up->submit(frame, begin_trace(up->id()));
    ++record.events_submitted;
    if (duty.zone->tier < tm_tier_.size()) {
      tm_tier_[duty.zone->tier].tx_events->add();
      tm_tier_[duty.zone->tier].tx_bytes->add(frame->size());
    }
  }
}

void DMon::apply_drill(ZoneDuty& duty, net::NodeId requester,
                       net::NodeId target, bool enable, SimTime expiry) {
  if (!duty.zone->contains(target)) return;
  if (enable) {
    duty.drills[target][requester] = expiry;
  } else {
    auto it = duty.drills.find(target);
    if (it != duty.drills.end()) {
      it->second.erase(requester);
      if (it->second.empty()) duty.drills.erase(it);
    }
  }
  if (tm_hier_drill_req_ != nullptr) tm_hier_drill_req_->add();
  if (duty.zone->tier == 0) return;
  // The acting aggregator re-announces on the zone's own channel — a plain
  // submit reaching every child candidate, so the routing state survives
  // child failover — and applies directly to the child duties it holds
  // itself (its own submit never loops back).
  const auto act = zone_acting(duty.zone->id);
  if (!act || *act != static_cast<std::size_t>(nic_.node())) return;
  kecho::Channel* down = duty.channel;
  if (down != nullptr && down->ready() && down->remote_member_count() > 0) {
    const auto ttl = static_cast<std::uint32_t>(
        std::max(1, config_.hierarchy.drill_ttl_periods));
    down->submit(encode_drill_request(requester, target, enable, ttl));
  }
  for (ZoneDuty& child : duties_) {
    if (child.zone->parent && *child.zone->parent == duty.zone->id) {
      apply_drill(child, requester, target, enable, expiry);
    }
  }
}

void DMon::send_drill_request(net::NodeId target, bool enable) {
  const auto ttl = static_cast<std::uint32_t>(
      std::max(1, config_.hierarchy.drill_ttl_periods));
  if (monitor_channel_ != nullptr && monitor_channel_->ready() &&
      monitor_channel_->remote_member_count() > 0) {
    monitor_channel_->submit(
        encode_drill_request(nic_.node(), target, enable, ttl));
  }
  // Root candidates see their own announcements directly.
  if (ZoneDuty* root = duty_of(config_.hierarchy_layout->root().id)) {
    const SimTime expiry =
        host_.engine().now() + config_.poll_period * static_cast<double>(ttl);
    apply_drill(*root, nic_.node(), target, enable, expiry);
  }
}

Status DMon::drill_down(net::NodeId target, bool enable) {
  if (!hier_) {
    return Status::failed_precondition("hierarchy overlay not active");
  }
  if (monitor_channel_ == nullptr) {
    return Status::failed_precondition(
        "drill-down needs summary-channel membership (subscriber)");
  }
  if (target >= nic_.fabric().node_count()) {
    return Status::invalid_argument("drill target outside the cluster");
  }
  if (enable) {
    local_drills_.insert(target);
  } else {
    local_drills_.erase(target);
  }
  send_drill_request(target, enable);
  return Status::ok();
}

void DMon::send_drill_up(ZoneDuty& duty, net::NodeId origin,
                         const net::MessagePtr& frame, PollRecord* record) {
  const std::size_t self = nic_.node();
  if (!duty.zone->parent) {
    // Root: deliver to the live requesters over the summary channel.
    auto it = duty.drills.find(origin);
    if (it == duty.drills.end()) return;
    const SimTime now = host_.engine().now();
    auto& requesters = it->second;
    bool self_wants = false;
    for (auto rit = requesters.begin(); rit != requesters.end();) {
      if (rit->second < now) {
        rit = requesters.erase(rit);
        continue;
      }
      if (rit->first == static_cast<net::NodeId>(self)) self_wants = true;
      ++rit;
    }
    if (requesters.empty()) {
      duty.drills.erase(it);
      return;
    }
    if (self_wants) {
      // The acting root drilled the target itself: apply locally.
      net::ByteReader r{std::span<const std::uint8_t>{frame->header}};
      r.u8();
      r.u32();
      net::MonitorBatch batch;
      if (net::MonitorBatch::decode(r, batch)) {
        Peer& peer = ensure_peer(origin);
        peer.last_update = now;
        peer.has_data = true;
        peer.dead = false;
        apply_batch_to_peer(peer, batch, 0);
      }
    }
    if (monitor_channel_ != nullptr && monitor_channel_->ready()) {
      const auto& reqs = requesters;
      const SimDuration cost = monitor_channel_->submit_to_each(
          [&reqs, &frame](net::NodeId member) -> net::MessagePtr {
            return reqs.find(member) != reqs.end() ? frame : nullptr;
          });
      if (record != nullptr) {
        record->submit_cost += cost;
        ++record->events_submitted;
      }
    }
    if (tm_hier_drill_data_ != nullptr) tm_hier_drill_data_->add();
    return;
  }
  const auto act = zone_acting(*duty.zone->parent);
  if (!act) return;
  if (*act == self) {
    if (ZoneDuty* parent = duty_of(*duty.zone->parent)) {
      send_drill_up(*parent, origin, frame, record);
    }
    return;
  }
  kecho::Channel* up = duty.parent_channel;
  if (up == nullptr || !up->ready()) return;
  const SimDuration cost =
      up->submit_to(static_cast<net::NodeId>(*act), frame);
  if (record != nullptr) {
    record->submit_cost += cost;
    ++record->events_submitted;
  }
  if (tm_hier_drill_data_ != nullptr) tm_hier_drill_data_->add();
}

void DMon::maybe_forward_drill(ZoneDuty& leaf_duty, net::NodeId origin,
                               const net::MonitorBatch& batch,
                               PollRecord* record) {
  auto it = leaf_duty.drills.find(origin);
  if (it == leaf_duty.drills.end()) return;
  const SimTime now = host_.engine().now();
  bool live = false;
  for (const auto& [requester, expiry] : it->second) {
    if (expiry >= now) {
      live = true;
      break;
    }
  }
  if (!live) {
    leaf_duty.drills.erase(it);
    return;
  }
  send_drill_up(leaf_duty, origin, encode_drill_data(origin, batch), record);
}

void DMon::prune_drills(SimTime now) {
  for (ZoneDuty& duty : duties_) {
    for (auto it = duty.drills.begin(); it != duty.drills.end();) {
      auto& requesters = it->second;
      for (auto rit = requesters.begin(); rit != requesters.end();) {
        rit = rit->second < now ? requesters.erase(rit) : std::next(rit);
      }
      it = requesters.empty() ? duty.drills.erase(it) : std::next(it);
    }
  }
}

PollRecord DMon::poll() {
  PollRecord record;
  const SimTime poll_start = host_.engine().now();
  const SimDuration kernel_before = host_.cpu().kernel_cpu_time();

  // --- receive phase: drain the channels, dispatching to the handlers ---
  handler_cost_ = SimDuration::zero();
  const kecho::PollStats rx = kecho_.poll();
  record.events_received = rx.events_delivered;
  record.receive_cost = rx.cpu_cost + handler_cost_;

  // Liveness scan + health round: after the drain (so freshly delivered
  // updates count) and before collection (so DPROC_MON publishes this
  // poll's score, not the last one's). No-op with flight and health off.
  scan_peer_health(host_.engine().now());

  // --- collection phase: poll each registered module's callback ---------
  charge(config_.overheads.collect_cycles_per_module *
         static_cast<double>(modules_.size()));
  const SimTime now = host_.engine().now();
  std::vector<MetricSample> collected;
  collected.reserve(metric_table_.size());
  std::vector<MetricRange> dropped;
  for (ModuleEntry& entry : modules_) {
    const std::size_t before = collected.size();
    entry.module->collect(collected, now);
    if (collected.size() - before != entry.metric_count) {
      // A misbehaving module must not publish default-constructed zeros
      // under valid metric ids cluster-wide. The vector has to stay
      // id-dense (the tuning layer and the local procfs readers index it
      // by id), so backfill the range from the last good collection and
      // drop it from this period's publication below.
      DPROC_ERROR() << "module " << entry.module->name()
                    << " returned wrong sample count; dropping its samples "
                       "this period";
      tm_collect_errors_.add();
      host_.flight().record(
          telemetry::Severity::kWarn, telemetry::FlightSubsystem::kDmon,
          telemetry::FlightCode::kCollectError,
          static_cast<std::uint64_t>(&entry - modules_.data()));
      collected.resize(before + entry.metric_count);
      for (std::size_t i = 0; i < entry.metric_count; ++i) {
        const MetricId id = static_cast<MetricId>(entry.first_id + i);
        collected[before + i] =
            id < last_collected_.size() ? last_collected_[id] : MetricSample{};
      }
      dropped.push_back(MetricRange{entry.first_id, entry.metric_count});
    }
    for (std::size_t i = 0; i < entry.metric_count; ++i) {
      collected[before + i].id = static_cast<MetricId>(entry.first_id + i);
    }
  }
  last_collected_ = collected;
  for (const SampleObserver& observer : sample_observers_) {
    observer(collected, now);
  }
  // Rate tracking runs against the pre-decision samples: the controller
  // must see what the metrics are doing even while slow periods keep them
  // off the wire.
  if (adapter_) adapter_->observe(collected, last_published_);

  // --- decide + submit ---------------------------------------------------
  Decision decision = tuning_->decide(collected, now);
  if (!dropped.empty()) {
    // Nothing from a dropped module goes on the wire this period.
    std::erase_if(decision.to_send, [&dropped](const MetricSample& s) {
      for (const MetricRange& range : dropped) {
        if (s.id >= range.first && s.id < range.first + range.count) {
          return true;
        }
      }
      return false;
    });
  }
  record.filter_instructions = decision.filter_instructions;
  tm_filter_insns_.add(decision.filter_instructions);
  // Samples collected but filtered out of this period's publication — the
  // data-volume reduction the tuning achieves.
  if (collected.size() > decision.to_send.size()) {
    tm_suppressed_.add(collected.size() - decision.to_send.size());
  }
  charge(config_.overheads.filter_exec_cycles_per_insn *
         static_cast<double>(decision.filter_instructions));

  if (hier_) {
    std::sort(decision.to_send.begin(), decision.to_send.end(),
              [](const MetricSample& a, const MetricSample& b) {
                return a.id < b.id;
              });
    submit_hier(decision.to_send, record);
    prune_drills(host_.engine().now());
    publish_rollups(record);
    // Requester side: re-announce active drills so they outlive aggregator
    // failover and age out at the aggregators when this node dies.
    for (const net::NodeId target : local_drills_) {
      send_drill_request(target, true);
    }
  } else if (monitor_channel_ != nullptr && monitor_channel_->ready() &&
             monitor_channel_->remote_member_count() > 0) {
    // Filters may emit metrics in any order; per-module grouping and batch
    // encoding need ascending ids.
    std::sort(decision.to_send.begin(), decision.to_send.end(),
              [](const MetricSample& a, const MetricSample& b) {
                return a.id < b.id;
              });
    if (config_.batch.enabled) {
      submit_batch(decision.to_send, record);
    } else {
      submit_per_module(decision.to_send, record);
    }
  }

  // --- indirect perturbation (cache pollution, deferred kernel work) ----
  // Under the overlay each submitted event reaches one member (the zone
  // aggregator) or a zone channel's few candidates, not the whole cluster.
  const double collateral_events =
      hier_ ? static_cast<double>(record.events_submitted) +
                  static_cast<double>(record.events_received)
            : static_cast<double>(record.events_submitted) *
                      static_cast<double>(
                          monitor_channel_ != nullptr
                              ? monitor_channel_->remote_member_count()
                              : 0) +
                  static_cast<double>(record.events_received);
  charge(config_.overheads.collateral_cycles_per_event * collateral_events);

  submit_cost_us_.add(record.submit_cost.us());
  receive_cost_us_.add(record.receive_cost.us());
  last_poll_ = record;

  tm_polls_.add();
  tm_events_submitted_.add(record.events_submitted);
  tm_events_received_.add(record.events_received);
  tm_submit_us_.record(record.submit_cost);
  tm_receive_us_.record(record.receive_cost);
  run_adaptation(kernel_before);
  // The whole poll runs at one instant of virtual time; its duration is the
  // kernel CPU time it charged, which is also the span's extent.
  const SimDuration poll_cost = host_.cpu().kernel_cpu_time() - kernel_before;
  tm_poll_us_.record(poll_cost);
  host_.telemetry().record_span("dmon", "poll", poll_start,
                                poll_start + poll_cost);
  return record;
}

void DMon::run_adaptation(SimDuration kernel_before) {
  if (!adapter_) return;
  const int every = std::max(config_.adapt.adapt_every_periods, 1);
  const bool boundary = adapt_poll_count_ + 1 >= every;
  // The controller's decision pass is kernel work; charging it before the
  // window cost is read keeps the measured overhead honest about the cost
  // of adaptation itself.
  if (boundary) charge(config_.overheads.control_apply_cycles);
  adapt_window_cost_ += host_.cpu().kernel_cpu_time() - kernel_before;
  if (!boundary) {
    ++adapt_poll_count_;
    return;
  }
  const double window_sec =
      static_cast<double>(every) * config_.poll_period.sec();
  const double overhead =
      window_sec > 0.0 ? adapt_window_cost_.sec() / window_sec : 0.0;
  adapt_poll_count_ = 0;
  adapt_window_cost_ = SimDuration::zero();

  const std::uint64_t clamps_before = adapter_->budget_clamps();
  const bool changed = adapter_->adapt(overhead);
  host_.flight().record(telemetry::Severity::kDebug,
                        telemetry::FlightSubsystem::kAdapt,
                        telemetry::FlightCode::kAdaptRound, adapter_->rounds(),
                        changed ? 1 : 0);
  if (adapter_->budget_clamps() > clamps_before) {
    host_.flight().record(telemetry::Severity::kWarn,
                          telemetry::FlightSubsystem::kAdapt,
                          telemetry::FlightCode::kAdaptClamp,
                          adapter_->budget_clamps() - clamps_before,
                          static_cast<std::uint64_t>(overhead * 1e6));
  }
  for (const PeriodController::Region& region : adapter_->regions()) {
    for (std::size_t i = 0; i < region.count; ++i) {
      tuning_->set_adaptive_period(static_cast<MetricId>(region.first + i),
                                   region.period);
    }
  }
  // An adaptive period move invalidates subscribers' delta baselines the
  // same way a control write does.
  if (changed) force_keyframe_ = true;
  tm_adapt_rounds_.add();
  if (changed) tm_adapt_changes_.add();
  tm_adapt_overhead_.set(overhead);
}

}  // namespace dproc::core
