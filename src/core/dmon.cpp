#include "dproc/core/dmon.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

#include "dproc/core/cluster.hpp"
#include "dproc/net/fabric.hpp"
#include "dproc/net/wire.hpp"
#include "dproc/util/logging.hpp"
#include "overlay.hpp"

namespace dproc::core {

namespace {

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
           procfs::ProcFs& procfs, const ClusterConfig& config,
           const HierarchyLayout* layout)
    : host_(host), nic_(nic), kecho_(kecho), procfs_(procfs), config_(config),
      layout_(layout),
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
  // /proc/cluster/<peer>/ of every declared peer is this one shape, bound
  // by add_peer and keyed by the peer's node id; register_module adds the
  // metric files.
  (void)peer_shape_.add_file("status", [this](procfs::ProcFs::Key key) {
    auto peer_it = peers_.find(static_cast<net::NodeId>(key));
    if (peer_it == peers_.end()) return std::string{"state dead\n"};
    const Peer& p = peer_it->second;
    std::ostringstream out;
    out << "state " << to_string(state_of(p)) << "\n"
        << "has_data " << (p.has_data ? 1 : 0) << "\n"
        << "last_update_s " << p.last_update.sec() << "\n"
        << "age_s " << (host_.engine().now() - p.last_update).sec() << "\n";
    return out.str();
  });
  (void)peer_shape_.add_file(
      "control",
      [this](procfs::ProcFs::Key key) {
        auto peer_it = peers_.find(static_cast<net::NodeId>(key));
        const std::string name = peer_it != peers_.end()
                                     ? peer_it->second.name
                                     : std::to_string(key);
        return "# write control commands for node " + name +
               ": period/threshold/differential/fuel/filter/clear\n";
      },
      [this](procfs::ProcFs::Key key, const std::string& text) {
        auto config = parse_control_commands(text);
        if (!config) return config.status();
        return send_tuning(static_cast<net::NodeId>(key), config.value());
      });
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
        << "poll_period " << to_string(config_.dmon.poll_period) << "\n"
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
  tuning_ =
      std::make_unique<PublisherTuning>(config_.dmon.poll_period, metric_ids_);
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
  register_metric_files(entry);
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
}

void DMon::register_metric_files(const ModuleEntry& entry) {
  for (std::size_t i = 0; i < entry.metric_count; ++i) {
    const MetricDesc& desc = metric_table_[entry.first_id + i];
    const MetricId id = desc.id;
    // Every declared peer's directory, now and later, sees this file.
    (void)peer_shape_.add_file(desc.path, [this, id](procfs::ProcFs::Key key) {
      auto it = peers_.find(static_cast<net::NodeId>(key));
      if (it == peers_.end() || id >= it->second.metrics.size()) {
        return std::string{"no data\n"};
      }
      return render_value(it->second.metrics[id], host_.engine().now(),
                          state_of(it->second));
    });
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
  (void)procfs_.bind("/proc/cluster/" + name, &peer_shape_, node);
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
  if (layout_ != nullptr) {
    overlay_ = std::make_unique<Overlay>(*this, *layout_);
  } else {
    join_monitor_channel();
    join_control_channel();
  }
  poll_timer_ = host_.engine().schedule_periodic(config_.dmon.poll_period,
                                                 [this] { poll(); });
}

void DMon::join_monitor_channel() {
  monitor_channel_ = &kecho_.join(config_.dmon.monitor_channel);
  monitor_channel_->set_handler(
      [this](const kecho::Event& event) { on_monitor_event(event); });
}

void DMon::join_control_channel() {
  control_channel_ = &kecho_.join(config_.dmon.control_channel);
  control_channel_->set_handler(
      [this](const kecho::Event& event) { on_control_event(event); });
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
  // A rebooted monitor has no roll-up, drill or membership memory either:
  // start() builds a fresh overlay, and the keyframed zone feeds and drill
  // refreshes reconverge it.
  overlay_.reset();
  // A rebooted controller has no rate memory; periods restart at base.
  if (adapter_) adapter_->reset();
  tuning_->clear_adaptive_periods();
  adapt_poll_count_ = 0;
  adapt_window_cost_ = SimDuration::zero();
  force_keyframe_ = false;
  start();
}

SimDuration DMon::stale_horizon() const {
  return config_.dmon.poll_period *
         static_cast<double>(config_.dmon.stale_after_periods);
}

PeerState DMon::state_of(const Peer& peer) const {
  if (peer.dead) return PeerState::kDead;
  const SimTime basis = peer.has_data ? peer.last_update : peer.declared_at;
  return host_.engine().now() - basis > stale_horizon() ? PeerState::kStale
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
  return host_.engine().now() - it->second.last_slo_violation >
         stale_horizon();
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
    charge(config_.dmon.overheads.procfs_update_cycles_per_event);
    health_->on_poll(census, now);
  }
}

void DMon::on_membership(kecho::MemberEventKind kind, net::NodeId node) {
  if (overlay_) overlay_->on_membership(kind, node);
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
  charge(config_.dmon.overheads.control_apply_cycles);
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
    charge(config_.dmon.overheads.filter_compile_cycles_per_byte *
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

DMon::Peer& DMon::touch_peer(net::NodeId origin) {
  auto it = peers_.find(origin);
  if (it == peers_.end()) {
    // Peer never declared: learn it from the fabric's name table.
    add_peer(origin, nic_.fabric().node_name(origin));
    it = peers_.find(origin);
  }
  Peer& peer = it->second;
  peer.last_update = host_.engine().now();
  peer.has_data = true;
  peer.dead = false;
  return peer;
}

void DMon::apply_batch_to_peer(Peer& peer, const net::MonitorBatch& batch,
                               std::uint64_t trace_id) {
  const SimTime now = host_.engine().now();
  // A module registered after the peer was declared widens the table.
  if (peer.metrics.size() < metric_table_.size()) {
    peer.metrics.resize(metric_table_.size());
  }
  for (const net::MonitorBatch::Entry& e : batch.entries) {
    if (e.id < peer.metrics.size()) {
      peer.metrics[e.id] =
          RemoteMetric{e.value, SimTime{e.sampled_ns}, now, true, trace_id};
    }
  }
}

void DMon::charge_receive() {
  const double cycles = config_.dmon.overheads.procfs_update_cycles_per_event;
  charge(cycles);
  handler_cost_ += seconds(cycles / host_.cpu().config().clock_hz);
}

void DMon::warn_malformed(const char* what, const kecho::Event& event) const {
  DPROC_WARN() << "dmon " << nic_.node() << ": malformed " << what << " from "
               << event.source;
}

void DMon::on_monitor_event(const kecho::Event& event) {
  net::ByteReader r{event.payload_header()};
  const std::uint8_t op = r.u8();
  if (overlay_ && overlay_->on_summary_event(op, r, event)) return;
  // Both formats carry `count | count × entry`; the batch puts a version
  // and flags in front. Nothing is applied unless the whole frame decodes.
  bool decoded = false;
  if (op == kOpMonitor) {
    decoded = net::MonitorBatch::decode_entries(r, rx_batch_);
  } else if (op == kOpMonitorBatch) {
    decoded = net::MonitorBatch::decode(r, rx_batch_);
  } else {
    return;
  }
  if (!decoded) {
    warn_malformed("monitoring event", event);
    return;
  }
  Peer& peer = touch_peer(event.source);
  apply_batch_to_peer(peer, rx_batch_, event.trace.trace_id);
  note_render(event, config_.dmon.monitor_channel, &peer);
  charge_receive();
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
  note_render(event, config_.dmon.control_channel, nullptr);
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
    warn_malformed("interest event", event);
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
  note_render(event, config_.dmon.control_channel, nullptr);
  charge_receive();
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
  count_batch(batch, record);
}

void DMon::count_batch(const net::MonitorBatch& batch,
                       const PollRecord& record) {
  tm_batch_submits_.add();
  tm_batch_samples_.add(batch.entries.size());
  if (record.keyframe) tm_batch_keyframes_.add();
}

// --- zone overlay forwarders (overlay.cpp) ----------------------------------

bool DMon::hierarchy_active() const { return overlay_ != nullptr; }

const net::AggregateBatch* DMon::cluster_summary() const {
  return overlay_ ? overlay_->summary() : nullptr;
}

SimTime DMon::cluster_summary_at() const {
  return overlay_ ? overlay_->summary_at() : SimTime{};
}

std::optional<std::size_t> DMon::zone_acting(std::uint32_t zone_id) const {
  return overlay_ ? overlay_->acting(zone_id) : std::nullopt;
}

Status DMon::drill_down(net::NodeId target, bool enable) {
  if (!overlay_) {
    return Status::failed_precondition("hierarchy overlay not active");
  }
  return overlay_->drill_down(target, enable);
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
  charge(config_.dmon.overheads.collect_cycles_per_module *
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
  charge(config_.dmon.overheads.filter_exec_cycles_per_insn *
         static_cast<double>(decision.filter_instructions));

  // Filters may emit metrics in any order; per-module grouping, batch
  // encoding and the roll-ups need ascending ids.
  std::sort(decision.to_send.begin(), decision.to_send.end(),
            [](const MetricSample& a, const MetricSample& b) {
              return a.id < b.id;
            });
  if (overlay_) {
    overlay_->poll(decision.to_send, record);
  } else if (monitor_channel_ != nullptr && monitor_channel_->ready() &&
             monitor_channel_->remote_member_count() > 0) {
    if (config_.batch.enabled) {
      submit_batch(decision.to_send, record);
    } else {
      submit_per_module(decision.to_send, record);
    }
  }

  // --- indirect perturbation (cache pollution, deferred kernel work) ----
  // Under the overlay each submitted event reaches one member (the zone
  // aggregator) or a zone channel's few candidates, not the whole cluster.
  double fanout = 1.0;
  if (!overlay_) {
    fanout = monitor_channel_ != nullptr
                 ? static_cast<double>(monitor_channel_->remote_member_count())
                 : 0.0;
  }
  const double collateral_events =
      static_cast<double>(record.events_submitted) * fanout +
      static_cast<double>(record.events_received);
  charge(config_.dmon.overheads.collateral_cycles_per_event *
         collateral_events);

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
  if (boundary) charge(config_.dmon.overheads.control_apply_cycles);
  adapt_window_cost_ += host_.cpu().kernel_cpu_time() - kernel_before;
  if (!boundary) {
    ++adapt_poll_count_;
    return;
  }
  const double window_sec =
      static_cast<double>(every) * config_.dmon.poll_period.sec();
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
