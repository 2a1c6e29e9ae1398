#include "overlay.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "dproc/core/cluster.hpp"
#include "dproc/net/fabric.hpp"

namespace dproc::core {

namespace {

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

}  // namespace

DMon::Overlay::Overlay(DMon& dmon, const HierarchyLayout& layout)
    : dmon_(dmon), layout_(layout),
      tm_rollups_(dmon.host_.telemetry().counter("hier", "rollup_publishes")),
      tm_drill_requests_(
          dmon.host_.telemetry().counter("hier", "drill_requests")),
      tm_drill_data_(
          dmon.host_.telemetry().counter("hier", "drill_data_frames")) {
  const std::size_t self = dmon.nic_.node();
  const auto& subscribers = dmon.config_.hierarchy.subscribers;
  const bool subscriber =
      !subscribers ||
      std::find(subscribers->begin(), subscribers->end(), self) !=
          subscribers->end();
  const std::vector<std::uint32_t> duty_ids = layout.duty_zones(self);
  const bool root_candidate =
      std::find(duty_ids.begin(), duty_ids.end(), layout.root().id) !=
      duty_ids.end();
  // Summary membership: subscribers (to read) and root candidates (to
  // publish and to take drill requests). The control channel stays
  // subscriber-scoped — zone traffic never rides it.
  if (subscriber || root_candidate) dmon.join_monitor_channel();
  if (subscriber) dmon.join_control_channel();

  duties_.reserve(duty_ids.size());
  for (const std::uint32_t zid : duty_ids) {
    ZoneDuty duty;
    duty.zone = &layout.zone(zid);
    duty.channel = join_zone_channel(zid);
    duty.parent_channel = duty.zone->parent
                              ? join_zone_channel(*duty.zone->parent)
                              : dmon.monitor_channel_;
    duties_.push_back(std::move(duty));
  }

  telemetry::Registry& tm = dmon.host_.telemetry();
  for (std::uint32_t tier = 0; tier < layout.tiers(); ++tier) {
    const std::string prefix = "t" + std::to_string(tier) + "_";
    tx_.push_back(Flow{&tm.counter("hier", prefix + "tx_events"),
                       &tm.counter("hier", prefix + "tx_bytes")});
    rx_.push_back(Flow{&tm.counter("hier", prefix + "rx_events"),
                       &tm.counter("hier", prefix + "rx_bytes")});
  }
  register_files();
}

bool DMon::Overlay::alive(std::size_t node) const {
  return node == static_cast<std::size_t>(dmon_.nic_.node()) ||
         !dead_.contains(node);
}

std::optional<std::size_t> DMon::Overlay::acting(std::uint32_t zone_id) const {
  if (zone_id >= layout_.zones().size()) return std::nullopt;
  return layout_.acting(layout_.zone(zone_id),
                        [this](std::size_t node) { return alive(node); });
}

DMon::Overlay::ZoneDuty* DMon::Overlay::duty_of(std::uint32_t zone_id) {
  for (ZoneDuty& duty : duties_) {
    if (duty.zone->id == zone_id) return &duty;
  }
  return nullptr;
}

kecho::Channel* DMon::Overlay::join_zone_channel(std::uint32_t zone_id) {
  kecho::Channel& channel = dmon_.kecho_.join(
      dmon_.config_.dmon.monitor_channel + "." + layout_.zone(zone_id).name);
  channel.set_handler([this, zone_id](const kecho::Event& event) {
    on_zone_event(zone_id, event);
  });
  return &channel;
}

void DMon::Overlay::register_files() {
  procfs::ProcFs& procfs = dmon_.procfs_;
  procfs.register_file("/proc/dproc/hierarchy", [this] {
    const HierarchyConfig& config = dmon_.config_.hierarchy;
    std::ostringstream out;
    out << "zones " << layout_.zones().size() << " tiers " << layout_.tiers()
        << " zone_size " << config.zone_size << " fanout " << config.fanout
        << "\n"
        << "leaf " << duties_.front().zone->name << "\n";
    for (const ZoneDuty& duty : duties_) {
      const auto act = acting(duty.zone->id);
      out << "duty " << duty.zone->name << " acting ";
      if (act) {
        out << *act;
        if (*act == static_cast<std::size_t>(dmon_.nic_.node())) {
          out << " (self)";
        }
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
          << (dmon_.host_now() - summary_at_).sec();
    }
    out << "\n";
    return out.str();
  });
  procfs.register_file(
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
  if (dmon_.monitor_channel_ != nullptr) {
    for (const MetricDesc& desc : dmon_.metric_table_) {
      const MetricId id = desc.id;
      procfs.register_file("/proc/cluster/rollup/" + desc.path, [this, id] {
        if (!summary_valid_) return std::string{"no data\n"};
        return render_aggregate_entry(summary_, id, dmon_.host_now(),
                                      summary_at_, &dmon_.nic_.fabric());
      });
    }
  }
  // Zone summaries at every candidate (whichever candidate is acting, the
  // standbys' copies go stale rather than vanish).
  for (const ZoneDuty& duty : duties_) {
    const std::string base = "/proc/cluster/zones/" + duty.zone->name + "/";
    for (const MetricDesc& desc : dmon_.metric_table_) {
      const MetricId id = desc.id;
      procfs.register_file(base + desc.path, [this, zone = &duty, id] {
        if (!zone->last_built_valid) return std::string{"no data\n"};
        return render_aggregate_entry(zone->last_built, id, dmon_.host_now(),
                                      zone->last_built_at,
                                      &dmon_.nic_.fabric());
      });
    }
  }
}

void DMon::Overlay::on_membership(kecho::MemberEventKind kind,
                                  net::NodeId node) {
  if (kind == kecho::MemberEventKind::kJoined) {
    dead_.erase(node);
    return;
  }
  dead_.insert(node);
  if (kind == kecho::MemberEventKind::kLeft) {
    // A confirmed departure's samples must not linger in the roll-up.
    for (ZoneDuty& duty : duties_) duty.rollup.forget_origin(node);
  }
}

std::uint32_t DMon::Overlay::drill_ttl() const {
  return static_cast<std::uint32_t>(
      std::max(1, dmon_.config_.hierarchy.drill_ttl_periods));
}

SimTime DMon::Overlay::drill_expiry(std::uint32_t ttl_periods) const {
  return dmon_.host_now() +
         dmon_.config_.dmon.poll_period * static_cast<double>(ttl_periods);
}

std::optional<DMon::Overlay::DrillRequest>
DMon::Overlay::decode_drill_request(net::ByteReader& r) const {
  DrillRequest request;
  request.requester = r.u32();
  request.target = r.u32();
  request.enable = r.u8() != 0;
  const std::uint32_t ttl = r.u32();
  if (!r.ok()) return std::nullopt;
  request.expiry = drill_expiry(ttl);
  return request;
}

bool DMon::Overlay::on_summary_event(std::uint8_t op, net::ByteReader& r,
                                     const kecho::Event& event) {
  switch (op) {
    case kOpAggregate:
      // The root summary arriving at a subscriber (or standby root
      // candidate, keeping its failover state warm).
      if (!net::AggregateBatch::decode(r, agg_rx_)) {
        dmon_.warn_malformed("aggregate event", event);
        return true;
      }
      summary_ = agg_rx_;
      summary_at_ = dmon_.host_now();
      summary_valid_ = true;
      if (agg_rx_.tier < rx_.size()) {
        rx_[agg_rx_.tier].add(event.payload_size());
      }
      dmon_.note_render(event, dmon_.config_.dmon.monitor_channel, nullptr);
      dmon_.charge_receive();
      return true;
    case kOpDrillRequest:
      // Root intake of a subscriber's drill subscription.
      if (const auto request = decode_drill_request(r)) {
        if (ZoneDuty* root = duty_of(layout_.root().id)) {
          apply_drill(*root, *request);
        }
      }
      return true;
    case kOpDrillData: {
      // Requester receipt: the drilled node's raw feed, unflattened from
      // the tree — apply it exactly like a direct monitoring batch.
      const net::NodeId origin = r.u32();
      if (!net::MonitorBatch::decode(r, dmon_.rx_batch_) ||
          origin >= dmon_.nic_.fabric().node_count()) {
        dmon_.warn_malformed("drill data", event);
        return true;
      }
      dmon_.apply_batch_to_peer(dmon_.touch_peer(origin), dmon_.rx_batch_,
                                event.trace.trace_id);
      tm_drill_data_.add();
      dmon_.charge_receive();
      return true;
    }
    default:
      return false;
  }
}

void DMon::Overlay::on_zone_event(std::uint32_t zone_id,
                                  const kecho::Event& event) {
  net::ByteReader r{event.payload_header()};
  const std::uint8_t op = r.u8();
  const SimTime now = dmon_.host_now();
  net::MonitorBatch& batch = dmon_.rx_batch_;
  if (op == kOpMonitorBatch) {
    // A zone member's raw feed into its leaf aggregator.
    ZoneDuty* duty = duty_of(zone_id);
    if (duty == nullptr || duty->zone->tier != 0) return;
    if (!net::MonitorBatch::decode(r, batch)) {
      dmon_.warn_malformed("zone batch", event);
      return;
    }
    duty->rollup.update_origin(event.source, batch, now);
    rx_[0].add(event.payload_size());
    // The aggregator's own procfs view of its zone mates stays live.
    Peer& peer = dmon_.touch_peer(event.source);
    dmon_.apply_batch_to_peer(peer, batch, event.trace.trace_id);
    dmon_.note_render(event, dmon_.config_.dmon.monitor_channel, &peer);
    maybe_forward_drill(*duty, event.source, batch, nullptr);
    dmon_.charge_receive();
    return;
  }
  if (op == kOpAggregate) {
    // A child zone's roll-up on this (parent) zone's channel. Sibling
    // candidates overhear it too — only a candidate of the parent folds,
    // and only frames whose zone really is a child (the zone id doubles as
    // the overwrite key, so a re-elected child aggregator republishing the
    // same zone never double-counts).
    if (!net::AggregateBatch::decode(r, agg_rx_)) {
      dmon_.warn_malformed("aggregate", event);
      return;
    }
    ZoneDuty* duty = duty_of(zone_id);
    if (duty == nullptr) return;
    const auto& zones = layout_.zones();
    if (agg_rx_.zone >= zones.size() ||
        zones[agg_rx_.zone].parent != zone_id) {
      return;
    }
    duty->rollup.update_child(agg_rx_, now);
    if (agg_rx_.tier < rx_.size()) rx_[agg_rx_.tier].add(event.payload_size());
    dmon_.charge_receive();
    return;
  }
  if (op == kOpDrillRequest) {
    // Downward propagation: a request on channel(p) is for the duties
    // whose parent is p (the zone that forwarded it).
    const auto request = decode_drill_request(r);
    if (!request) return;
    for (ZoneDuty& duty : duties_) {
      if (duty.zone->parent == zone_id) apply_drill(duty, *request);
    }
    return;
  }
  if (op == kOpDrillData) {
    // Upward relay: we were addressed as the acting aggregator of this
    // zone. Validate, then pass the batch along the acting chain.
    const net::NodeId origin = r.u32();
    ZoneDuty* duty = duty_of(zone_id);
    if (duty == nullptr) return;
    if (!net::MonitorBatch::decode(r, batch)) {
      dmon_.warn_malformed("drill relay", event);
      return;
    }
    send_drill_up(*duty, origin, batch, nullptr);
  }
}

void DMon::Overlay::poll(std::vector<MetricSample>& sorted,
                         PollRecord& record) {
  submit_leaf(sorted, record);
  prune_drills(dmon_.host_now());
  publish_rollups(record);
  // Requester side: re-announce active drills so they outlive aggregator
  // failover and age out at the aggregators when this node dies.
  for (const net::NodeId target : local_drills_) {
    send_drill_request(target, true);
  }
}

void DMon::Overlay::submit_leaf(std::vector<MetricSample>& sorted,
                                PollRecord& record) {
  ZoneDuty& leaf = duties_.front();
  const auto act = acting(leaf.zone->id);
  if (!act) return;
  const std::size_t self = dmon_.nic_.node();
  net::MonitorBatch& batch = dmon_.batch_scratch_;
  if (*act == self) {
    // This node is its own aggregator: fold locally, no loopback frame.
    if (!dmon_.build_publish_batch(sorted, record, batch)) return;
    leaf.rollup.update_origin(static_cast<std::uint32_t>(self), batch,
                              dmon_.host_now());
    maybe_forward_drill(leaf, static_cast<net::NodeId>(self), batch, &record);
    return;
  }
  kecho::Channel* channel = leaf.channel;
  if (!channel->ready()) return;
  if (!dmon_.build_publish_batch(sorted, record, batch)) return;
  const net::MessagePtr frame = encode_batch_event(batch);
  record.submit_cost += channel->submit_to(
      static_cast<net::NodeId>(*act), frame, dmon_.begin_trace(channel->id()));
  ++record.events_submitted;
  dmon_.count_batch(batch, record);
  tx_[0].add(frame->size());
}

void DMon::Overlay::publish_rollups(PollRecord& record) {
  const SimTime now = dmon_.host_now();
  const SimDuration horizon = dmon_.stale_horizon();
  const std::size_t self = dmon_.nic_.node();
  for (ZoneDuty& duty : duties_) {
    const auto act = acting(duty.zone->id);
    if (!act || *act != self) continue;
    if (!duty.rollup.build(agg_scratch_, dmon_.config_.hierarchy.rollup, now,
                           horizon)) {
      continue;
    }
    agg_scratch_.tier = static_cast<std::uint8_t>(duty.zone->tier);
    agg_scratch_.zone = duty.zone->id;
    duty.last_built = agg_scratch_;
    duty.last_built_at = now;
    duty.last_built_valid = true;
    tm_rollups_.add();
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
    record.submit_cost += up->submit(frame, dmon_.begin_trace(up->id()));
    ++record.events_submitted;
    tx_[duty.zone->tier].add(frame->size());
  }
}

void DMon::Overlay::apply_drill(ZoneDuty& duty, const DrillRequest& request) {
  if (!duty.zone->contains(request.target)) return;
  if (request.enable) {
    duty.drills[request.target][request.requester] = request.expiry;
  } else {
    auto it = duty.drills.find(request.target);
    if (it != duty.drills.end()) {
      it->second.erase(request.requester);
      if (it->second.empty()) duty.drills.erase(it);
    }
  }
  tm_drill_requests_.add();
  if (duty.zone->tier == 0) return;
  // The acting aggregator re-announces on the zone's own channel — a plain
  // submit reaching every child candidate, so the routing state survives
  // child failover — and applies directly to the child duties it holds
  // itself (its own submit never loops back).
  const auto act = acting(duty.zone->id);
  if (!act || *act != static_cast<std::size_t>(dmon_.nic_.node())) return;
  kecho::Channel* down = duty.channel;
  if (down->ready() && down->remote_member_count() > 0) {
    down->submit(encode_drill_request(request.requester, request.target,
                                      request.enable, drill_ttl()));
  }
  for (ZoneDuty& child : duties_) {
    if (child.zone->parent == duty.zone->id) apply_drill(child, request);
  }
}

void DMon::Overlay::send_drill_request(net::NodeId target, bool enable) {
  const std::uint32_t ttl = drill_ttl();
  const net::NodeId self = dmon_.nic_.node();
  kecho::Channel* summary = dmon_.monitor_channel_;
  if (summary != nullptr && summary->ready() &&
      summary->remote_member_count() > 0) {
    summary->submit(encode_drill_request(self, target, enable, ttl));
  }
  // Root candidates see their own announcements directly.
  if (ZoneDuty* root = duty_of(layout_.root().id)) {
    apply_drill(*root, DrillRequest{self, target, enable, drill_expiry(ttl)});
  }
}

Status DMon::Overlay::drill_down(net::NodeId target, bool enable) {
  if (dmon_.monitor_channel_ == nullptr) {
    return Status::failed_precondition(
        "drill-down needs summary-channel membership (subscriber)");
  }
  if (target >= dmon_.nic_.fabric().node_count()) {
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

void DMon::Overlay::send_drill_up(ZoneDuty& duty, net::NodeId origin,
                                  const net::MonitorBatch& batch,
                                  PollRecord* record) {
  const std::size_t self = dmon_.nic_.node();
  if (!duty.zone->parent) {
    // Root: deliver to the live requesters over the summary channel.
    auto it = duty.drills.find(origin);
    if (it == duty.drills.end()) return;
    const SimTime now = dmon_.host_now();
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
      dmon_.apply_batch_to_peer(dmon_.touch_peer(origin), batch, 0);
    }
    kecho::Channel* summary = dmon_.monitor_channel_;
    if (summary != nullptr && summary->ready()) {
      const net::MessagePtr frame = encode_drill_data(origin, batch);
      const SimDuration cost = summary->submit_to_each(
          [&requesters, &frame](net::NodeId member) -> net::MessagePtr {
            return requesters.contains(member) ? frame : nullptr;
          });
      if (record != nullptr) {
        record->submit_cost += cost;
        ++record->events_submitted;
      }
    }
    tm_drill_data_.add();
    return;
  }
  const auto act = acting(*duty.zone->parent);
  if (!act) return;
  if (*act == self) {
    if (ZoneDuty* parent = duty_of(*duty.zone->parent)) {
      send_drill_up(*parent, origin, batch, record);
    }
    return;
  }
  kecho::Channel* up = duty.parent_channel;
  if (up == nullptr || !up->ready()) return;
  const SimDuration cost = up->submit_to(static_cast<net::NodeId>(*act),
                                         encode_drill_data(origin, batch));
  if (record != nullptr) {
    record->submit_cost += cost;
    ++record->events_submitted;
  }
  tm_drill_data_.add();
}

void DMon::Overlay::maybe_forward_drill(ZoneDuty& leaf, net::NodeId origin,
                                        const net::MonitorBatch& batch,
                                        PollRecord* record) {
  auto it = leaf.drills.find(origin);
  if (it == leaf.drills.end()) return;
  const SimTime now = dmon_.host_now();
  const bool live = std::any_of(
      it->second.begin(), it->second.end(),
      [now](const auto& requester) { return requester.second >= now; });
  if (!live) {
    leaf.drills.erase(it);
    return;
  }
  send_drill_up(leaf, origin, batch, record);
}

void DMon::Overlay::prune_drills(SimTime now) {
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

}  // namespace dproc::core
