#include "dproc/kecho/registry.hpp"

#include <algorithm>

#include "dproc/net/wire.hpp"
#include "dproc/telemetry/flight.hpp"
#include "dproc/telemetry/telemetry.hpp"
#include "dproc/util/logging.hpp"

namespace dproc::kecho {

namespace {
/// Channel-id headroom a new leader skips on takeover, covering id
/// assignments the dead leader made whose sync frames were still in
/// flight. Ids stay small and dense (the client indexes a vector by id),
/// just never collide across a failover.
constexpr ChannelId kFailoverIdGap = 64;

net::MessagePtr encode_join_response(const std::string& name, ChannelId id,
                                     const std::vector<Member>& members) {
  net::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(RegistryOp::kJoinResponse));
  w.str(name);
  w.u32(id);
  w.u32(static_cast<std::uint32_t>(members.size()));
  for (const Member& m : members) {
    w.u32(m.node);
    w.u16(m.port);
  }
  return net::make_message(w.take());
}

net::MessagePtr encode_lookup_response(const std::string& name, bool found,
                                       ChannelId id,
                                       const std::vector<Member>& members) {
  net::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(RegistryOp::kLookupResponse));
  w.str(name);
  w.u8(found ? 1 : 0);
  w.u32(id);
  w.u32(static_cast<std::uint32_t>(members.size()));
  for (const Member& m : members) {
    w.u32(m.node);
    w.u16(m.port);
  }
  return net::make_message(w.take());
}

net::MessagePtr encode_member_notify(ChannelId id, Member member) {
  net::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(RegistryOp::kMemberNotify));
  w.u32(id);
  w.u32(member.node);
  w.u16(member.port);
  return net::make_message(w.take());
}

net::MessagePtr encode_member_drop(ChannelId id, Member member,
                                   DropReason reason) {
  net::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(RegistryOp::kMemberDrop));
  w.u32(id);
  w.u32(member.node);
  w.u16(member.port);
  w.u8(static_cast<std::uint8_t>(reason));
  return net::make_message(w.take());
}

net::MessagePtr encode_op_ack(RegistryOp op, Member member) {
  net::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(RegistryOp::kOpAck));
  w.u8(static_cast<std::uint8_t>(op));
  w.u32(member.node);
  w.u16(member.port);
  return net::make_message(w.take());
}
}  // namespace

net::MessagePtr encode_join_request(const std::string& name, Member member) {
  net::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(RegistryOp::kJoinRequest));
  w.str(name);
  w.u32(member.node);
  w.u16(member.port);
  return net::make_message(w.take());
}

net::MessagePtr encode_member_removal(RegistryOp op, Member member) {
  net::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(op));
  w.u32(member.node);
  w.u16(member.port);
  return net::make_message(w.take());
}

net::MessagePtr encode_lookup_request(const std::string& name,
                                      Member reply_to) {
  net::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(RegistryOp::kLookupRequest));
  w.str(name);
  w.u32(reply_to.node);
  w.u16(reply_to.port);
  return net::make_message(w.take());
}

bool decode_join_response(net::ByteReader& r, bool lookup, JoinResponse& out) {
  out.name = r.str();
  out.found = lookup ? r.u8() != 0 : true;
  out.id = r.u32();
  const std::uint32_t count = r.u32();
  // Validate the declared count against the bytes actually present before
  // reserving: a corrupted count must neither over-allocate nor yield a
  // partially decoded member list.
  if (!r.ok() || r.remaining() < static_cast<std::size_t>(count) * 6) {
    return false;
  }
  out.members.clear();
  out.members.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    out.members.push_back(Member{r.u32(), r.u16()});
  }
  return r.ok();
}

RegistryServer::RegistryServer(net::Nic& nic, net::Port port)
    : nic_(nic), port_(port) {
  nic_.bind_datagram(port_, [this](net::NodeId from, net::Port from_port,
                                   const net::MessagePtr& message) {
    handle_request(from, from_port, message);
  });
}

RegistryServer::RegistryServer(net::Nic& nic, ReplicaSetup setup,
                               net::Port port)
    : RegistryServer(nic, port) {
  replicated_ = true;
  replica_id_ = setup.replica_id;
  replica_nodes_ = std::move(setup.replica_nodes);
  rep_ = setup.config;
  // Replica 0 leads from birth (no failover counted); every view starts
  // with a full grace window so a follower cannot usurp before the first
  // heartbeat round.
  was_leader_ = replica_id_ == 0;
  views_.resize(replica_nodes_.size());
  const SimTime start = now();
  for (ReplicaView& view : views_) view.last_heard = start;
  heartbeat_timer_ = nic_.fabric().engine().schedule_periodic(
      rep_.heartbeat_period, [this] { heartbeat_tick(); });
}

RegistryServer::~RegistryServer() { heartbeat_timer_.cancel(); }

SimTime RegistryServer::now() const { return nic_.fabric().engine().now(); }

void RegistryServer::set_online(bool online) {
  if (online == online_) return;
  online_ = online;
  if (flight_) {
    flight_->record(online_ ? telemetry::Severity::kInfo
                            : telemetry::Severity::kError,
                    telemetry::FlightSubsystem::kRegistry,
                    online_ ? telemetry::FlightCode::kRegistryOnline
                            : telemetry::FlightCode::kRegistryOutage,
                    replica_id_);
  }
  if (!replicated_) return;
  if (!online_) {
    // The directory process died: parked writes die with it (the clients
    // retry against the other replicas).
    queued_writes_.clear();
    return;
  }
  // Back from the dead. Everything since the crash is unknown — including
  // mutations this replica applied as leader whose sync frames never left
  // the node. Wipe the record versions so the snapshot overwrites the table
  // wholesale (a stale record must never win a version comparison against
  // the survivors' history), and sit out one full lease before counting
  // toward leadership so the world is heard before it can be led.
  recovering_ = true;
  recovery_target_ = 0;
  version_ = 0;
  for (auto& [name, record] : channels_) record.version = 0;
  lookup_cachers_.clear();
  not_before_ = now() + rep_.lease();
  if (was_leader_) {
    was_leader_ = false;
    if (tm_role_) tm_role_->set(0.0);
  }
  DPROC_INFO() << "registry replica " << replica_id_
               << ": back online, recovering from peers";
  request_snapshot();
}

void RegistryServer::request_snapshot() {
  net::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(RegistryOp::kSyncRequest));
  w.u32(replica_id_);
  const net::MessagePtr request = net::make_message(w.take());
  for (std::uint32_t r = 0; r < replica_nodes_.size(); ++r) {
    if (r == replica_id_) continue;
    nic_.send_datagram(replica_nodes_[r], port_, request, port_);
  }
}

void RegistryServer::set_telemetry(telemetry::Registry* telemetry) {
  if (telemetry == nullptr) {
    tm_joins_ = tm_duplicate_joins_ = tm_leaves_ = tm_evictions_ =
        tm_drops_offline_ = tm_drops_malformed_ = tm_drops_unknown_op_ =
            tm_syncs_sent_ = tm_syncs_applied_ = tm_forwards_ = tm_failovers_ =
                nullptr;
    tm_role_ = nullptr;
    return;
  }
  tm_joins_ = &telemetry->counter("registry", "joins");
  tm_duplicate_joins_ = &telemetry->counter("registry", "duplicate_joins");
  tm_leaves_ = &telemetry->counter("registry", "leaves");
  tm_evictions_ = &telemetry->counter("registry", "evictions");
  tm_drops_offline_ = &telemetry->counter("registry", "drops_offline");
  tm_drops_malformed_ = &telemetry->counter("registry", "drops_malformed");
  tm_drops_unknown_op_ = &telemetry->counter("registry", "drops_unknown_op");
  tm_syncs_sent_ = &telemetry->counter("registry", "syncs_sent");
  tm_syncs_applied_ = &telemetry->counter("registry", "syncs_applied");
  tm_forwards_ = &telemetry->counter("registry", "forwards");
  tm_failovers_ = &telemetry->counter("registry", "failovers");
  tm_role_ = &telemetry->gauge("registry", "role");
  tm_role_->set(is_leader() ? 1.0 : 0.0);
}

const std::vector<Member>& RegistryServer::channel_members(
    const std::string& name) const {
  static const std::vector<Member> kNoMembers;
  auto it = channels_.find(name);
  return it == channels_.end() ? kNoMembers : it->second.members;
}

std::vector<std::string_view> RegistryServer::channel_names() const {
  std::vector<std::string_view> names;
  names.reserve(channels_.size());
  for (const auto& [name, record] : channels_) names.push_back(name);
  return names;
}

// --- leadership -----------------------------------------------------------

bool RegistryServer::replica_live(std::uint32_t r) const {
  if (r == replica_id_) {
    return online_ && !recovering_ && now() >= not_before_;
  }
  const ReplicaView& view = views_[r];
  if (view.recovering) return false;
  return now() - view.last_heard <= rep_.lease();
}

std::uint32_t RegistryServer::leader_id() const {
  if (!replicated_) return 0;
  for (std::uint32_t r = 0; r < views_.size(); ++r) {
    if (replica_live(r)) return r;
  }
  return replica_id_;  // nobody live in this view — degenerate self-lead
}

bool RegistryServer::is_leader() const {
  if (!replicated_) return true;
  return online_ && !recovering_ && leader_id() == replica_id_;
}

void RegistryServer::heartbeat_tick() {
  if (!online_) return;  // a crashed directory process heartbeats nobody
  net::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(RegistryOp::kReplicaHeartbeat));
  w.u32(replica_id_);
  w.u32(epoch_);
  w.u8(recovering_ ? 1 : 0);
  w.u64(version_);
  w.u32(next_id_);
  const net::MessagePtr beat = net::make_message(w.take());
  for (std::uint32_t r = 0; r < replica_nodes_.size(); ++r) {
    if (r == replica_id_) continue;
    nic_.send_datagram(replica_nodes_[r], port_, beat, port_);
  }
  if (recovering_) {
    // Snapshot requests are plain datagrams: re-ask every tick until the
    // done marker lands, so a request lost to a crashing peer cannot wedge
    // recovery. If — a full grace window past our return — no peer is both
    // fresh and itself recovered, there is nobody to recover from (total
    // outage restart, or sole survivor): our table is as good as any.
    if (now() >= not_before_) {
      bool any_source = false;
      for (std::uint32_t r = 0; r < views_.size(); ++r) {
        if (r == replica_id_ || views_[r].recovering) continue;
        if (now() - views_[r].last_heard <= rep_.lease()) any_source = true;
      }
      if (!any_source) {
        recovering_ = false;
        DPROC_INFO() << "registry replica " << replica_id_
                     << ": no recovery source in view; serving as-is";
      }
    }
    if (recovering_) request_snapshot();
  }
  check_leadership();
  if (queued_writes_.empty()) return;
  if (is_leader()) {
    drain_queued_writes();
  } else {
    // Forward the parked writes once a live leader is back in view.
    const std::uint32_t leader = leader_id();
    if (leader != replica_id_ &&
        now() - views_[leader].last_heard <= rep_.heartbeat_period * 2.0) {
      std::deque<QueuedWrite> parked;
      parked.swap(queued_writes_);
      for (QueuedWrite& write : parked) {
        net::ByteWriter fw;
        fw.u8(static_cast<std::uint8_t>(RegistryOp::kForward));
        fw.u32(write.from);
        fw.u16(write.from_port);
        fw.u32(static_cast<std::uint32_t>(write.message->header.size()));
        fw.bytes(write.message->header);
        nic_.send_datagram(replica_nodes_[leader], port_,
                           net::make_message(fw.take()), port_);
        ++stats_.forwards;
        if (tm_forwards_) tm_forwards_->add();
      }
    }
  }
}

void RegistryServer::check_leadership() {
  // Record the lease expiry of a leader this replica stops seeing as live:
  // the first symptom of a dead leader, before any election completes.
  const std::uint32_t leader = leader_id();
  if (leader != last_leader_view_) {
    if (flight_ && !replica_live(last_leader_view_)) {
      flight_->record(telemetry::Severity::kWarn,
                      telemetry::FlightSubsystem::kRegistry,
                      telemetry::FlightCode::kLeaseExpired, last_leader_view_);
    }
    last_leader_view_ = leader;
  }
  const bool lead = is_leader();
  if (lead && !was_leader_) {
    become_leader();
  } else if (!lead && was_leader_) {
    was_leader_ = false;
    if (tm_role_) tm_role_->set(0.0);
    DPROC_INFO() << "registry replica " << replica_id_
                 << ": yielding leadership to replica " << leader_id();
  }
}

void RegistryServer::become_leader() {
  for (const ReplicaView& view : views_) {
    epoch_ = std::max(epoch_, view.epoch);
    next_id_ = std::max(next_id_, view.next_id);
  }
  ++epoch_;
  // Skip past any ids the dead leader may have assigned whose sync frames
  // never arrived: ids stay dense enough for the clients' id-indexed
  // channel tables, but can never collide across a failover.
  next_id_ += kFailoverIdGap;
  was_leader_ = true;
  ++stats_.failovers;
  if (tm_failovers_) tm_failovers_->add();
  if (tm_role_) tm_role_->set(1.0);
  if (flight_) {
    flight_->record(telemetry::Severity::kWarn,
                    telemetry::FlightSubsystem::kRegistry,
                    telemetry::FlightCode::kLeaderElected, replica_id_, epoch_);
  }
  DPROC_INFO() << "registry replica " << replica_id_
               << ": assuming leadership (epoch " << epoch_ << ", next id "
               << next_id_ << ", " << queued_writes_.size()
               << " queued writes)";
  drain_queued_writes();
}

void RegistryServer::drain_queued_writes() {
  std::deque<QueuedWrite> parked;
  parked.swap(queued_writes_);
  for (QueuedWrite& write : parked) {
    handle_request(write.from, write.from_port, write.message);
  }
}

bool RegistryServer::accept_write(net::NodeId from, net::Port from_port,
                                  const net::MessagePtr& message) {
  if (is_leader()) return true;
  const std::uint32_t leader = leader_id();
  // Forward to a leader recently heard from — and park a copy regardless.
  // All three client writes are idempotent, so the parked duplicate is
  // harmless when the forward lands, and it is the write's lifeline when
  // the forward was aimed at a corpse the lease has not yet declared dead:
  // the queue drains toward whoever leads next, possibly this replica.
  if (leader != replica_id_ &&
      now() - views_[leader].last_heard <= rep_.heartbeat_period * 2.0) {
    net::ByteWriter w;
    w.u8(static_cast<std::uint8_t>(RegistryOp::kForward));
    w.u32(from);
    w.u16(from_port);
    w.u32(static_cast<std::uint32_t>(message->header.size()));
    w.bytes(message->header);
    nic_.send_datagram(replica_nodes_[leader], port_,
                       net::make_message(w.take()), port_);
    ++stats_.forwards;
    if (tm_forwards_) tm_forwards_->add();
  }
  if (queued_writes_.size() >= kMaxQueuedWrites) {
    ++stats_.drops_queue_full;
    return false;
  }
  queued_writes_.push_back(QueuedWrite{from, from_port, message});
  ++stats_.queued_writes;
  return false;
}

// --- replication traffic --------------------------------------------------

void RegistryServer::send_sync_record(net::NodeId to,
                                      const ChannelRecord& record) const {
  net::RegistrySync sync;
  sync.table_version = record.version;
  sync.next_id = next_id_;
  sync.channel_id = record.id;
  sync.name = record.name;
  sync.members.reserve(record.members.size());
  for (const Member& m : record.members) {
    sync.members.push_back(net::RegistrySync::Member{m.node, m.port});
  }
  net::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(RegistryOp::kRegistrySync));
  sync.encode(w);
  nic_.send_datagram(to, port_, net::make_message(w.take()), port_);
}

void RegistryServer::replicate_mutation(ChannelRecord& record,
                                        const Member* removed) {
  if (!replicated_) return;
  record.version = ++version_;
  for (std::uint32_t r = 0; r < replica_nodes_.size(); ++r) {
    if (r == replica_id_) continue;
    send_sync_record(replica_nodes_[r], record);
    ++stats_.syncs_sent;
    if (tm_syncs_sent_) tm_syncs_sent_->add();
  }
  invalidate_cachers(record.name, record.version, removed);
}

void RegistryServer::invalidate_cachers(const std::string& name,
                                        std::uint64_t version,
                                        const Member* removed) {
  if (!rep_.client_cache) return;
  // Lease invalidation: every client this replica served a lookup response
  // for drops its cached record (members need none — they receive the
  // authoritative kMemberNotify/kMemberDrop pushes), plus the member just
  // removed — the node most likely to serve a stale record. Each replica
  // invalidates its own lookup audience: the leader on mutation, the
  // followers when the sync record lands.
  auto cachers = lookup_cachers_.find(name);
  const bool any_cachers =
      cachers != lookup_cachers_.end() && !cachers->second.empty();
  if (!any_cachers && removed == nullptr) return;
  net::CacheInvalidate invalidate;
  invalidate.table_version = version;
  invalidate.name = name;
  net::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(RegistryOp::kCacheInvalidate));
  invalidate.encode(w);
  const net::MessagePtr frame = net::make_message(w.take());
  if (any_cachers) {
    for (const Member& m : cachers->second) {
      nic_.send_datagram(m.node, m.port, frame, port_);
      ++stats_.invalidations_sent;
    }
    cachers->second.clear();
  }
  if (removed != nullptr) {
    nic_.send_datagram(removed->node, removed->port, frame, port_);
    ++stats_.invalidations_sent;
  }
}

void RegistryServer::apply_sync(const net::RegistrySync& sync) {
  auto [it, created] = channels_.try_emplace(sync.name);
  ChannelRecord& record = it->second;
  if (!created && sync.table_version <= record.version) return;  // stale
  record.id = sync.channel_id;
  record.name = sync.name;
  record.version = sync.table_version;
  record.members.clear();
  record.members.reserve(sync.members.size());
  for (const net::RegistrySync::Member& m : sync.members) {
    record.members.push_back(Member{m.node, m.port});
  }
  version_ = std::max(version_, sync.table_version);
  next_id_ = std::max(next_id_, sync.next_id);
  ++stats_.syncs_applied;
  if (tm_syncs_applied_) tm_syncs_applied_->add();
  if (flight_) {
    flight_->record(telemetry::Severity::kDebug,
                    telemetry::FlightSubsystem::kRegistry,
                    telemetry::FlightCode::kSyncApplied, replica_id_,
                    sync.table_version);
  }
  invalidate_cachers(record.name, record.version, nullptr);
}

void RegistryServer::handle_replica_op(net::NodeId from, RegistryOp op,
                                       net::ByteReader& r) {
  switch (op) {
    case RegistryOp::kReplicaHeartbeat: {
      const std::uint32_t id = r.u32();
      const std::uint32_t peer_epoch = r.u32();
      const bool peer_recovering = r.u8() != 0;
      const std::uint64_t peer_version = r.u64();
      const ChannelId peer_next_id = r.u32();
      if (!r.ok() || id >= views_.size() || id == replica_id_) {
        ++stats_.drops_malformed;
        if (tm_drops_malformed_) tm_drops_malformed_->add();
        return;
      }
      ReplicaView& view = views_[id];
      view.last_heard = now();
      view.epoch = peer_epoch;
      view.version = peer_version;
      view.next_id = peer_next_id;
      view.recovering = peer_recovering;
      (void)from;
      if (!peer_recovering && peer_version > version_) {
        // A recovered peer carries history we missed (mutations applied
        // while we were presumed dead, or synced past us during a
        // failover). Snapshot before counting toward leadership again —
        // per-record version comparisons make duplicate snapshots cheap.
        if (!recovering_) {
          recovering_ = true;
          recovery_target_ = peer_version;
          if (was_leader_) {
            was_leader_ = false;
            if (tm_role_) tm_role_->set(0.0);
          }
          DPROC_INFO() << "registry replica " << replica_id_
                       << ": behind replica " << id << " (version "
                       << peer_version << " > " << version_
                       << "); recovering";
          request_snapshot();
        } else {
          recovery_target_ = std::max(recovery_target_, peer_version);
        }
      } else if (!peer_recovering && peer_epoch > epoch_ && !recovering_) {
        // Same table version but a newer epoch: a failover happened with no
        // mutations since — the table is already current, adopt the epoch.
        epoch_ = peer_epoch;
      }
      check_leadership();
      return;
    }
    case RegistryOp::kRegistrySync: {
      net::RegistrySync sync;
      if (!net::RegistrySync::decode(r, sync)) {
        ++stats_.drops_malformed;
        if (tm_drops_malformed_) tm_drops_malformed_->add();
        return;
      }
      apply_sync(sync);
      return;
    }
    case RegistryOp::kSyncRequest: {
      const std::uint32_t requester = r.u32();
      if (!r.ok() || requester >= replica_nodes_.size() ||
          requester == replica_id_) {
        ++stats_.drops_malformed;
        if (tm_drops_malformed_) tm_drops_malformed_->add();
        return;
      }
      if (recovering_) return;  // cannot seed a snapshot from a stale table
      const net::NodeId to = replica_nodes_[requester];
      for (const auto& [name, record] : channels_) {
        send_sync_record(to, record);
        ++stats_.syncs_sent;
        if (tm_syncs_sent_) tm_syncs_sent_->add();
      }
      net::ByteWriter w;
      w.u8(static_cast<std::uint8_t>(RegistryOp::kSyncDone));
      w.u64(version_);
      w.u32(epoch_);
      nic_.send_datagram(to, port_, net::make_message(w.take()), port_);
      return;
    }
    case RegistryOp::kSyncDone: {
      const std::uint64_t snapshot_version = r.u64();
      const std::uint32_t snapshot_epoch = r.u32();
      if (!r.ok()) {
        ++stats_.drops_malformed;
        if (tm_drops_malformed_) tm_drops_malformed_->add();
        return;
      }
      if (!recovering_) return;
      // Sync records can land after the done marker only if reordered —
      // the fabric is FIFO per route, so reaching the snapshot version
      // means the whole stream arrived.
      if (version_ >= std::max(snapshot_version, recovery_target_) ||
          snapshot_version >= recovery_target_) {
        recovering_ = false;
        epoch_ = std::max(epoch_, snapshot_epoch);
        DPROC_INFO() << "registry replica " << replica_id_
                     << ": recovery complete at version " << version_;
        check_leadership();
      }
      return;
    }
    default:
      ++stats_.drops_unknown_op;
      if (tm_drops_unknown_op_) tm_drops_unknown_op_->add();
      return;
  }
}

// --- request dispatch -----------------------------------------------------

void RegistryServer::handle_request(net::NodeId from, net::Port from_port,
                                    const net::MessagePtr& message) {
  if (!online_) {
    ++stats_.drops_offline;
    if (tm_drops_offline_) tm_drops_offline_->add();
    return;
  }
  net::ByteReader r{message->header};
  const auto op = static_cast<RegistryOp>(r.u8());
  if (!r.ok()) {
    ++stats_.drops_malformed;
    if (tm_drops_malformed_) tm_drops_malformed_->add();
    return;
  }
  switch (op) {
    case RegistryOp::kJoinRequest:
    case RegistryOp::kMemberLeave:
    case RegistryOp::kMemberEvict:
      if (replicated_ && !accept_write(from, from_port, message)) return;
      handle_client_request(from, from_port, op, r, message);
      return;
    case RegistryOp::kLookupRequest:
      handle_lookup(r);
      return;
    case RegistryOp::kForward: {
      if (!replicated_) {
        ++stats_.drops_unknown_op;
        if (tm_drops_unknown_op_) tm_drops_unknown_op_->add();
        return;
      }
      const net::NodeId orig_from = r.u32();
      const net::Port orig_port = r.u16();
      const std::uint32_t length = r.u32();
      if (!r.ok() || r.remaining() < length) {
        ++stats_.drops_malformed;
        if (tm_drops_malformed_) tm_drops_malformed_->add();
        return;
      }
      net::ByteReader inner{std::span<const std::uint8_t>{
          message->header.data() + (message->header.size() - r.remaining()),
          length}};
      const auto inner_op = static_cast<RegistryOp>(inner.u8());
      if (!inner.ok() || (inner_op != RegistryOp::kJoinRequest &&
                          inner_op != RegistryOp::kMemberLeave &&
                          inner_op != RegistryOp::kMemberEvict)) {
        ++stats_.drops_malformed;
        if (tm_drops_malformed_) tm_drops_malformed_->add();
        return;
      }
      // Apply if we lead, queue otherwise — never re-forward a forward, so
      // two replicas with divergent views cannot ping-pong a request.
      if (is_leader()) {
        handle_client_request(orig_from, orig_port, inner_op, inner, message);
      } else if (queued_writes_.size() < kMaxQueuedWrites) {
        net::ByteWriter copy;
        copy.bytes(std::span<const std::uint8_t>{
            message->header.data() + (message->header.size() - r.remaining()),
            length});
        queued_writes_.push_back(
            QueuedWrite{orig_from, orig_port, net::make_message(copy.take())});
        ++stats_.queued_writes;
      } else {
        ++stats_.drops_queue_full;
      }
      return;
    }
    case RegistryOp::kReplicaHeartbeat:
    case RegistryOp::kRegistrySync:
    case RegistryOp::kSyncRequest:
    case RegistryOp::kSyncDone:
      if (!replicated_) {
        ++stats_.drops_unknown_op;
        if (tm_drops_unknown_op_) tm_drops_unknown_op_->add();
        return;
      }
      handle_replica_op(from, op, r);
      return;
    default:
      DPROC_WARN() << "registry: unexpected op " << static_cast<int>(op)
                   << " from node " << from;
      ++stats_.drops_unknown_op;
      if (tm_drops_unknown_op_) tm_drops_unknown_op_->add();
      return;
  }
}

void RegistryServer::handle_client_request(net::NodeId from,
                                           net::Port from_port, RegistryOp op,
                                           net::ByteReader& r,
                                           const net::MessagePtr& message) {
  (void)message;
  switch (op) {
    case RegistryOp::kJoinRequest:
      handle_join(from, r);
      return;
    case RegistryOp::kMemberLeave:
    case RegistryOp::kMemberEvict: {
      Member member{r.u32(), r.u16()};
      if (!r.ok()) {
        DPROC_WARN() << "registry: malformed removal request from node "
                     << from;
        ++stats_.drops_malformed;
        if (tm_drops_malformed_) tm_drops_malformed_->add();
        return;
      }
      remove_member(member, op == RegistryOp::kMemberLeave
                                ? DropReason::kLeave
                                : DropReason::kEvict);
      // Always ack, even when the member was already gone: the sender may
      // be retrying through an outage and needs closure either way.
      nic_.send_datagram(from, from_port != 0 ? from_port : member.port,
                         encode_op_ack(op, member));
      return;
    }
    default:
      return;  // unreachable: dispatch only routes the three client writes
  }
}

void RegistryServer::handle_join(net::NodeId from, net::ByteReader& r) {
  const std::string name = r.str();
  Member member{r.u32(), r.u16()};
  if (!r.ok()) {
    DPROC_WARN() << "registry: malformed join request from node " << from;
    ++stats_.drops_malformed;
    if (tm_drops_malformed_) tm_drops_malformed_->add();
    return;
  }

  auto [it, created] = channels_.try_emplace(name);
  ChannelRecord& record = it->second;
  if (created) {
    record.id = next_id_++;
    record.name = name;
    DPROC_INFO() << "registry: created channel '" << name << "' id "
                 << record.id;
  }

  const bool already_member =
      std::find(record.members.begin(), record.members.end(), member) !=
      record.members.end();
  if (already_member) {
    ++stats_.duplicate_joins;
    if (tm_duplicate_joins_) tm_duplicate_joins_->add();
    if (record.version == 0) {
      // First mutation of a fresh record still replicates (a forwarded
      // duplicate join must not leave followers without the channel).
      replicate_mutation(record, nullptr);
    }
  } else {
    ++stats_.joins;
    if (tm_joins_) tm_joins_->add();
    record.members.push_back(member);
    // Replicate before any client-visible send: a delivered join response
    // then implies the sync frames left this node first, so a crash cannot
    // acknowledge a registration the surviving replicas never heard of.
    replicate_mutation(record, nullptr);
  }
  // Reply with the membership minus the joiner itself (on an idempotent
  // re-join the joiner must not learn itself as a peer), then notify the
  // other members. The response goes to the joining member directly, so it
  // also lands right when the request was forwarded here by a follower
  // replica. A duplicate join is notified too: it is a retry, and the
  // original fan-out may have died with the old leader — re-notifying is
  // idempotent on the client and heals the orphaned-member window.
  std::vector<Member> others;
  others.reserve(record.members.size());
  for (const Member& m : record.members) {
    if (m != member) others.push_back(m);
  }
  nic_.send_datagram(member.node, member.port,
                     encode_join_response(name, record.id, others));
  for (const Member& existing : others) {
    nic_.send_datagram(existing.node, existing.port,
                       encode_member_notify(record.id, member));
  }
}

void RegistryServer::handle_lookup(net::ByteReader& r) {
  const std::string name = r.str();
  Member reply_to{r.u32(), r.u16()};
  if (!r.ok()) {
    ++stats_.drops_malformed;
    if (tm_drops_malformed_) tm_drops_malformed_->add();
    return;
  }
  if (recovering_) return;  // a stale table must not seed client caches
  ++stats_.lookups;
  auto it = channels_.find(name);
  const bool found = it != channels_.end();
  static const std::vector<Member> kNoMembers;
  if (found && replicated_ && rep_.client_cache) {
    // Remember who holds a cached copy, for invalidation on mutation.
    std::vector<Member>& cachers = lookup_cachers_[name];
    if (std::find(cachers.begin(), cachers.end(), reply_to) == cachers.end()) {
      cachers.push_back(reply_to);
    }
  }
  nic_.send_datagram(
      reply_to.node, reply_to.port,
      encode_lookup_response(name, found, found ? it->second.id : 0,
                             found ? it->second.members : kNoMembers));
}

void RegistryServer::remove_member(Member member, DropReason reason) {
  bool removed_any = false;
  for (auto& [name, record] : channels_) {
    auto it = std::find(record.members.begin(), record.members.end(), member);
    if (it == record.members.end()) continue;
    record.members.erase(it);
    removed_any = true;
    // Replicate first (same delivered-implies-synced ordering as joins),
    // then survivors drop the member; the member itself also hears about it
    // so a spurious eviction triggers a re-join, not a silent split-brain.
    replicate_mutation(record, &member);
    for (const Member& survivor : record.members) {
      nic_.send_datagram(survivor.node, survivor.port,
                         encode_member_drop(record.id, member, reason));
    }
    nic_.send_datagram(member.node, member.port,
                       encode_member_drop(record.id, member, reason));
  }
  if (removed_any) {
    if (reason == DropReason::kLeave) {
      ++stats_.leaves;
      if (tm_leaves_) tm_leaves_->add();
    } else {
      ++stats_.evictions;
      if (tm_evictions_) tm_evictions_->add();
    }
    DPROC_INFO() << "registry: member node " << member.node << " removed ("
                 << (reason == DropReason::kLeave ? "leave" : "evict") << ")";
  }
}

}  // namespace dproc::kecho
