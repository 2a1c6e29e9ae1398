// KECho channel registry: the user-level channel directory server.
//
// The first d-mon to contact the registry creates a channel; later joiners
// retrieve its id and current membership, and existing members receive a
// notification about the newcomer. The registry speaks a small datagram
// protocol so it behaves like the paper's out-of-kernel directory process.
//
// Failure awareness: join requests are idempotent (a crash-restart re-join
// neither duplicates the Member entry nor creates a second channel record),
// members can leave gracefully (kMemberLeave) or be reported dead by a
// surviving peer (kMemberEvict) — both remove the member from every channel
// and fan a kMemberDrop notification out to the remaining members (and to
// the removed member itself, so a spuriously evicted node knows to
// re-join). Leave/evict are acked (kOpAck) so senders can retry through
// registry outages, and set_online() models such an outage window: an
// offline registry silently drops every request, exactly like a crashed
// directory process.
//
// Replication (RegistryReplication, disabled by default so the single
// directory process — and the golden trace — stay byte-identical): the
// channel table is replicated across a small replica set with a
// leader-lease scheme and no external consensus. Leadership is
// deterministic: the lowest-indexed replica heard from within the lease
// window (heartbeat_period × miss_threshold, on the virtual clock) leads;
// the leader serializes every mutation and streams versioned
// net::RegistrySync records to the followers. Followers answer lookups
// from their synced table and forward client writes to the leader — or
// queue them when the leader has gone quiet, draining the queue when a new
// leader emerges (possibly themselves). The client ops were already
// idempotent (duplicate joins are no-ops, leave/evict are acked and
// retried), so replaying a queued or retried write after a leader death is
// safe. A replica that discovers it missed a failover (a higher-indexed
// peer heartbeats a newer epoch) recovers before serving: it requests a
// snapshot, applies the record stream, and only then counts toward
// leadership again.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "dproc/net/nic.hpp"
#include "dproc/net/wire.hpp"
#include "dproc/sim/engine.hpp"

namespace dproc::telemetry {
class Counter;
class FlightRecorder;
class Gauge;
class Registry;
}  // namespace dproc::telemetry

namespace dproc::kecho {

using ChannelId = std::uint32_t;

struct Member {
  net::NodeId node;
  net::Port port;

  friend auto operator<=>(const Member&, const Member&) = default;
};

/// Wire ops of the registry protocol.
enum class RegistryOp : std::uint8_t {
  kJoinRequest = 1,   // name, member -> response + notifications
  kJoinResponse = 2,  // channel id, member list (doubles as the join ack)
  kMemberNotify = 3,  // channel id, new member
  kMemberLeave = 4,   // member -> registry: graceful node-level departure
  kMemberEvict = 5,   // member -> registry: report of a dead member
  kMemberDrop = 6,    // registry -> members: member removed (reason byte)
  kOpAck = 7,         // registry -> sender: ack for leave/evict

  // --- replication (leader <-> follower replicas) -----------------------
  kReplicaHeartbeat = 8,  // replica id, epoch, recovering, version, next id
  kRegistrySync = 9,      // one net::RegistrySync channel record
  kSyncRequest = 10,      // recovering replica -> leader: snapshot please
  kSyncDone = 11,         // leader -> recovering replica: snapshot complete
  kForward = 12,          // follower -> leader: wrapped client request

  // --- client cache (registry <-> kecho::Node) --------------------------
  kCacheInvalidate = 13,  // registry -> members: cached entry is stale
  kLookupRequest = 14,    // client -> any replica: read channel record
  kLookupResponse = 15,   // replica -> client: record (or not-found)
};

/// Why a member was dropped from a channel (carried in kMemberDrop).
enum class DropReason : std::uint8_t { kLeave = 0, kEvict = 1 };

/// Replication configuration for the channel registry (and the client-side
/// channel cache fronting it). Disabled by default: one RegistryServer,
/// no timers, no replica traffic — byte-identical to the single directory
/// process the golden trace pins.
struct RegistryReplication {
  bool enabled = false;
  /// Replica-set size; the cluster builder places replica r on node r.
  std::size_t replicas = 3;
  /// Replica-to-replica heartbeat period (virtual time).
  SimDuration heartbeat_period = milliseconds(500.0);
  /// A replica silent past miss_threshold heartbeat periods has lost its
  /// lease: lease = heartbeat_period × miss_threshold.
  int miss_threshold = 3;
  /// Client-side channel cache (lease-stamped local table in kecho::Node).
  bool client_cache = true;
  /// A cached record older than this is expired at lookup time; the lease
  /// bounds worst-case staleness for entries no invalidation reaches.
  SimDuration cache_lease = seconds(5.0);

  [[nodiscard]] SimDuration lease() const {
    return heartbeat_period * static_cast<double>(miss_threshold);
  }
};

/// Wiring of one replica into its set (who am I, where are my peers).
struct ReplicaSetup {
  std::uint32_t replica_id = 0;
  /// Fabric node of every replica, indexed by replica id.
  std::vector<net::NodeId> replica_nodes;
  RegistryReplication config{};
};

struct RegistryStats {
  std::uint64_t joins = 0;            // join requests honoured
  std::uint64_t duplicate_joins = 0;  // idempotent re-joins (no-op)
  std::uint64_t leaves = 0;           // members removed via kMemberLeave
  std::uint64_t evictions = 0;        // members removed via kMemberEvict
  std::uint64_t lookups = 0;          // kLookupRequest answered
  // Request drops by cause (replacing the old single
  // dropped_while_offline bucket).
  std::uint64_t drops_offline = 0;     // registry offline, request dropped
  std::uint64_t drops_malformed = 0;   // undecodable request
  std::uint64_t drops_unknown_op = 0;  // op byte outside the protocol
  std::uint64_t drops_queue_full = 0;  // failover write queue overflowed
  // Replication traffic.
  std::uint64_t syncs_sent = 0;      // RegistrySync records fanned out
  std::uint64_t syncs_applied = 0;   // records applied from the leader
  std::uint64_t forwards = 0;        // client writes forwarded to the leader
  std::uint64_t queued_writes = 0;   // writes parked during failover
  std::uint64_t invalidations_sent = 0;  // kCacheInvalidate fanned out
  std::uint64_t failovers = 0;       // times this replica assumed leadership
};

class RegistryServer {
 public:
  static constexpr net::Port kDefaultPort = 7000;
  /// Bound on the failover write queue; beyond it writes are dropped (and
  /// counted) — the clients' capped-backoff retries provide the real
  /// durability, the queue just shortens the common-case failover.
  static constexpr std::size_t kMaxQueuedWrites = 8192;

  RegistryServer(net::Nic& nic, net::Port port = kDefaultPort);
  /// Replica constructor: one of `setup.config.replicas` servers, each on
  /// its own node, heartbeating its peers on the virtual clock.
  RegistryServer(net::Nic& nic, ReplicaSetup setup,
                 net::Port port = kDefaultPort);
  ~RegistryServer();
  RegistryServer(const RegistryServer&) = delete;
  RegistryServer& operator=(const RegistryServer&) = delete;

  [[nodiscard]] std::size_t channel_count() const { return channels_.size(); }
  [[nodiscard]] net::Port port() const { return port_; }
  [[nodiscard]] const RegistryStats& stats() const { return stats_; }

  /// Fault injection: an offline registry drops every request on the floor
  /// (the directory process crashed); clients must retry. A replica coming
  /// back online re-enters through recovery: it wipes its record versions,
  /// snapshots from the surviving replicas, and waits out one full lease
  /// before counting toward leadership again — a returned stale leader can
  /// neither serve stale reads nor reclaim the lease with missed (or
  /// version-colliding unsynced) mutations.
  void set_online(bool online);
  [[nodiscard]] bool online() const { return online_; }

  // --- replication observability ----------------------------------------

  [[nodiscard]] bool replicated() const { return replicated_; }
  [[nodiscard]] std::uint32_t replica_id() const { return replica_id_; }
  /// The replica this server currently believes leads (its own view; views
  /// may briefly diverge mid-failover).
  [[nodiscard]] std::uint32_t leader_id() const;
  [[nodiscard]] bool is_leader() const;
  [[nodiscard]] bool recovering() const { return recovering_; }
  [[nodiscard]] std::uint32_t epoch() const { return epoch_; }
  [[nodiscard]] std::uint64_t table_version() const { return version_; }
  [[nodiscard]] std::size_t queued_write_count() const {
    return queued_writes_.size();
  }

  /// Current membership of a named channel; empty if the channel does not
  /// exist (observability for tests and the chaos harness). Returns a
  /// reference into the live table — copy before mutating the server.
  [[nodiscard]] const std::vector<Member>& channel_members(
      const std::string& name) const;

  /// Names of every channel ever created, in name order, as views into the
  /// live table (stable until a channel is created). The hierarchy tests
  /// use this to assert the zone-scoped channel set; the chaos tests
  /// compare it across replicas.
  [[nodiscard]] std::vector<std::string_view> channel_names() const;

  /// Mirrors the op counters into `telemetry` (typically the hosting node's
  /// registry) under "registry/..."; nullptr detaches. Purely additive: the
  /// plain RegistryStats keep counting either way.
  void set_telemetry(telemetry::Registry* telemetry);

  /// Attaches the hosting node's flight recorder; replica-set transitions
  /// (elections, lease expiries, outages, sync catch-up) are recorded into
  /// it. nullptr detaches. Inert when the recorder is disabled.
  void set_flight(telemetry::FlightRecorder* flight) { flight_ = flight; }

  /// The datagram handler, exposed so robustness tests can feed malformed
  /// requests directly without standing up a second fabric endpoint.
  void handle_request(net::NodeId from, net::Port from_port,
                      const net::MessagePtr& message);

 private:
  struct ChannelRecord {
    ChannelId id;
    std::string name;
    std::vector<Member> members;
    std::uint64_t version = 0;  // table version of the last mutation
  };

  /// Removes `member` from every channel, notifying survivors (and the
  /// removed member) per affected channel. Idempotent.
  void remove_member(Member member, DropReason reason);
  void handle_client_request(net::NodeId from, net::Port from_port,
                             RegistryOp op, net::ByteReader& r,
                             const net::MessagePtr& message);
  void handle_join(net::NodeId from, net::ByteReader& r);
  void handle_lookup(net::ByteReader& r);

  // --- replication internals --------------------------------------------

  [[nodiscard]] bool replica_live(std::uint32_t r) const;
  [[nodiscard]] SimTime now() const;
  void heartbeat_tick();
  /// Broadcasts kSyncRequest to every peer; whoever is not itself
  /// recovering streams a snapshot back. Re-sent every heartbeat tick
  /// while recovering, so a lost request (or a peer that was mid-recovery)
  /// cannot wedge recovery.
  void request_snapshot();
  void check_leadership();
  void become_leader();
  void drain_queued_writes();
  /// Fans the post-mutation record to every follower and a cache
  /// invalidation to the members (+ `removed`, when a removal). Leader-side
  /// only; bumps the table version.
  void replicate_mutation(ChannelRecord& record, const Member* removed);
  /// Fans kCacheInvalidate for `name` to the clients this replica served
  /// lookup responses to (plus `removed`, when set), then forgets them.
  void invalidate_cachers(const std::string& name, std::uint64_t version,
                          const Member* removed);
  void send_sync_record(net::NodeId to, const ChannelRecord& record) const;
  void handle_replica_op(net::NodeId from, RegistryOp op, net::ByteReader& r);
  void apply_sync(const net::RegistrySync& sync);
  /// True when this write should be handled here; false after forwarding
  /// or queueing it for the leader.
  bool accept_write(net::NodeId from, net::Port from_port,
                    const net::MessagePtr& message);

  net::Nic& nic_;
  net::Port port_;
  bool online_ = true;
  RegistryStats stats_;
  std::map<std::string, ChannelRecord> channels_;
  ChannelId next_id_ = 1;
  /// Clients served a lookup response per channel — the cache holders a
  /// mutation must invalidate. Members are excluded: they receive the
  /// authoritative kMemberNotify/kMemberDrop pushes instead. Cleared after
  /// each invalidation fan-out (a holder re-registers by looking up again).
  std::map<std::string, std::vector<Member>> lookup_cachers_;

  // Replication state (inert in single-server mode).
  bool replicated_ = false;
  std::uint32_t replica_id_ = 0;
  std::vector<net::NodeId> replica_nodes_;
  RegistryReplication rep_;
  std::uint32_t epoch_ = 0;     // bumped by each new leader on takeover
  std::uint64_t version_ = 0;   // table version (one per mutation)
  bool recovering_ = false;
  std::uint64_t recovery_target_ = 0;  // version the snapshot must reach
  /// A replica back from an outage may not claim leadership before this
  /// instant (one lease past its return): it must hear the world first.
  SimTime not_before_{};
  bool was_leader_ = false;
  /// Leader id this replica last observed; lets check_leadership() record a
  /// lease expiry exactly once when the old leader's view goes stale.
  std::uint32_t last_leader_view_ = 0;
  sim::EventHandle heartbeat_timer_;
  /// What this replica last heard from each peer replica.
  struct ReplicaView {
    SimTime last_heard;
    std::uint32_t epoch = 0;
    std::uint64_t version = 0;
    ChannelId next_id = 1;
    bool recovering = false;
  };
  std::vector<ReplicaView> views_;
  /// Client writes parked while no leader is reachable; drained on the
  /// next leadership change (applied here or forwarded to the new leader).
  struct QueuedWrite {
    net::NodeId from;
    net::Port from_port;
    net::MessagePtr message;
  };
  std::deque<QueuedWrite> queued_writes_;

  /// Telemetry mirrors of RegistryStats (null until set_telemetry).
  telemetry::Counter* tm_joins_ = nullptr;
  telemetry::Counter* tm_duplicate_joins_ = nullptr;
  telemetry::Counter* tm_leaves_ = nullptr;
  telemetry::Counter* tm_evictions_ = nullptr;
  telemetry::Counter* tm_drops_offline_ = nullptr;
  telemetry::Counter* tm_drops_malformed_ = nullptr;
  telemetry::Counter* tm_drops_unknown_op_ = nullptr;
  telemetry::Counter* tm_syncs_sent_ = nullptr;
  telemetry::Counter* tm_syncs_applied_ = nullptr;
  telemetry::Counter* tm_forwards_ = nullptr;
  telemetry::Counter* tm_failovers_ = nullptr;
  telemetry::Gauge* tm_role_ = nullptr;  // 1 while leading, else 0
  telemetry::FlightRecorder* flight_ = nullptr;
};

/// Encodes a join request (used by kecho::Node; exposed for tests).
net::MessagePtr encode_join_request(const std::string& name, Member member);
/// Encodes a leave/evict request (`op` must be one of those two).
net::MessagePtr encode_member_removal(RegistryOp op, Member member);
/// Encodes a membership lookup (client cache miss path).
net::MessagePtr encode_lookup_request(const std::string& name, Member reply_to);

/// A decoded kJoinResponse / kLookupResponse body (after the op byte).
struct JoinResponse {
  std::string name;
  ChannelId id = 0;
  bool found = true;  // lookups may miss; join responses always carry a record
  std::vector<Member> members;
};
/// Decodes a join/lookup response body. The member count is validated
/// against the remaining bytes before any allocation, so a corrupted count
/// cannot over-allocate. `lookup` selects the kLookupResponse layout (one
/// extra found byte).
[[nodiscard]] bool decode_join_response(net::ByteReader& r, bool lookup,
                                        JoinResponse& out);

}  // namespace dproc::kecho
