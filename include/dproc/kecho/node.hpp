// KECho per-host endpoint: kernel-level event channels.
//
// One Node per simulated host multiplexes all of that host's channels over
// a single reliable kernel-to-kernel connection per peer (the paper's
// "strictly kernel-kernel messaging"). Received events are queued and
// delivered on poll(), matching d-mon's once-per-second socket polling, so
// the receive overhead of Figure 8 is observable as the poll's CPU cost.
//
// Every channel operation charges the host CPU's kernel class through the
// KechoCosts model; those cycles are exactly the perturbation Figures 4-8
// measure.
//
// Failure awareness (LivenessConfig, disabled by default so the baseline
// traces and benchmarks are untouched): registry joins are retried with
// capped exponential backoff until acknowledged; every peer is tracked by
// when it was last heard from, with data frames doubling as heartbeats and
// an explicit channel-0 heartbeat filling idle gaps; a peer silent past the
// miss threshold is evicted (reported to the registry with kMemberEvict,
// retried until acked) and dropped locally; a crashed node can restart()
// and idempotently re-join everything it was a member of.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>

#include "dproc/host/host.hpp"
#include "dproc/kecho/registry.hpp"
#include "dproc/net/tcp.hpp"
#include "dproc/net/wire.hpp"

namespace dproc::kecho {

/// Cycle costs of kernel-level channel operations on the reference CPU
/// (Pentium Pro 200 MHz). Calibrated so the microbenchmarks land in the
/// paper's reported ranges; see EXPERIMENTS.md.
struct KechoCosts {
  double submit_base_cycles = 9000;     // per event, per remote subscriber
  double submit_per_byte_cycles = 3.0;  // marshalling + copy
  double receive_base_cycles = 10000;   // per event drained at poll()
  double receive_per_byte_cycles = 2.2;
  double poll_base_cycles = 1500;       // fixed cost of one poll iteration
};

/// Channel transport selection: reliable kernel-to-kernel TCP (the
/// paper's default) or lossy datagrams — monitoring data is periodically
/// refreshed anyway, so dropping an update under congestion can beat
/// retransmitting stale values.
enum class ChannelTransport : std::uint8_t { kReliable, kDatagram };

/// Liveness and retry behaviour of one node's KECho endpoint. Disabled by
/// default: with `enabled == false` no timers are scheduled, no heartbeats
/// are sent and joins are single fire-and-forget datagrams, so the default
/// configuration is event-for-event identical to the failure-unaware stack
/// (the golden-trace test pins this).
struct LivenessConfig {
  bool enabled = false;
  /// Heartbeat period; a data frame to a peer within the period suppresses
  /// the explicit heartbeat (piggybacking on the monitoring traffic).
  SimDuration heartbeat_period = seconds(1.0);
  /// A peer silent for more than miss_threshold heartbeat periods is
  /// declared dead and evicted.
  int miss_threshold = 3;
  /// Capped exponential backoff for registry retries (join, leave, evict):
  /// delay(n) = min(retry_base * 2^n, retry_cap).
  SimDuration retry_base = milliseconds(100.0);
  SimDuration retry_cap = seconds(2.0);
  /// Join retries only, without the rest of the liveness machinery (no
  /// heartbeats, no eviction timers) — lets a benchmark boot every node at
  /// t=0 and ride the backoff through the join storm without paying for
  /// heartbeat traffic. Implied by `enabled`.
  bool join_retries = false;
  /// Deterministic per-node jitter on the retry backoff: the delay is
  /// stretched by up to this fraction, keyed by a hash of (node id,
  /// attempt). 0 keeps the legacy synchronized backoff; 1.0 spreads a
  /// simultaneous join storm across a full extra backoff step so the
  /// retries do not re-collide every round.
  double retry_jitter = 0.0;
};

/// Client-side view of the (possibly replicated) channel registry.
struct RegistryClientConfig {
  /// Fabric node of every registry replica, indexed by replica id. Empty
  /// means the single registry node passed to the Node constructor; when
  /// set, join/removal retries rotate across the replicas (attempt n goes
  /// to replica n mod R) and lookups spread across followers.
  std::vector<net::NodeId> replicas;
  /// Lease-stamped local channel cache: join responses, membership
  /// notifications and lookup responses populate it; kCacheInvalidate and
  /// lease expiry (checked lazily, no timers) bound its staleness.
  bool cache = false;
  SimDuration cache_lease = seconds(5.0);
};

/// Client cache counters (observability for tests and telemetry).
struct ClientCacheStats {
  std::uint64_t hits = 0;    // lookups served from a fresh cached record
  std::uint64_t misses = 0;  // absent or expired — went to the registry
  std::uint64_t invalidations = 0;  // kCacheInvalidate frames processed
  std::uint64_t expiries = 0;       // entries discarded past their lease
  /// Worst record age ever served from the cache; by construction at most
  /// the lease (the staleness bound the chaos test asserts).
  std::int64_t max_served_staleness_ns = 0;
};

/// Membership change observed by this node (for d-mon degradation logic).
enum class MemberEventKind : std::uint8_t { kJoined, kLeft, kEvicted };

/// A delivered channel event. The payload is a zero-copy view into the
/// wire frame: `frame` is shared with the sender and every other receiver
/// of the same submission, and `payload_offset` marks where the
/// application's encoded header starts inside it. Nothing is copied out on
/// receive — decode is a bounds check plus an offset.
struct Event {
  ChannelId channel = 0;
  net::NodeId source = 0;
  SimTime submitted_at;
  net::MessagePtr frame;
  std::size_t payload_offset = 0;
  std::size_t payload_bytes = 0;
  /// Causal-tracing context decoded from the frame's optional trailer;
  /// trace_id 0 when the sender was not tracing.
  net::TraceContext trace;

  /// The application payload's encoded header bytes.
  [[nodiscard]] std::span<const std::uint8_t> payload_header() const {
    return std::span<const std::uint8_t>{frame->header}.subspan(payload_offset,
                                                                payload_bytes);
  }
  /// Simulated bulk bytes riding behind the header.
  [[nodiscard]] std::uint64_t payload_body_bytes() const {
    return frame->body_bytes;
  }
  /// Total payload size (header view + bulk), as the receiver is charged.
  [[nodiscard]] std::uint64_t payload_size() const {
    return payload_header().size() + frame->body_bytes;
  }
};

/// Decodes one wire frame into `event` (channel, source, submit time,
/// payload view and the optional trace-context trailer). Returns false on
/// any malformation: a short header, a payload length overrunning the
/// frame, or trailing bytes that are neither empty nor one well-formed
/// TraceContext. Exposed so tests can fuzz the frame decoder directly.
[[nodiscard]] bool decode_event_frame(const net::MessagePtr& frame,
                                      Event& event);

class Node;

/// Handle to one joined channel on one host.
class Channel {
 public:
  using Handler = std::function<void(const Event&)>;

  /// Registers the receive handler; events are delivered at poll() time.
  void set_handler(Handler handler) { handler_ = std::move(handler); }

  /// Publishes to every remote member known at submission time. Returns the
  /// kernel CPU cost charged for the submission.
  ///
  /// A valid `trace` stamps the submit hop into this node's hop log and
  /// appends the context to the wire frame so downstream hops can continue
  /// the chain. The submit is untraced (byte-identical frames) when tracing
  /// is disabled on this host or `trace` is invalid (the default).
  SimDuration submit(const net::MessagePtr& payload,
                     net::TraceContext trace = {});

  /// Per-member payload selection, for interest-scoped fan-out: `select`
  /// returns the payload one member should receive — or nullptr to skip
  /// that member entirely (it is neither sent to nor charged for). Members
  /// whose selector returns the *same* MessagePtr share one encoded wire
  /// frame, so callers should cache payloads per interest group. Counts as
  /// one submitted event however many members were reached; the kernel
  /// cost charged is per member actually sent to, sized by its own frame.
  /// `trace` as for submit().
  using PayloadSelector = std::function<net::MessagePtr(net::NodeId)>;
  SimDuration submit_to_each(const PayloadSelector& select,
                             net::TraceContext trace = {});

  /// Publishes to one specific member only — the hierarchical overlay's
  /// leaf-to-aggregator path. Other members are neither sent to nor
  /// charged; a `member` not currently on the channel makes the call a
  /// zero-cost no-op (the frame would reach nobody). Counts as one
  /// submitted event, like a submit_to_each that skipped everyone else.
  /// `trace` as for submit().
  SimDuration submit_to(net::NodeId member, const net::MessagePtr& payload,
                        net::TraceContext trace = {});

  [[nodiscard]] ChannelId id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] bool ready() const { return ready_; }
  [[nodiscard]] const std::vector<Member>& members() const { return members_; }
  [[nodiscard]] std::size_t remote_member_count() const;
  [[nodiscard]] std::uint64_t events_submitted() const { return submitted_; }
  [[nodiscard]] std::uint64_t events_received() const { return received_; }
  [[nodiscard]] std::size_t pending_events() const { return rx_queue_.size(); }

 private:
  friend class Node;
  Channel(Node& node, std::string name) : node_(node), name_(std::move(name)) {}

  /// Stamps the submit hop for a traced submit and returns the context to
  /// append to the wire frame; nullptr when the submit is untraced.
  const net::TraceContext* stamp_submit(net::TraceContext& trace);
  /// The fan-out loop behind submit, submit_to and submit_to_each (defined
  /// in node.cpp): `select(member)` returns the payload for that member, or
  /// null to skip it.
  template <typename Select>
  SimDuration fan_out(net::TraceContext trace, const Select& select);

  Node& node_;
  std::string name_;
  ChannelId id_ = 0;
  ChannelTransport transport_ = ChannelTransport::kReliable;
  bool ready_ = false;
  std::vector<Member> members_;  // remote members
  Handler handler_;
  std::deque<Event> rx_queue_;
  std::uint64_t submitted_ = 0;
  std::uint64_t received_ = 0;
  /// fan_out's per-submission frame cache (payload identity -> encoded
  /// frame), emptied after each submission; kept for its capacity.
  std::vector<std::pair<const net::Message*, net::MessagePtr>> frames_scratch_;
  std::vector<std::function<void(Channel&)>> on_ready_;
  int join_attempts_ = 0;        // backoff exponent for the next retry
  sim::EventHandle join_retry_;  // pending retry; cancelled on response
};

struct PollStats {
  std::size_t events_delivered = 0;
  SimDuration cpu_cost{0};
};

class Node {
 public:
  static constexpr net::Port kChannelPort = 7788;
  static constexpr net::Port kDatagramEventPort = 7789;
  /// Channel id of liveness-only frames. The registry hands out ids
  /// starting at 1, so id 0 is never a real channel; heartbeat frames are
  /// discarded after refreshing the sender's last-heard time.
  static constexpr ChannelId kHeartbeatChannel = 0;

  Node(host::Host& host, net::Nic& nic, net::NodeId registry_node,
       net::Port registry_port = RegistryServer::kDefaultPort,
       KechoCosts costs = {}, LivenessConfig liveness = {},
       RegistryClientConfig registry_client = {});
  ~Node();
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Joins (or creates) a channel by name. The returned handle is usable
  /// immediately; submissions before the registry answers reach no one,
  /// exactly like publishing on a channel nobody subscribed to yet. The
  /// transport applies to this node's submissions on the channel.
  Channel& join(const std::string& name,
                std::function<void(Channel&)> on_ready = {},
                ChannelTransport transport = ChannelTransport::kReliable);

  /// Drains every channel's receive queue, charging receive costs and
  /// invoking handlers. d-mon calls this once per polling period.
  PollStats poll();

  /// Cache-first membership lookup by channel name. A fresh cached record
  /// answers synchronously (a hit); otherwise a kLookupRequest goes to a
  /// registry replica (followers serve reads) and the callback fires when
  /// the response arrives — `found == false` reports a channel the
  /// registry does not know. Concurrent lookups of the same name share one
  /// in-flight request; with retries enabled a lost request is re-sent
  /// with the same capped backoff as joins, rotating replicas.
  using LookupCallback = std::function<void(const JoinResponse&)>;
  void lookup_members(const std::string& name, LookupCallback callback);

  /// Hits, misses and invalidations are read from the registry/cache_*
  /// counters.
  [[nodiscard]] ClientCacheStats cache_stats() const;

  /// Observes membership changes this node learns about (its own joins
  /// excluded): a new peer, a graceful leave, an eviction. Fired once per
  /// node-level change, after the local membership state was updated.
  using MembershipListener =
      std::function<void(MemberEventKind, net::NodeId)>;
  void add_membership_listener(MembershipListener listener) {
    membership_listeners_.push_back(std::move(listener));
  }

  /// Graceful node-level departure: tells the registry (retried until
  /// acked when liveness is on) and stops heartbeating. Channel handles
  /// stay valid but no longer receive membership updates.
  void announce_leave();

  /// Fail-stop crash: drops all channel state, peer transports, queued
  /// events and timers, as a kernel reboot would. Channel handles remain
  /// valid (they are owned by this node) but are not ready.
  void crash();

  /// Restart after crash(): idempotently re-joins every channel this node
  /// had joined and resumes heartbeating. Peers and the registry treat the
  /// re-join as a duplicate, so membership reconverges without duplicates.
  void restart();

  [[nodiscard]] bool crashed() const { return crashed_; }
  [[nodiscard]] const LivenessConfig& liveness() const { return liveness_; }
  [[nodiscard]] std::uint64_t heartbeats_sent() const {
    return tm_heartbeats_.value();
  }
  /// Evictions this node initiated (dead peers it reported).
  [[nodiscard]] std::uint64_t evictions_initiated() const {
    return tm_evictions_.value();
  }

  [[nodiscard]] host::Host& host() { return host_; }
  [[nodiscard]] net::Nic& nic() { return nic_; }
  [[nodiscard]] const KechoCosts& costs() const { return costs_; }

  /// Joined channels as (id, name), in poll (name) order; a channel's id is
  /// 0 until the registry answers. Trace reports use this to resolve the
  /// channel ids recorded in hop logs back to names.
  [[nodiscard]] std::vector<std::pair<ChannelId, std::string>> channels()
      const;

 private:
  friend class Channel;

  void on_registry_datagram(const net::MessagePtr& message);
  void on_peer_message(const net::MessagePtr& message);
  /// Lazily opens (or reuses) the transport to a peer kernel.
  net::TcpConnection::Ptr& transport_to(net::NodeId peer);

  /// Sends the join request for `channel` and, when retries are on, arms a
  /// backoff retry that refires until the join response arrives. Retries
  /// rotate across the registry replicas so a dead leader cannot absorb
  /// the whole storm.
  void send_join(Channel& channel);
  /// Sends a leave/evict to the registry; with liveness on, retried with
  /// capped backoff until the matching kOpAck arrives.
  void send_registry_removal(RegistryOp op, Member member, int attempt);
  [[nodiscard]] SimDuration backoff_delay(int attempt) const;
  /// True when join/lookup retries are armed (full liveness or the
  /// join-retries-only mode).
  [[nodiscard]] bool retries_enabled() const {
    return liveness_.enabled || liveness_.join_retries;
  }
  /// The registry endpoint attempt `attempt` addresses.
  [[nodiscard]] net::NodeId registry_target(int attempt) const;
  /// Applies an authoritative membership record to `channel`: cancels the
  /// join retry, rebuilds the member list, marks the channel ready and
  /// fires the on-ready callbacks. Shared by the join-response path and
  /// the cache-adoption path.
  void apply_membership(Channel& channel, ChannelId id,
                        const std::vector<Member>& members);
  /// Re-join fast path: adopts a fresh cached record into `channel` (the
  /// registry is still asked, its response re-applies authoritatively).
  /// Returns true on a cache hit.
  bool try_cache_adopt(Channel& channel);
  /// Fresh (unexpired) cached record for `name`, or nullptr; expired
  /// entries are discarded and counted on the way.
  struct CachedRecord {
    ChannelId id = 0;
    bool found = true;
    std::vector<Member> members;
    SimTime stamped;
  };
  [[nodiscard]] const CachedRecord* fresh_cache_entry(const std::string& name);
  void cache_store(const std::string& name, ChannelId id, bool found,
                   const std::vector<Member>& members);
  void send_lookup(const std::string& name);

  void start_heartbeat_timer();
  /// Periodic liveness pass: evicts peers silent past the miss threshold,
  /// then heartbeats every peer nothing was sent to this period, all with
  /// one frame encoded for the tick.
  void liveness_tick();
  /// Records a newly learned peer; returns true the first time a node-level
  /// peer appears (used to fire kJoined exactly once per node).
  bool member_learned(Member member);
  /// Closes and drops every cached peer transport (both directions); used
  /// when this node learns it was dropped from the cluster, after which
  /// the peers' endpoints of those connections are gone.
  void reset_transports();
  /// Declares a silent peer dead: forgets it locally, reports kMemberEvict.
  void evict_peer(net::NodeId peer);
  /// Removes a peer from every channel, closes its transports and drops its
  /// liveness entry. Idempotent.
  void forget_peer(net::NodeId peer);
  [[nodiscard]] bool member_of_any_channel(net::NodeId peer) const;
  void notify_membership(MemberEventKind kind, net::NodeId node);
  /// Data-frame piggybacking: marks `peer` as sent-to now, suppressing
  /// this period's explicit heartbeat to it.
  void note_sent(net::NodeId peer);

  host::Host& host_;
  net::Nic& nic_;
  net::NodeId registry_node_;
  net::Port registry_port_;
  KechoCosts costs_;
  LivenessConfig liveness_;
  RegistryClientConfig registry_client_;

  std::map<std::string, std::unique_ptr<Channel>> channels_by_name_;
  /// Poll drain order, kept sorted by channel name (matching the name-map
  /// walk it replaced — drain order is part of the deterministic trace).
  std::vector<Channel*> poll_list_;
  /// Dense id → channel lookup; the registry hands out small sequential
  /// ids, so the receive path indexes instead of tree-walking.
  std::vector<Channel*> channels_by_id_;
  std::map<net::NodeId, net::TcpConnection::Ptr> transports_;
  std::unique_ptr<net::TcpListener> listener_;
  std::vector<net::TcpConnection::Ptr> accepted_;

  /// Per-peer liveness state; maintained (cheaply, on membership changes)
  /// even with liveness disabled so listeners see kJoined exactly once,
  /// but only read on receive / refreshed on submit when enabled.
  struct PeerLiveness {
    SimTime last_heard;  // any frame from the peer refreshes this
    SimTime last_sent;   // any frame to the peer suppresses the heartbeat
  };
  std::map<net::NodeId, PeerLiveness> peer_liveness_;
  std::vector<MembershipListener> membership_listeners_;
  /// Pending leave/evict retries keyed by (op, member node); erased when
  /// the registry acks.
  std::map<std::pair<std::uint8_t, net::NodeId>, sim::EventHandle>
      pending_removals_;
  sim::EventHandle heartbeat_timer_;
  net::MessagePtr heartbeat_payload_;  // shared empty payload
  /// Lease-stamped channel cache plus the lookups waiting on the registry
  /// (one in-flight request per name, shared by all concurrent callers).
  std::map<std::string, CachedRecord> channel_cache_;
  struct PendingLookup {
    std::vector<LookupCallback> callbacks;
    int attempts = 0;
    sim::EventHandle retry;
  };
  std::map<std::string, PendingLookup> pending_lookups_;
  std::uint64_t lookup_rr_ = 0;  // read fan-out across replicas
  std::uint64_t cache_expiries_ = 0;
  std::int64_t max_served_staleness_ns_ = 0;
  bool crashed_ = false;

  /// Instruments resolved once from the host registry at construction.
  /// Counters always count; the latency recorder samples only while
  /// telemetry is enabled.
  telemetry::Counter& tm_submits_;
  telemetry::Counter& tm_receives_;
  telemetry::Counter& tm_heartbeats_;
  telemetry::Counter& tm_evictions_;
  telemetry::Counter& tm_join_retries_;
  telemetry::Counter& tm_removal_retries_;
  telemetry::Counter& tm_cache_hits_;
  telemetry::Counter& tm_cache_misses_;
  telemetry::Counter& tm_cache_invalidations_;
  telemetry::LatencyRecorder& tm_submit_us_;
};

}  // namespace dproc::kecho
