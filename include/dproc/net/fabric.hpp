// Link and fabric: the switched-Ethernet model.
//
// The fabric is a graph of unidirectional links; each (src, dst) node pair
// has a route (a sequence of links). A link is a store-and-forward FIFO:
// a packet serializes at link bandwidth behind everything already queued,
// then propagates. Tail drop applies when the queue backlog exceeds the
// buffer — this is where UDP floods lose packets and where TCP observes
// congestion. Cross traffic contends exactly where routes share links,
// which is how the Figure 10 topology perturbs the server-client path.
//
// Packets in flight are not engine events. A packet takes one entry of the
// fabric's pool when it is sent and keeps it, relinked from one link's FIFO
// to the next, until it is delivered or dropped. A link that holds packets
// has exactly one queued event, a sink key: its head packet's exit, keyed
// by the exit time and the seq reserved when the link admitted it. A
// link's exit times never decrease and its seqs grow, so packets leave in
// the same global order as if each had its own event.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dproc/net/packet.hpp"
#include "dproc/sim/engine.hpp"
#include "dproc/util/rng.hpp"
#include "dproc/util/slab.hpp"
#include "dproc/util/time.hpp"

namespace dproc::net {

using LinkId = std::uint32_t;

struct LinkConfig {
  double bandwidth_bps = 100e6;        // Fast Ethernet
  SimDuration propagation = microseconds(25.0);
  std::uint64_t buffer_bytes = 256 * 1024;  // switch port buffer
};

struct LinkStats {
  std::uint64_t packets_sent = 0;
  std::uint64_t bytes_sent = 0;      // wire bytes serialized
  std::uint64_t packets_dropped = 0;
  std::uint64_t bytes_dropped = 0;
};

/// Why the fabric dropped a packet. kNone doubles as "accepted" in
/// Link::transmit's verdict; the other causes feed the per-cause drop
/// counters (FabricStats) and ride along on every TraceHook drop event.
enum class DropCause : std::uint8_t {
  kNone = 0,
  kNodeDown,    // source or destination host powered off
  kLinkDown,    // partitioned link (cable pull)
  kBufferFull,  // switch-port tail drop under congestion
  kLoss,        // injected random loss burst
};
[[nodiscard]] const char* to_string(DropCause cause);

class Link {
 public:
  Link(sim::Engine& engine, LinkConfig config)
      : engine_(engine), config_(config) {}

  /// Offers a packet and returns the drop cause (kNone == admitted;
  /// kLinkDown when partitioned, kBufferFull on tail drop, kLoss on an
  /// injected loss hit). On admission `exit` is set to when the packet
  /// will have fully traversed the link. Schedules nothing: the fabric
  /// holds the packet until then.
  DropCause transmit(const Packet& packet, SimTime& exit);

  /// Bytes currently waiting or in flight on the serializer.
  [[nodiscard]] std::uint64_t backlog_bytes() const;

  /// Fault injection: a down link drops every offered packet (a cable pull
  /// or switch-port partition). Counted in packets_dropped/bytes_dropped.
  void set_down(bool down) { down_ = down; }
  [[nodiscard]] bool down() const { return down_; }

  /// Fault injection: drop each offered packet with probability `p`, drawn
  /// from a generator seeded with `seed` (deterministic given call order).
  /// p = 0 ends the burst; the check is a single branch when inactive.
  void set_loss(double p, std::uint64_t seed) {
    loss_probability_ = p;
    if (p > 0.0) loss_rng_ = Rng{seed};
  }
  [[nodiscard]] double loss_probability() const { return loss_probability_; }

  [[nodiscard]] const LinkStats& stats() const { return stats_; }
  [[nodiscard]] const LinkConfig& config() const { return config_; }

 private:
  sim::Engine& engine_;
  LinkConfig config_;
  LinkStats stats_;
  SimTime busy_until_;  // when the serializer frees up
  bool down_ = false;
  double loss_probability_ = 0.0;
  Rng loss_rng_{0};
};

/// Fabric-wide packet accounting, including drops broken out by cause —
/// the numbers the telemetry layer surfaces per node.
struct FabricStats {
  std::uint64_t packets_sent = 0;       // accepted into the fabric
  std::uint64_t packets_delivered = 0;  // reached a destination handler
  std::uint64_t drops_node_down = 0;
  std::uint64_t drops_link_down = 0;
  std::uint64_t drops_buffer_full = 0;
  std::uint64_t drops_loss = 0;

  [[nodiscard]] std::uint64_t drops_total() const {
    return drops_node_down + drops_link_down + drops_buffer_full + drops_loss;
  }
};

class Fabric {
 public:
  explicit Fabric(sim::Engine& engine);
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// Registers an attachment point (one host NIC) and returns its address.
  NodeId add_node(std::string name);

  LinkId add_link(LinkConfig config);

  /// Routes src→dst through `links`, in traversal order. Both directions
  /// must be set explicitly (links are unidirectional).
  void set_route(NodeId src, NodeId dst, std::vector<LinkId> links);

  /// Canonical cluster topology: every node gets an uplink and downlink to
  /// one non-blocking switch; route a→b = [uplink(a), downlink(b)].
  /// Returns per-node (uplink, downlink) pairs for stat inspection.
  /// Routing is implicit — the route is derived from the two port links at
  /// send time instead of materializing all N² (src, dst) entries, so a
  /// 4096-node star costs O(N) memory. Explicit set_route entries still
  /// take precedence for the pairs they cover.
  std::vector<std::pair<LinkId, LinkId>> build_star(
      const std::vector<NodeId>& nodes, const LinkConfig& config);

  /// Injects a packet; it traverses the route's links in order. If any hop
  /// drops it, traversal ends (the trace hook reports the drop and its
  /// cause). Delivery invokes the handler registered by the destination NIC.
  void send(Packet packet);

  /// The destination-side delivery hook; installed by Nic.
  using DeliveryHandler = std::function<void(const Packet&)>;
  void set_delivery_handler(NodeId node, DeliveryHandler handler);

  [[nodiscard]] Link& link(LinkId id) { return *links_.at(id); }
  [[nodiscard]] sim::Engine& engine() { return engine_; }
  [[nodiscard]] std::size_t node_count() const { return node_names_.size(); }
  [[nodiscard]] const std::string& node_name(NodeId id) const {
    return node_names_.at(id);
  }

  /// Total wire bytes delivered to `node` so far (for bandwidth probes).
  [[nodiscard]] std::uint64_t bytes_delivered_to(NodeId node) const;

  /// Fault injection: a down node neither sends nor receives — packets to
  /// or from it vanish (as with a powered-off machine). Delivery handlers
  /// stay registered so the node can come back.
  void set_node_down(NodeId node, bool down);
  [[nodiscard]] bool node_down(NodeId node) const;

  /// Fault injection on links (partitions and loss bursts); see Link.
  void set_link_down(LinkId id, bool down) { link(id).set_down(down); }
  void set_link_loss(LinkId id, double p, std::uint64_t seed) {
    link(id).set_loss(p, seed);
  }

  /// tcpdump-style tracing: when set, invoked for every packet the fabric
  /// accepts (kind, addressing, wire size, injection time) and again on
  /// delivery or drop. The cause is DropCause::kNone except on kDrop,
  /// where it says why the packet died. Costless when unset; the telemetry
  /// layer piggybacks per-node packet counters on this hook.
  enum class TraceEvent : std::uint8_t { kSend, kDeliver, kDrop };
  using TraceHook =
      std::function<void(TraceEvent, DropCause, const Packet&, SimTime)>;
  void set_trace_hook(TraceHook hook) { trace_ = std::move(hook); }

  /// Fabric-wide packet counters, drops broken out by cause. Always
  /// maintained (plain increments on paths that already branch).
  [[nodiscard]] const FabricStats& stats() const { return stats_; }

 private:
  static constexpr std::uint32_t kNoEntry = ~std::uint32_t{0};

  /// A packet from send to delivery or drop. `route` is null on implicit
  /// star routes and loopback; `next` threads the FIFO of the link it is
  /// on. The exit key comes first, in the entry's first cache line.
  struct InFlight {
    SimTime exit;
    std::uint64_t seq = 0;  // reserved at admission, the exit event's key
    const std::vector<LinkId>* route = nullptr;
    std::uint32_t hop = 0;
    std::uint32_t next = kNoEntry;
    Packet packet;
  };
  /// A link's FIFO of in-flight entries, oldest first.
  struct LinkQueue {
    std::uint32_t head = kNoEntry;
    std::uint32_t tail = kNoEntry;
  };

  /// Sends entry `entry` over its hop, or delivers it past the last hop. A
  /// null route is the implicit star: hop 0 = the sender's uplink, hop 1 =
  /// the destination's downlink, hop 2 = delivery.
  void forward(std::uint32_t entry);
  /// Schedules link `id`'s one exit event, for its new head `entry`, and
  /// prefetches the first and last cache line of the entry behind it.
  void arm(LinkId id, std::uint32_t entry);
  /// The exit event of link `id`: its head packet leaves for the next hop.
  void on_exit(LinkId id);
  /// Past the last hop: delivers the packet unless its node is down, then
  /// frees its entry.
  void arrive(std::uint32_t entry);
  void drop(std::uint32_t entry, DropCause cause);
  /// Frees an entry, dropping its message reference.
  void release(std::uint32_t entry);
  void count_drop(DropCause cause);

  sim::Engine& engine_;
  std::vector<std::string> node_names_;
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<LinkQueue> queues_;  // indexed by LinkId
  Slab<InFlight> in_flight_;       // sized by the peak packets in flight
  std::uint32_t exit_sink_;        // engine sink of link exits (arg: LinkId)
  std::uint32_t arrive_sink_;      // engine sink of loopback (arg: entry)
  std::map<std::pair<NodeId, NodeId>, std::vector<LinkId>> routes_;
  /// Implicit star routing (build_star): per-node (uplink, downlink) port
  /// pairs, indexed by NodeId. Empty when no star was built.
  std::vector<std::pair<LinkId, LinkId>> star_ports_;
  std::vector<DeliveryHandler> delivery_;
  std::vector<std::uint64_t> delivered_bytes_;
  std::vector<bool> node_down_;
  TraceHook trace_;
  FabricStats stats_;
};

}  // namespace dproc::net
