#include "dproc/net/fabric.hpp"

#include <limits>
#include <stdexcept>
#include <utility>

#include "dproc/util/logging.hpp"

namespace dproc::net {

const char* to_string(DropCause cause) {
  switch (cause) {
    case DropCause::kNone: return "none";
    case DropCause::kNodeDown: return "node_down";
    case DropCause::kLinkDown: return "link_down";
    case DropCause::kBufferFull: return "buffer_full";
    case DropCause::kLoss: return "loss";
  }
  return "?";
}

DropCause Link::transmit(const Packet& packet, SimTime& exit) {
  const std::uint64_t wire = packet.wire_bytes();
  // Evaluation order matters for determinism: the loss RNG must only be
  // consulted for packets that would otherwise be accepted, exactly as
  // before the per-cause verdicts were introduced.
  DropCause cause = DropCause::kNone;
  if (down_) {
    cause = DropCause::kLinkDown;
  } else if (backlog_bytes() + wire > config_.buffer_bytes) {
    cause = DropCause::kBufferFull;
  } else if (loss_probability_ > 0.0 &&
             loss_rng_.uniform() < loss_probability_) {
    cause = DropCause::kLoss;
  }
  if (cause != DropCause::kNone) {
    ++stats_.packets_dropped;
    stats_.bytes_dropped += wire;
    return cause;
  }
  const SimTime start = std::max(engine_.now(), busy_until_);
  const SimDuration serialize =
      seconds(static_cast<double>(wire) * 8.0 / config_.bandwidth_bps);
  busy_until_ = start + serialize;
  ++stats_.packets_sent;
  stats_.bytes_sent += wire;

  exit = busy_until_ + config_.propagation;
  return DropCause::kNone;
}

std::uint64_t Link::backlog_bytes() const {
  if (busy_until_ <= engine_.now()) return 0;
  const double sec = (busy_until_ - engine_.now()).sec();
  return static_cast<std::uint64_t>(sec * config_.bandwidth_bps / 8.0);
}

NodeId Fabric::add_node(std::string name) {
  const auto id = static_cast<NodeId>(node_names_.size());
  node_names_.push_back(std::move(name));
  delivery_.emplace_back();
  delivered_bytes_.push_back(0);
  node_down_.push_back(false);
  return id;
}

void Fabric::set_node_down(NodeId node, bool down) {
  node_down_.at(node) = down;
}

bool Fabric::node_down(NodeId node) const { return node_down_.at(node); }

LinkId Fabric::add_link(LinkConfig config) {
  const auto id = static_cast<LinkId>(links_.size());
  links_.push_back(std::make_unique<Link>(engine_, config));
  queues_.emplace_back();
  return id;
}

void Fabric::set_route(NodeId src, NodeId dst, std::vector<LinkId> links) {
  for (LinkId id : links) {
    if (id >= links_.size()) throw std::invalid_argument{"set_route: bad link id"};
  }
  routes_[{src, dst}] = std::move(links);
}

std::vector<std::pair<LinkId, LinkId>> Fabric::build_star(
    const std::vector<NodeId>& nodes, const LinkConfig& config) {
  std::vector<std::pair<LinkId, LinkId>> ports;
  ports.reserve(nodes.size());
  for (NodeId node : nodes) {
    (void)node;
    ports.emplace_back(add_link(config), add_link(config));
  }
  // Routes stay implicit (derived per packet by forward() given a null
  // route): the port
  // table is O(N) where the explicit (src, dst) map would be O(N²) —
  // gigabytes at 4096 nodes. star_ports_ is indexed by NodeId, so pad for
  // any nodes added before this call that are not part of the star.
  if (star_ports_.size() < node_names_.size()) {
    star_ports_.resize(node_names_.size(),
                       {std::numeric_limits<LinkId>::max(),
                        std::numeric_limits<LinkId>::max()});
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    star_ports_.at(nodes[i]) = ports[i];
  }
  return ports;
}

void Fabric::set_delivery_handler(NodeId node, DeliveryHandler handler) {
  delivery_.at(node) = std::move(handler);
}

std::uint64_t Fabric::bytes_delivered_to(NodeId node) const {
  return delivered_bytes_.at(node);
}

void Fabric::count_drop(DropCause cause) {
  switch (cause) {
    case DropCause::kNodeDown: ++stats_.drops_node_down; break;
    case DropCause::kLinkDown: ++stats_.drops_link_down; break;
    case DropCause::kBufferFull: ++stats_.drops_buffer_full; break;
    case DropCause::kLoss: ++stats_.drops_loss; break;
    case DropCause::kNone: break;
  }
}

void Fabric::send(Packet packet) {
  ++stats_.packets_sent;
  if (trace_) trace_(TraceEvent::kSend, DropCause::kNone, packet, engine_.now());
  if (node_down_.at(packet.src)) {
    count_drop(DropCause::kNodeDown);
    if (trace_) {
      trace_(TraceEvent::kDrop, DropCause::kNodeDown, packet, engine_.now());
    }
    return;
  }
  if (packet.src == packet.dst) {
    // Loopback: no link traversal, a small in-kernel delay, never dropped.
    engine_.schedule_after(microseconds(1.0), [this, packet = std::move(packet)] {
      if (trace_) {
        trace_(TraceEvent::kDeliver, DropCause::kNone, packet, engine_.now());
      }
      ++stats_.packets_delivered;
      delivered_bytes_.at(packet.dst) += packet.wire_bytes();
      auto& handler = delivery_.at(packet.dst);
      if (handler) handler(packet);
    });
    return;
  }
  auto it = routes_.find({packet.src, packet.dst});
  if (it != routes_.end()) {
    forward(std::move(packet), &it->second, 0);
    return;
  }
  if (packet.src < star_ports_.size() && packet.dst < star_ports_.size() &&
      star_ports_[packet.src].first != std::numeric_limits<LinkId>::max() &&
      star_ports_[packet.dst].second != std::numeric_limits<LinkId>::max()) {
    forward(std::move(packet), nullptr, 0);
    return;
  }
  throw std::logic_error{"Fabric::send: no route " + node_name(packet.src) +
                         " -> " + node_name(packet.dst)};
}

void Fabric::deliver(const Packet& packet) {
  if (trace_) {
    trace_(TraceEvent::kDeliver, DropCause::kNone, packet, engine_.now());
  }
  ++stats_.packets_delivered;
  delivered_bytes_.at(packet.dst) += packet.wire_bytes();
  auto& handler = delivery_.at(packet.dst);
  if (handler) {
    handler(packet);
  } else {
    DPROC_DEBUG() << "fabric: packet to " << node_name(packet.dst)
                  << " with no NIC attached; discarded";
  }
}

void Fabric::forward(Packet&& packet, const std::vector<LinkId>* route,
                     std::uint32_t hop) {
  const std::size_t hops = route != nullptr ? route->size() : 2;
  if (hop == hops) {
    if (node_down_.at(packet.dst)) {
      count_drop(DropCause::kNodeDown);
      if (trace_) {
        trace_(TraceEvent::kDrop, DropCause::kNodeDown, packet, engine_.now());
      }
      return;  // vanished at the dead NIC
    }
    deliver(packet);
    return;
  }
  const LinkId id = route != nullptr ? (*route)[hop]
                    : hop == 0       ? star_ports_[packet.src].first
                                     : star_ports_[packet.dst].second;
  SimTime exit;
  const DropCause verdict = links_.at(id)->transmit(packet, exit);
  if (verdict != DropCause::kNone) {
    count_drop(verdict);
    if (trace_) trace_(TraceEvent::kDrop, verdict, packet, engine_.now());
    return;
  }
  // The seq the packet's own exit event would have taken here.
  const std::uint64_t seq = engine_.reserve_seq();
  const std::uint32_t entry = in_flight_.acquire();
  in_flight_[entry] = InFlight{std::move(packet), exit, seq, route, hop, kNoEntry};
  LinkQueue& queue = queues_[id];
  if (queue.head == kNoEntry) {
    queue.head = entry;
    arm(id, entry);
  } else {
    in_flight_[queue.tail].next = entry;
  }
  queue.tail = entry;
}

void Fabric::arm(LinkId id, std::uint32_t entry) {
  const InFlight& head = in_flight_[entry];
  engine_.schedule_at(head.exit, head.seq, [this, id] { on_exit(id); });
}

void Fabric::on_exit(LinkId id) {
  LinkQueue& queue = queues_[id];
  const std::uint32_t entry = queue.head;
  InFlight& done = in_flight_[entry];
  queue.head = done.next;
  if (queue.head == kNoEntry) {
    queue.tail = kNoEntry;
  } else {
    arm(id, queue.head);
  }
  Packet packet = std::move(done.packet);
  const std::vector<LinkId>* route = done.route;
  const std::uint32_t next_hop = done.hop + 1;
  in_flight_.release(entry);
  forward(std::move(packet), route, next_hop);
}

}  // namespace dproc::net
