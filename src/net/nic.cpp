#include "dproc/net/nic.hpp"

#include <algorithm>
#include <stdexcept>

#include "dproc/net/tcp.hpp"
#include "dproc/util/logging.hpp"

namespace dproc::net {

Nic::Nic(Fabric& fabric, NodeId node) : fabric_(fabric), node_(node) {
  fabric_.set_delivery_handler(node_, [this](const Packet& p) { on_delivery(p); });
}

Nic::~Nic() {
  fabric_.set_delivery_handler(node_, {});
  // Engine callbacks may keep connections alive past this point; sever
  // their back references so late destruction cannot touch freed memory.
  for (TcpConnection* conn : tcp_conns_) conn->detach_from_nic();
}

void Nic::bind_datagram(Port port, DatagramHandler handler) {
  datagram_handlers_[port] = std::move(handler);
}

void Nic::send_datagram(NodeId dst, Port dst_port, const MessagePtr& message,
                        Port src_port) {
  const std::uint64_t total = message->size();
  const std::uint64_t fragments =
      total == 0 ? 1 : (total + kMtuPayload - 1) / kMtuPayload;
  const std::uint64_t index = next_datagram_index_++;
  ++stats_.datagrams_sent;

  std::uint64_t remaining = total;
  for (std::uint64_t f = 0; f < fragments; ++f) {
    Packet p;
    p.src = node_;
    p.dst = dst;
    p.src_port = src_port;
    p.dst_port = dst_port;
    p.kind = PacketKind::kDatagram;
    p.flow_id = index;  // informational; reassembly keys on (src, src_port)
    p.seq = f;
    p.ack = index;
    p.payload_bytes = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(remaining, kMtuPayload));
    remaining -= p.payload_bytes;
    p.sent_at_ns = fabric_.engine().now().ns();
    if (f + 1 == fragments) p.message = message;
    send_packet(std::move(p));
  }
}

void Nic::send_packet(Packet packet) {
  stats_.bytes_sent += packet.wire_bytes();
  fabric_.send(std::move(packet));
}

const DatagramFlowStats* Nic::datagram_flow(NodeId from, Port from_port) const {
  auto it = flow_stats_.find({from, from_port});
  return it == flow_stats_.end() ? nullptr : &it->second;
}

std::size_t Nic::flow_index(std::uint64_t flow_id) const {
  return static_cast<std::size_t>(
      std::lower_bound(tcp_flow_ids_.begin(), tcp_flow_ids_.end(), flow_id) -
      tcp_flow_ids_.begin());
}

void Nic::register_tcp(std::uint64_t flow_id, TcpConnection* conn) {
  const std::size_t i = flow_index(flow_id);
  if (i < tcp_flow_ids_.size() && tcp_flow_ids_[i] == flow_id) {
    tcp_conns_[i] = conn;
    return;
  }
  const auto at = static_cast<std::ptrdiff_t>(i);
  tcp_flow_ids_.insert(tcp_flow_ids_.begin() + at, flow_id);
  tcp_conns_.insert(tcp_conns_.begin() + at, conn);
}

void Nic::unregister_tcp(std::uint64_t flow_id) {
  const std::size_t i = flow_index(flow_id);
  if (i == tcp_flow_ids_.size() || tcp_flow_ids_[i] != flow_id) return;
  const auto at = static_cast<std::ptrdiff_t>(i);
  tcp_flow_ids_.erase(tcp_flow_ids_.begin() + at);
  tcp_conns_.erase(tcp_conns_.begin() + at);
}

void Nic::bind_tcp_listener(Port port, SynHandler handler) {
  tcp_listeners_[port] = std::move(handler);
}

void Nic::on_delivery(const Packet& packet) {
  stats_.bytes_received += packet.wire_bytes();
  switch (packet.kind) {
    case PacketKind::kDatagram:
      deliver_datagram(packet);
      return;
    case PacketKind::kTcpSyn: {
      auto it = tcp_listeners_.find(packet.dst_port);
      if (it != tcp_listeners_.end()) it->second(packet);
      return;
    }
    case PacketKind::kTcpSynAck:
    case PacketKind::kTcpData:
    case PacketKind::kTcpAck: {
      const std::size_t i = flow_index(packet.flow_id);
      if (i < tcp_flow_ids_.size() && tcp_flow_ids_[i] == packet.flow_id) {
        tcp_conns_[i]->on_packet(packet);
      } else {
        DPROC_DEBUG() << "nic " << node_ << ": segment for unknown flow "
                      << packet.flow_id;
      }
      return;
    }
  }
}

void Nic::deliver_datagram(const Packet& packet) {
  const std::pair<NodeId, Port> key{packet.src, packet.src_port};
  FragmentState& state = fragment_state_[key];
  DatagramFlowStats& flow = flow_stats_[key];

  const auto index = static_cast<std::int64_t>(packet.ack);
  if (index != state.current_index) {
    // A new datagram started. Close out the previous one and count any
    // datagrams that vanished entirely (all fragments dropped).
    if (state.current_index >= 0 && !state.finished) {
      ++flow.lost;
      ++stats_.datagrams_lost;
    }
    const std::int64_t skipped = index - state.current_index - 1;
    if (skipped > 0) {
      flow.lost += static_cast<std::uint64_t>(skipped);
      stats_.datagrams_lost += static_cast<std::uint64_t>(skipped);
    }
    state.current_index = index;
    state.fragments = 0;
    state.finished = false;
  }
  ++state.fragments;

  if (!packet.message) return;  // middle fragment

  const std::uint64_t total = packet.message->size();
  const std::uint64_t expected =
      total == 0 ? 1 : (total + kMtuPayload - 1) / kMtuPayload;
  state.finished = true;
  if (state.fragments != expected) {
    ++flow.lost;
    ++stats_.datagrams_lost;
    return;
  }
  ++flow.received;
  ++stats_.datagrams_received;
  flow.delay_us.add((fabric_.engine().now() - SimTime{packet.sent_at_ns}).us());

  auto handler = datagram_handlers_.find(packet.dst_port);
  if (handler != datagram_handlers_.end()) {
    handler->second(packet.src, packet.src_port, packet.message);
  }
}

}  // namespace dproc::net
