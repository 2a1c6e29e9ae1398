// Network interface: the per-host attachment to the fabric.
//
// Provides the UDP-like datagram service directly and dispatches TCP
// segments to connections. Tracks the per-interface and per-flow statistics
// NET_MON publishes: bytes in/out, datagram loss (detected by receiver-side
// sequence gaps, as the paper's module counts lost UDP messages), and
// end-to-end delay.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <vector>

#include "dproc/net/fabric.hpp"
#include "dproc/net/packet.hpp"
#include "dproc/util/stats.hpp"

namespace dproc::net {

class TcpConnection;

struct NicStats {
  std::uint64_t bytes_sent = 0;       // wire bytes offered to the fabric
  std::uint64_t bytes_received = 0;   // wire bytes delivered
  std::uint64_t datagrams_sent = 0;
  std::uint64_t datagrams_received = 0;
  std::uint64_t datagrams_lost = 0;   // receiver-side gap detection
};

/// Per-datagram-flow receive state.
struct DatagramFlowStats {
  std::uint64_t received = 0;
  std::uint64_t lost = 0;
  Ewma delay_us{0.25};  // end-to-end datagram delay, microseconds
};

class Nic {
 public:
  using DatagramHandler =
      std::function<void(NodeId from, Port from_port, const MessagePtr&)>;

  Nic(Fabric& fabric, NodeId node);
  ~Nic();
  Nic(const Nic&) = delete;
  Nic& operator=(const Nic&) = delete;

  [[nodiscard]] NodeId node() const { return node_; }
  [[nodiscard]] Fabric& fabric() { return fabric_; }

  // --- datagram (UDP-like) service --------------------------------------

  void bind_datagram(Port port, DatagramHandler handler);

  /// Sends a datagram; fragments at the MTU. If any fragment is dropped the
  /// whole datagram is lost (receiver counts it via the sequence gap).
  void send_datagram(NodeId dst, Port dst_port, const MessagePtr& message,
                     Port src_port = 0);

  [[nodiscard]] const NicStats& stats() const { return stats_; }

  /// Receiver-side stats for a sender's datagram flow, keyed by
  /// (source node, source port). Missing key => no traffic seen yet.
  [[nodiscard]] const DatagramFlowStats* datagram_flow(NodeId from,
                                                       Port from_port) const;

  // --- TCP integration (used by TcpConnection/TcpListener) --------------

  /// Registers a connection for segment dispatch by flow id.
  void register_tcp(std::uint64_t flow_id, TcpConnection* conn);
  void unregister_tcp(std::uint64_t flow_id);

  using SynHandler = std::function<void(const Packet&)>;
  void bind_tcp_listener(Port port, SynHandler handler);

  /// Raw packet injection used by the TCP layer; accounts NIC tx bytes.
  void send_packet(Packet packet);

  /// Live TCP connections in flow-id order (for NET_MON). The view is
  /// invalidated by the next register_tcp() or unregister_tcp().
  [[nodiscard]] std::span<TcpConnection* const> tcp_connections() const {
    return tcp_conns_;
  }

 private:
  /// Position of `flow_id` in tcp_flow_ids_, or where it would go.
  [[nodiscard]] std::size_t flow_index(std::uint64_t flow_id) const;
  void on_delivery(const Packet& packet);
  void deliver_datagram(const Packet& packet);

  Fabric& fabric_;
  NodeId node_;
  NicStats stats_;

  std::map<Port, DatagramHandler> datagram_handlers_;
  std::map<Port, SynHandler> tcp_listeners_;
  // The flow table: two parallel arrays sorted by flow id, so a lookup
  // binary-searches the ids alone and the connections walk in id order.
  std::vector<std::uint64_t> tcp_flow_ids_;
  std::vector<TcpConnection*> tcp_conns_;

  // Fabric routes are FIFO with no multipath, so datagram fragments never
  // reorder: any sequence gap is a definitive loss. One state machine per
  // (source node, source port) flow.
  struct FragmentState {
    std::int64_t current_index = -1;  // datagram being reassembled
    std::uint64_t fragments = 0;      // fragments of it seen so far
    bool finished = false;            // delivered or declared lost
  };
  std::map<std::pair<NodeId, Port>, FragmentState> fragment_state_;
  std::map<std::pair<NodeId, Port>, DatagramFlowStats> flow_stats_;

  std::uint64_t next_datagram_index_ = 0;

  static constexpr std::uint32_t kMtuPayload = 1472;  // 1500 - ip/udp headers
};

}  // namespace dproc::net
