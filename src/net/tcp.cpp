#include "dproc/net/tcp.hpp"

#include <algorithm>

#include "dproc/util/logging.hpp"

namespace dproc::net {

namespace {
std::uint64_t next_flow_id() {
  static std::uint64_t counter = 1;
  return counter++;
}
Port next_ephemeral_port() {
  static Port counter = 32768;
  return counter++;
}
constexpr int kMaxSynAttempts = 8;
}  // namespace

TcpConnection::TcpConnection(Nic& nic, NodeId remote, Port remote_port,
                             Port local_port, std::uint64_t flow_id, Role role,
                             TcpConfig config)
    : nic_(&nic),
      remote_(remote),
      remote_port_(remote_port),
      local_port_(local_port),
      flow_id_(flow_id),
      role_(role),
      config_(config),
      cwnd_(config.initial_cwnd),
      ssthresh_(config.initial_ssthresh),
      rto_(config.min_rto) {}

TcpConnection::~TcpConnection() { close(); }

TcpConnection::Ptr TcpConnection::connect(Nic& nic, NodeId remote,
                                          Port remote_port, TcpConfig config,
                                          std::function<void()> on_established) {
  auto conn = Ptr{new TcpConnection{nic, remote, remote_port,
                                    next_ephemeral_port(), next_flow_id(),
                                    Role::kClient, config}};
  nic.register_tcp(conn->flow_id_, conn.get());
  conn->start_handshake(std::move(on_established));
  return conn;
}

void TcpConnection::start_handshake(std::function<void()> on_established) {
  on_established_ = std::move(on_established);
  ++syn_attempts_;
  Packet syn;
  syn.kind = PacketKind::kTcpSyn;
  emit(std::move(syn));
  // Retry the SYN until the SYN-ACK arrives; gives connection setup the
  // same robustness against floods as data transfer.
  rto_event_.cancel();
  rto_event_ = nic_->fabric().engine().schedule_after(rto_, [self = shared_from_this()] {
    if (self->established_ || self->closed_) return;
    if (self->syn_attempts_ >= kMaxSynAttempts) {
      DPROC_WARN() << "tcp flow " << self->flow_id_ << ": handshake failed after "
                   << self->syn_attempts_ << " attempts";
      return;
    }
    self->rto_ = std::min(self->rto_ * 2.0, self->config_.max_rto);
    self->start_handshake(std::move(self->on_established_));
  });
}

void TcpConnection::become_established() {
  if (established_) return;
  established_ = true;
  cancel_rto();  // also resets the handle, so the first flight arms its RTO
  rto_ = config_.min_rto;
  if (on_established_) {
    auto fn = std::move(on_established_);
    fn();
  }
  try_transmit();
}

void TcpConnection::send(MessagePtr message) {
  if (closed_) return;
  ++counters_.messages_sent;
  pending_bytes_ += message->size();
  pending_messages_.push_back(std::move(message));
  if (established_) try_transmit();
}

void TcpConnection::try_transmit() {
  const auto cwnd_bytes = std::max<std::uint64_t>(
      static_cast<std::uint64_t>(cwnd_ * static_cast<double>(config_.mss)),
      config_.mss);
  while (true) {
    if (send_ptr_ < snd_next_) {
      // (Re)transmit the already-segmented byte stream from the cursor.
      auto it = unacked_.find(send_ptr_);
      if (it == unacked_.end()) break;  // should not happen; stay safe
      const std::uint64_t end = send_ptr_ + it->second.length;
      if (end - snd_una_ > cwnd_bytes && send_ptr_ > snd_una_) break;
      send_segment(send_ptr_);
      send_ptr_ = end;
      continue;
    }
    if (pending_messages_.empty()) break;
    const std::uint64_t in_flight = snd_next_ - snd_una_;
    if (in_flight + config_.mss > cwnd_bytes && in_flight > 0) break;

    // Carve the next segment off the head message (never crossing the
    // message boundary, so cumulative ACKs land on segment edges and the
    // tail segment can carry the payload pointer).
    const MessagePtr& head = pending_messages_.front();
    const std::uint64_t msg_size = std::max<std::uint64_t>(head->size(), 1);
    const std::uint64_t remaining = msg_size - head_offset_;
    const auto len = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(remaining, config_.mss));
    const bool is_tail = (head_offset_ + len == msg_size);

    Segment seg;
    seg.length = len;
    if (is_tail) seg.message_end = head;
    unacked_.emplace(snd_next_, std::move(seg));

    snd_next_ += len;
    head_offset_ += len;
    pending_bytes_ -= std::min<std::uint64_t>(pending_bytes_, len);
    if (is_tail) {
      pending_messages_.pop_front();
      head_offset_ = 0;
    }
    send_segment(send_ptr_);
    send_ptr_ = snd_next_;
  }
  if (snd_next_ > snd_una_ && !rto_event_.valid()) arm_rto();
}

void TcpConnection::send_segment(std::uint64_t seq) {
  auto it = unacked_.find(seq);
  if (it == unacked_.end()) return;
  Segment& seg = it->second;
  if (seg.transmit_count > 0) {
    ++counters_.retransmissions;
    if (probe_active_ && probe_end_seq_ > seq) probe_active_ = false;  // Karn
  } else if (!probe_active_) {
    probe_active_ = true;
    probe_end_seq_ = seq + seg.length;
    probe_sent_at_ = nic_->fabric().engine().now();
  }
  ++seg.transmit_count;

  Packet p;
  p.kind = PacketKind::kTcpData;
  p.seq = seq;
  p.payload_bytes = seg.length;
  p.message = seg.message_end;
  emit(std::move(p));
}

void TcpConnection::send_ack() {
  Packet p;
  p.kind = PacketKind::kTcpAck;
  p.ack = rcv_next_;
  emit(std::move(p));
}

void TcpConnection::emit(Packet packet) {
  packet.src = nic_->node();
  packet.dst = remote_;
  packet.src_port = local_port_;
  packet.dst_port = remote_port_;
  packet.flow_id = flow_id_;
  packet.sent_at_ns = nic_->fabric().engine().now().ns();
  counters_.wire_bytes_sent += packet.wire_bytes();
  nic_->send_packet(std::move(packet));
}

void TcpConnection::on_packet(const Packet& packet) {
  if (closed_) return;
  switch (packet.kind) {
    case PacketKind::kTcpSynAck:
      if (role_ == Role::kClient) become_established();
      return;
    case PacketKind::kTcpData:
      on_data(packet);
      return;
    case PacketKind::kTcpAck:
      on_ack_packet(packet);
      return;
    case PacketKind::kTcpSyn:
    case PacketKind::kDatagram:
      return;  // not addressed to an established connection
  }
}

void TcpConnection::on_data(const Packet& packet) {
  // Go-back-N: accept only the in-order segment, always acknowledge with
  // the cumulative expectation (out-of-order arrivals generate dup ACKs).
  if (packet.seq == rcv_next_) {
    rcv_next_ += packet.payload_bytes;
    if (packet.message) {
      ++counters_.messages_delivered;
      if (on_message_) on_message_(packet.message);
    }
  }
  send_ack();
}

void TcpConnection::on_ack_packet(const Packet& packet) {
  const std::uint64_t ack = packet.ack;
  if (ack > snd_una_) {
    std::uint64_t acked_segments = 0;
    while (!unacked_.empty() && unacked_.begin()->first < ack) {
      ++acked_segments;
      unacked_.erase(unacked_.begin());
    }
    counters_.bytes_acked += ack - snd_una_;
    snd_una_ = ack;
    send_ptr_ = std::max(send_ptr_, snd_una_);
    dup_acks_ = 0;

    if (probe_active_ && ack >= probe_end_seq_) {
      probe_active_ = false;
      note_rtt_sample(nic_->fabric().engine().now() - probe_sent_at_);
    }

    // Congestion window growth: slow start below ssthresh, then additive.
    for (std::uint64_t i = 0; i < acked_segments; ++i) {
      if (cwnd_ < ssthresh_) {
        cwnd_ += 1.0;
      } else {
        cwnd_ += 1.0 / cwnd_;
      }
    }

    cancel_rto();
    if (snd_next_ > snd_una_) arm_rto();
    try_transmit();
    return;
  }

  if (snd_next_ > snd_una_) {
    ++dup_acks_;
    if (dup_acks_ == 3 && snd_una_ >= recover_) {
      // Loss: multiplicative decrease and go back — the receiver discarded
      // everything after the gap, so rewind the cursor and resend.
      ssthresh_ = std::max(cwnd_ / 2.0, 2.0);
      cwnd_ = ssthresh_;
      dup_acks_ = 0;
      recover_ = snd_next_;
      send_ptr_ = snd_una_;
      cancel_rto();
      try_transmit();
    }
  }
}

void TcpConnection::arm_rto() {
  rto_event_ = nic_->fabric().engine().schedule_after(
      rto_, [self = shared_from_this()] { self->on_rto_expired(); });
}

void TcpConnection::cancel_rto() { rto_event_.cancel(); rto_event_ = {}; }

void TcpConnection::on_rto_expired() {
  rto_event_ = {};
  if (closed_ || snd_next_ == snd_una_) return;
  ssthresh_ = std::max(cwnd_ / 2.0, 2.0);
  cwnd_ = 1.0;
  rto_ = std::min(rto_ * 2.0, config_.max_rto);
  recover_ = snd_next_;
  send_ptr_ = snd_una_;  // go back N
  try_transmit();        // re-arms the timer
}

void TcpConnection::note_rtt_sample(SimDuration sample) {
  srtt_us_.add(sample.us());
  // RTO = srtt * 2 within bounds; coarse but sufficient for a LAN model.
  const SimDuration candidate = microseconds(srtt_us_.value() * 2.0);
  rto_ = std::clamp(candidate, config_.min_rto, config_.max_rto);
}

TcpStats TcpConnection::stats() const {
  TcpStats s = counters_;
  s.srtt_us = srtt_us_.value();
  s.cwnd_segments = cwnd_;
  s.in_flight_bytes = snd_next_ - snd_una_;
  std::uint64_t unsent = pending_bytes_;
  s.send_queue_bytes = unsent;
  return s;
}

void TcpConnection::close() {
  if (closed_) return;
  closed_ = true;
  cancel_rto();
  if (nic_ != nullptr) nic_->unregister_tcp(flow_id_);
}

void TcpConnection::detach_from_nic() {
  closed_ = true;
  cancel_rto();
  nic_ = nullptr;
}

TcpListener::TcpListener(Nic& nic, Port port, TcpConfig config,
                         AcceptHandler on_accept)
    : nic_(nic), config_(config), on_accept_(std::move(on_accept)) {
  nic_.bind_tcp_listener(port, [this, port](const Packet& syn) {
    // Duplicate SYNs (client retries) must not spawn duplicate connections.
    auto existing = accepted_.find(syn.flow_id);
    if (existing == accepted_.end()) {
      auto conn = TcpConnection::Ptr{
          new TcpConnection{nic_, syn.src, syn.src_port, port, syn.flow_id,
                            TcpConnection::Role::kServer, config_}};
      nic_.register_tcp(conn->flow_id_, conn.get());
      conn->established_ = true;
      accepted_.emplace(syn.flow_id, conn);
      existing = accepted_.find(syn.flow_id);
      Packet synack;
      synack.kind = PacketKind::kTcpSynAck;
      existing->second->emit(std::move(synack));
      if (on_accept_) on_accept_(existing->second);
    } else {
      Packet synack;
      synack.kind = PacketKind::kTcpSynAck;
      existing->second->emit(std::move(synack));
    }
  });
}

}  // namespace dproc::net
