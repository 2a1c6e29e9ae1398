#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "dproc/net/fabric.hpp"
#include "dproc/net/nic.hpp"
#include "dproc/net/tcp.hpp"
#include "dproc/net/wire.hpp"

namespace dproc::net {
namespace {

// --- wire codec -----------------------------------------------------------

TEST(Wire, RoundTripsScalars) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.i64(-42);
  w.f64(3.14159);
  w.str("hello");

  ByteReader r{w.bytes()};
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Wire, TruncatedReadFailsSafely) {
  ByteWriter w;
  w.u32(7);
  ByteReader r{w.bytes()};
  r.u32();
  EXPECT_EQ(r.u64(), 0u);
  EXPECT_FALSE(r.ok());
}

TEST(Wire, CorruptStringLengthDetected) {
  ByteWriter w;
  w.u32(1000);  // claims 1000 bytes, provides none
  ByteReader r{w.bytes()};
  EXPECT_EQ(r.str(), "");
  EXPECT_FALSE(r.ok());
}

// --- link + fabric ----------------------------------------------------------

class FabricTest : public ::testing::Test {
 protected:
  /// One dropped packet as the trace hook reports it.
  struct Drop {
    std::uint64_t seq;
    DropCause cause;
  };

  /// Records every drop the fabric traces, in order, into `drops`.
  void record_drops() {
    fabric.set_trace_hook([this](Fabric::TraceEvent event, DropCause cause,
                                 const Packet& p, SimTime) {
      if (event == Fabric::TraceEvent::kDrop) drops.push_back({p.seq, cause});
    });
  }

  /// Checks that no packet was dropped twice and every drop had `cause`.
  void expect_unique_drops(DropCause cause) const {
    std::vector<std::uint64_t> seqs;
    for (const Drop& drop : drops) {
      EXPECT_EQ(drop.cause, cause) << "packet " << drop.seq;
      seqs.push_back(drop.seq);
    }
    std::sort(seqs.begin(), seqs.end());
    EXPECT_EQ(std::adjacent_find(seqs.begin(), seqs.end()), seqs.end())
        << "a packet must be dropped at most once";
  }

  sim::Engine engine;
  Fabric fabric{engine};
  std::vector<Drop> drops;
};

TEST_F(FabricTest, StarDeliversWithSerializationAndPropagation) {
  const NodeId a = fabric.add_node("a");
  const NodeId b = fabric.add_node("b");
  fabric.build_star({a, b}, LinkConfig{});

  SimTime delivered;
  fabric.set_delivery_handler(b, [&](const Packet&) { delivered = engine.now(); });

  Packet p;
  p.src = a;
  p.dst = b;
  p.payload_bytes = 942;  // 1000 wire bytes with the 58-byte framing
  fabric.send(p);
  engine.run();

  // Two hops at 100 Mbps: 2 x (1000*8/100e6 s serialize + 25 us propagate).
  EXPECT_NEAR((delivered - SimTime::zero()).us(), 2 * (80.0 + 25.0), 1e-6);
}

TEST_F(FabricTest, BandwidthBoundsThroughput) {
  const NodeId a = fabric.add_node("a");
  const NodeId b = fabric.add_node("b");
  fabric.build_star({a, b}, LinkConfig{});

  std::uint64_t received = 0;
  fabric.set_delivery_handler(b, [&](const Packet& p) {
    received += p.wire_bytes();
  });
  // Offer ~2.4x the line rate for one second (20k pkt/s x 1500 B).
  for (int i = 0; i < 20'000; ++i) {
    engine.schedule_at(SimTime{i * 50'000}, [&] {
      Packet p;
      p.src = a;
      p.dst = b;
      p.payload_bytes = 1442;
      fabric.send(p);
    });
  }
  engine.run_until(SimTime::zero() + seconds(1.0));
  // 100 Mbps => at most 12.5 MB/s of wire bytes (minus buffer warmup slack).
  EXPECT_LE(received, 12'500'000u);
  EXPECT_GE(received, 11'000'000u);
}

TEST_F(FabricTest, TailDropWhenBufferFull) {
  const NodeId a = fabric.add_node("a");
  const NodeId b = fabric.add_node("b");
  LinkConfig small;
  small.buffer_bytes = 4000;
  fabric.build_star({a, b}, small);

  int delivered = 0;
  fabric.set_delivery_handler(b, [&](const Packet&) { ++delivered; });
  record_drops();
  for (int i = 0; i < 10; ++i) {
    Packet p;
    p.src = a;
    p.dst = b;
    p.seq = static_cast<std::uint64_t>(i);
    p.payload_bytes = 1442;
    fabric.send(p);
  }
  engine.run();
  expect_unique_drops(DropCause::kBufferFull);
  const auto dropped = static_cast<int>(drops.size());
  EXPECT_GT(dropped, 0);
  EXPECT_GT(delivered, 0);
  EXPECT_EQ(dropped + delivered, 10);
}

TEST_F(FabricTest, TailDropTracedExactlyOnceAndStatsMatch) {
  const NodeId a = fabric.add_node("a");
  const NodeId b = fabric.add_node("b");
  LinkConfig small;
  small.buffer_bytes = 4000;
  const LinkId ab = fabric.add_link(small);
  fabric.set_route(a, b, {ab});

  constexpr int kPackets = 10;
  constexpr std::uint32_t kPayload = 1442;
  int delivered = 0;
  fabric.set_delivery_handler(b, [&](const Packet&) { ++delivered; });
  record_drops();
  for (int i = 0; i < kPackets; ++i) {
    Packet p;
    p.src = a;
    p.dst = b;
    p.seq = static_cast<std::uint64_t>(i);
    p.payload_bytes = kPayload;
    fabric.send(p);
  }
  engine.run();

  expect_unique_drops(DropCause::kBufferFull);
  const auto total_drops = static_cast<int>(drops.size());
  EXPECT_GT(total_drops, 0);
  EXPECT_EQ(total_drops + delivered, kPackets);
  const LinkStats& stats = fabric.link(ab).stats();
  EXPECT_EQ(stats.packets_dropped, static_cast<std::uint64_t>(total_drops));
  EXPECT_EQ(stats.bytes_dropped,
            static_cast<std::uint64_t>(total_drops) *
                (kPayload + Packet::kHeaderBytes));
  EXPECT_EQ(stats.packets_sent, static_cast<std::uint64_t>(delivered));
}

TEST_F(FabricTest, MultiHopDropEndsTraversal) {
  // a -> b over two links in sequence; the first is the bottleneck. A
  // packet dropped at hop 0 must never reach the second link.
  const NodeId a = fabric.add_node("a");
  const NodeId b = fabric.add_node("b");
  LinkConfig tiny;
  tiny.buffer_bytes = 4000;
  const LinkId first = fabric.add_link(tiny);
  const LinkId second = fabric.add_link(LinkConfig{});
  fabric.set_route(a, b, {first, second});

  int delivered = 0;
  fabric.set_delivery_handler(b, [&](const Packet&) { ++delivered; });
  record_drops();
  for (int i = 0; i < 10; ++i) {
    Packet p;
    p.src = a;
    p.dst = b;
    p.seq = static_cast<std::uint64_t>(i);
    p.payload_bytes = 1442;
    fabric.send(p);
  }
  engine.run();

  expect_unique_drops(DropCause::kBufferFull);
  const auto dropped = static_cast<int>(drops.size());
  EXPECT_GT(dropped, 0);
  EXPECT_EQ(dropped + delivered, 10);
  EXPECT_EQ(fabric.link(first).stats().packets_dropped,
            static_cast<std::uint64_t>(dropped));
  // The downstream link only ever saw the survivors.
  EXPECT_EQ(fabric.link(second).stats().packets_sent,
            static_cast<std::uint64_t>(delivered));
  EXPECT_EQ(fabric.link(second).stats().packets_dropped, 0u);
}

TEST_F(FabricTest, DownLinkDropsEverythingUntilHealed) {
  const NodeId a = fabric.add_node("a");
  const NodeId b = fabric.add_node("b");
  const LinkId ab = fabric.add_link(LinkConfig{});
  fabric.set_route(a, b, {ab});

  int delivered = 0;
  fabric.set_delivery_handler(b, [&](const Packet&) { ++delivered; });
  record_drops();
  std::uint64_t next_seq = 0;
  auto send_one = [&] {
    Packet p;
    p.src = a;
    p.dst = b;
    p.seq = next_seq++;
    p.payload_bytes = 100;
    fabric.send(p);
  };

  fabric.set_link_down(ab, true);
  send_one();
  engine.run();
  ASSERT_EQ(drops.size(), 1u);
  EXPECT_EQ(drops[0].seq, 0u);
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(fabric.link(ab).stats().packets_dropped, 1u);

  fabric.set_link_down(ab, false);
  send_one();
  engine.run();
  EXPECT_EQ(drops.size(), 1u);
  EXPECT_EQ(delivered, 1);
  expect_unique_drops(DropCause::kLinkDown);
}

TEST_F(FabricTest, LinkDownKeepsPacketsAlreadyOnIt) {
  // A cable pull drops what is offered from then on; packets the link had
  // already admitted are on the wire and still exit and arrive, in order.
  const NodeId a = fabric.add_node("a");
  const NodeId b = fabric.add_node("b");
  const LinkId ab = fabric.add_link(LinkConfig{});
  fabric.set_route(a, b, {ab});

  std::vector<std::uint64_t> delivered;
  fabric.set_delivery_handler(
      b, [&](const Packet& p) { delivered.push_back(p.seq); });
  record_drops();
  auto send = [&](std::uint64_t seq) {
    Packet p;
    p.src = a;
    p.dst = b;
    p.seq = seq;
    p.payload_bytes = 1000;
    fabric.send(p);
  };
  for (std::uint64_t seq = 0; seq < 5; ++seq) send(seq);
  fabric.set_link_down(ab, true);
  for (std::uint64_t seq = 5; seq < 8; ++seq) send(seq);
  engine.run();

  EXPECT_EQ(delivered, (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
  ASSERT_EQ(drops.size(), 3u);
  for (std::size_t i = 0; i < drops.size(); ++i) {
    EXPECT_EQ(drops[i].seq, 5 + i);
  }
  expect_unique_drops(DropCause::kLinkDown);
  EXPECT_EQ(fabric.link(ab).stats().packets_sent, 5u);
  EXPECT_EQ(fabric.link(ab).stats().packets_dropped, 3u);
}

TEST_F(FabricTest, LossBurstIsSeededAndDeterministic) {
  auto run_pattern = [](std::uint64_t seed) {
    sim::Engine engine;
    Fabric fabric{engine};
    const NodeId a = fabric.add_node("a");
    const NodeId b = fabric.add_node("b");
    const LinkId ab = fabric.add_link(LinkConfig{});
    fabric.set_route(a, b, {ab});
    fabric.set_link_loss(ab, 0.5, seed);
    std::vector<bool> arrived(50, false);
    fabric.set_delivery_handler(
        b, [&](const Packet& p) { arrived[p.seq] = true; });
    for (int i = 0; i < 50; ++i) {
      Packet p;
      p.src = a;
      p.dst = b;
      p.seq = static_cast<std::uint64_t>(i);
      p.payload_bytes = 100;
      fabric.send(p);
      engine.run();
    }
    return arrived;
  };

  const auto first = run_pattern(0xfeed);
  const auto second = run_pattern(0xfeed);
  EXPECT_EQ(first, second) << "same seed must reproduce the drop pattern";
  const auto lost = static_cast<std::size_t>(
      std::count(first.begin(), first.end(), false));
  EXPECT_GT(lost, 10u);
  EXPECT_LT(lost, 40u);
  EXPECT_NE(first, run_pattern(0xbeef)) << "different seed, different burst";
}

TEST_F(FabricTest, LoopbackNeedsNoRoute) {
  const NodeId a = fabric.add_node("a");
  bool delivered = false;
  fabric.set_delivery_handler(a, [&](const Packet&) { delivered = true; });
  Packet p;
  p.src = a;
  p.dst = a;
  fabric.send(p);
  engine.run();
  EXPECT_TRUE(delivered);
}

TEST_F(FabricTest, MissingRouteThrows) {
  const NodeId a = fabric.add_node("a");
  const NodeId b = fabric.add_node("b");
  Packet p;
  p.src = a;
  p.dst = b;
  EXPECT_THROW(fabric.send(p), std::logic_error);
}

TEST_F(FabricTest, SharedLinkContention) {
  // a->c and b->c share c's downlink; combined goodput is capped by it.
  const NodeId a = fabric.add_node("a");
  const NodeId b = fabric.add_node("b");
  const NodeId c = fabric.add_node("c");
  fabric.build_star({a, b, c}, LinkConfig{});

  std::uint64_t received = 0;
  fabric.set_delivery_handler(c, [&](const Packet& p) {
    received += p.wire_bytes();
  });
  for (int i = 0; i < 1700; ++i) {
    engine.schedule_at(SimTime{i * 500'000}, [&, i] {
      for (NodeId src : {a, b}) {
        Packet p;
        p.src = src;
        p.dst = c;
        p.payload_bytes = 1442;
        fabric.send(p);
      }
    });
  }
  engine.run_until(SimTime::zero() + seconds(1.0));
  EXPECT_LE(received, 12'500'000u);
}

TEST_F(FabricTest, TraceHookSeesSendDeliverAndDrop) {
  const NodeId a = fabric.add_node("a");
  const NodeId b = fabric.add_node("b");
  LinkConfig small;
  small.buffer_bytes = 3000;
  fabric.build_star({a, b}, small);
  fabric.set_delivery_handler(b, [](const Packet&) {});

  int sends = 0, delivers = 0, drops = 0;
  SimTime last_event_time;
  fabric.set_trace_hook([&](Fabric::TraceEvent event, DropCause cause,
                            const Packet& p, SimTime at) {
    EXPECT_EQ(p.src, a);
    EXPECT_GE(at, last_event_time);
    last_event_time = at;
    switch (event) {
      case Fabric::TraceEvent::kSend: ++sends; break;
      case Fabric::TraceEvent::kDeliver: ++delivers; break;
      case Fabric::TraceEvent::kDrop: ++drops; break;
    }
    if (event == Fabric::TraceEvent::kDrop) {
      EXPECT_EQ(cause, DropCause::kBufferFull);
    } else {
      EXPECT_EQ(cause, DropCause::kNone);
    }
  });

  for (int i = 0; i < 6; ++i) {
    Packet p;
    p.src = a;
    p.dst = b;
    p.payload_bytes = 1400;
    fabric.send(p);
  }
  engine.run();
  EXPECT_EQ(sends, 6);
  EXPECT_GT(drops, 0);        // the tiny buffer overflowed
  EXPECT_GT(delivers, 0);
  EXPECT_EQ(delivers + drops, sends);  // every packet resolved exactly once
}

TEST_F(FabricTest, TraceHookSeesNodeDownDrops) {
  const NodeId a = fabric.add_node("a");
  const NodeId b = fabric.add_node("b");
  fabric.build_star({a, b}, LinkConfig{});
  int drops = 0;
  fabric.set_trace_hook([&](Fabric::TraceEvent event, DropCause cause,
                            const Packet&, SimTime) {
    if (event == Fabric::TraceEvent::kDrop) {
      ++drops;
      EXPECT_EQ(cause, DropCause::kNodeDown);
    }
  });
  fabric.set_node_down(a, true);
  Packet p;
  p.src = a;
  p.dst = b;
  fabric.send(p);
  engine.run();
  EXPECT_EQ(drops, 1);
}

// --- datagram service ---------------------------------------------------

class NicTest : public ::testing::Test {
 protected:
  NicTest() {
    a = fabric.add_node("a");
    b = fabric.add_node("b");
    ports = fabric.build_star({a, b}, LinkConfig{});
    nic_a = std::make_unique<Nic>(fabric, a);
    nic_b = std::make_unique<Nic>(fabric, b);
  }

  sim::Engine engine;
  Fabric fabric{engine};
  NodeId a{}, b{};
  std::vector<std::pair<LinkId, LinkId>> ports;  // (uplink, downlink)
  std::unique_ptr<Nic> nic_a, nic_b;
};

TEST_F(NicTest, DatagramDelivered) {
  std::string got;
  nic_b->bind_datagram(9, [&](NodeId from, Port, const MessagePtr& m) {
    EXPECT_EQ(from, a);
    got.assign(m->header.begin(), m->header.end());
  });
  ByteWriter w;
  w.str("ping");
  nic_a->send_datagram(b, 9, make_message(w.take()));
  engine.run();
  EXPECT_NE(got.find("ping"), std::string::npos);
  EXPECT_EQ(nic_b->stats().datagrams_received, 1u);
}

TEST_F(NicTest, LargeDatagramFragmentsAndReassembles) {
  std::uint64_t got = 0;
  nic_b->bind_datagram(9, [&](NodeId, Port, const MessagePtr& m) {
    got = m->size();
  });
  nic_a->send_datagram(b, 9, make_message({}, 50'000));
  engine.run();
  EXPECT_EQ(got, 50'000u);
}

TEST_F(NicTest, UnboundPortSilentlyDrops) {
  nic_a->send_datagram(b, 1234, make_message({}, 10));
  engine.run();  // no crash; counted as received but unhandled
  EXPECT_EQ(nic_b->stats().datagrams_received, 1u);
}

TEST_F(NicTest, LossDetectedViaSequenceGap) {
  // Tiny buffer: a burst overflows and datagrams vanish.
  sim::Engine eng;
  Fabric fab{eng};
  const NodeId x = fab.add_node("x");
  const NodeId y = fab.add_node("y");
  LinkConfig small;
  small.buffer_bytes = 3000;
  fab.build_star({x, y}, small);
  Nic nx{fab, x}, ny{fab, y};
  int handled = 0;
  ny.bind_datagram(5, [&](NodeId, Port, const MessagePtr&) { ++handled; });
  // Bursts overflow the buffer; the gaps between bursts let survivors
  // through, so the receiver can observe the sequence gaps.
  for (int burst = 0; burst < 10; ++burst) {
    eng.schedule_at(SimTime{burst * 5'000'000}, [&] {
      for (int i = 0; i < 4; ++i) {
        nx.send_datagram(y, 5, make_message({}, 1400), 5);
      }
    });
  }
  eng.run();
  EXPECT_EQ(nx.stats().datagrams_sent, 40u);
  EXPECT_GT(ny.stats().datagrams_lost, 0u);
  const DatagramFlowStats* flow = ny.datagram_flow(x, 5);
  ASSERT_NE(flow, nullptr);
  EXPECT_EQ(flow->received, static_cast<std::uint64_t>(handled));
  // FIFO fabric: every datagram before the last delivered one is accounted
  // as either received or lost (a dropped tail is undetectable).
  EXPECT_LE(flow->received + flow->lost, 40u);
  EXPECT_GE(flow->received + flow->lost, 30u);
}

TEST_F(NicTest, EndToEndDelayMeasured) {
  nic_b->bind_datagram(9, [](NodeId, Port, const MessagePtr&) {});
  nic_a->send_datagram(b, 9, make_message({}, 942 - 8), 9);
  engine.run();
  const DatagramFlowStats* flow = nic_b->datagram_flow(a, 9);
  ASSERT_NE(flow, nullptr);
  EXPECT_GT(flow->delay_us.value(), 100.0);  // > 2 hops' propagation
  EXPECT_LT(flow->delay_us.value(), 1000.0);
}

// --- tcp ------------------------------------------------------------------

class TcpTest : public NicTest {};

TEST_F(TcpTest, ConnectEstablishesBothEnds) {
  TcpConnection::Ptr server_side;
  TcpListener listener{*nic_b, 80, TcpConfig{},
                       [&](TcpConnection::Ptr conn) { server_side = conn; }};
  bool established = false;
  auto client = TcpConnection::connect(*nic_a, b, 80, TcpConfig{},
                                       [&] { established = true; });
  engine.run();
  EXPECT_TRUE(established);
  ASSERT_NE(server_side, nullptr);
  EXPECT_TRUE(client->established());
  EXPECT_EQ(server_side->remote_node(), a);
}

TEST_F(TcpTest, SmallMessageRoundTrip) {
  TcpConnection::Ptr server_side;
  TcpListener listener{*nic_b, 80, TcpConfig{},
                       [&](TcpConnection::Ptr conn) {
                         server_side = conn;
                         // Capture a raw pointer: a shared_ptr capture stored
                         // inside the connection itself would cycle and leak.
                         conn->set_message_handler(
                             [c = conn.get()](const MessagePtr& m) {
                               // Echo back.
                               c->send(m);
                             });
                       }};
  auto client = TcpConnection::connect(*nic_a, b, 80);
  std::uint64_t echoed = 0;
  client->set_message_handler([&](const MessagePtr& m) { echoed = m->size(); });
  ByteWriter w;
  w.str("hello world");
  client->send(make_message(w.take()));
  engine.run();
  EXPECT_GT(echoed, 0u);
  EXPECT_EQ(client->stats().messages_delivered, 1u);
}

TEST_F(TcpTest, MultiSegmentMessageDeliveredOnceInOrder) {
  std::vector<std::uint64_t> sizes;
  TcpListener listener{*nic_b, 80, TcpConfig{},
                       [&](TcpConnection::Ptr conn) {
                         conn->set_message_handler([&](const MessagePtr& m) {
                           sizes.push_back(m->size());
                         });
                       }};
  auto client = TcpConnection::connect(*nic_a, b, 80);
  client->send(make_message({}, 1'000'000));
  client->send(make_message({}, 10));
  client->send(make_message({}, 500'000));
  engine.run();
  EXPECT_EQ(sizes, (std::vector<std::uint64_t>{1'000'000, 10, 500'000}));
}

TEST_F(TcpTest, SendBeforeEstablishedIsFlushed) {
  std::uint64_t got = 0;
  TcpListener listener{*nic_b, 80, TcpConfig{},
                       [&](TcpConnection::Ptr conn) {
                         conn->set_message_handler(
                             [&](const MessagePtr& m) { got = m->size(); });
                       }};
  auto client = TcpConnection::connect(*nic_a, b, 80);
  client->send(make_message({}, 4096));  // handshake still in flight
  engine.run();
  EXPECT_EQ(got, 4096u);
}

TEST_F(TcpTest, RecoversFromLossAndCountsRetransmissions) {
  // Force drops with a tiny switch buffer.
  sim::Engine eng;
  Fabric fab{eng};
  const NodeId x = fab.add_node("x");
  const NodeId y = fab.add_node("y");
  LinkConfig small;
  small.buffer_bytes = 8'000;
  fab.build_star({x, y}, small);
  Nic nx{fab, x}, ny{fab, y};

  std::uint64_t got = 0;
  TcpListener listener{ny, 80, TcpConfig{},
                       [&](TcpConnection::Ptr conn) {
                         conn->set_message_handler(
                             [&](const MessagePtr& m) { got = m->size(); });
                       }};
  auto client = TcpConnection::connect(nx, y, 80);
  client->send(make_message({}, 2'000'000));
  eng.run_until(SimTime{} + seconds(30.0));
  EXPECT_EQ(got, 2'000'000u) << "reliable delivery despite drops";
  EXPECT_GT(client->stats().retransmissions, 0u);
}

TEST_F(TcpTest, FirstFlightAfterHandshakeRecoversByTimeout) {
  // The handshake's SYN retry timer is cancelled on establishment. The
  // first data flight must still arm its own retransmission timer: with
  // every segment of it lost and nothing else to send, only a timeout can
  // recover it.
  std::uint64_t got = 0;
  TcpListener listener{*nic_b, 80, TcpConfig{},
                       [&](TcpConnection::Ptr conn) {
                         conn->set_message_handler(
                             [&](const MessagePtr& m) { got += m->size(); });
                       }};
  auto client = TcpConnection::connect(*nic_a, b, 80);
  engine.run();
  ASSERT_TRUE(client->established());

  const LinkId uplink = ports[0].first;
  fabric.set_link_down(uplink, true);
  client->send(make_message({}, 4096));
  engine.schedule_after(milliseconds(1.0),
                        [&] { fabric.set_link_down(uplink, false); });
  engine.run_until(engine.now() + seconds(5.0));
  EXPECT_EQ(got, 4096u);
  EXPECT_GT(client->stats().retransmissions, 0u);
}

TEST_F(TcpTest, RttMeasuredOnLan) {
  TcpListener listener{*nic_b, 80, TcpConfig{}, [](TcpConnection::Ptr) {}};
  auto client = TcpConnection::connect(*nic_a, b, 80);
  client->send(make_message({}, 1000));
  engine.run();
  // Two hops each way, ~25 us propagation per hop plus serialization.
  EXPECT_GT(client->srtt().us(), 50.0);
  EXPECT_LT(client->srtt().us(), 2000.0);
}

TEST_F(TcpTest, ThroughputApproachesLineRate) {
  std::uint64_t got = 0;
  TcpListener listener{*nic_b, 80, TcpConfig{},
                       [&](TcpConnection::Ptr conn) {
                         conn->set_message_handler(
                             [&](const MessagePtr& m) { got += m->size(); });
                       }};
  auto client = TcpConnection::connect(*nic_a, b, 80);
  for (int i = 0; i < 10; ++i) client->send(make_message({}, 1'000'000));
  engine.run_until(SimTime{} + seconds(2.0));
  // 10 MB over 100 Mbps takes ~0.85 s; allow slow start and framing slack.
  EXPECT_EQ(got, 10'000'000u);
}

TEST_F(TcpTest, StatsTrackQueueAndFlight) {
  TcpListener listener{*nic_b, 80, TcpConfig{}, [](TcpConnection::Ptr) {}};
  auto client = TcpConnection::connect(*nic_a, b, 80);
  client->send(make_message({}, 10'000'000));
  const TcpStats stats = client->stats();
  EXPECT_EQ(stats.messages_sent, 1u);
  EXPECT_GT(stats.send_queue_bytes, 0u);
  engine.run_until(SimTime{} + seconds(5.0));
  EXPECT_EQ(client->stats().send_queue_bytes, 0u);
  EXPECT_EQ(client->stats().in_flight_bytes, 0u);
  EXPECT_GE(client->stats().bytes_acked, 10'000'000u);
}

TEST_F(TcpTest, CloseStopsTraffic) {
  TcpListener listener{*nic_b, 80, TcpConfig{}, [](TcpConnection::Ptr) {}};
  auto client = TcpConnection::connect(*nic_a, b, 80);
  engine.run();
  client->close();
  client->send(make_message({}, 1000));
  const std::uint64_t sent_before = nic_a->stats().bytes_sent;
  engine.run();
  EXPECT_EQ(nic_a->stats().bytes_sent, sent_before);
}

}  // namespace
}  // namespace dproc::net
