#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
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

TEST_F(FabricTest, LoopbackToANodeThatGoesDownIsDropped) {
  // A loopback packet takes the last-hop check a routed one does: a node
  // that goes down while its own packet is in flight does not receive it.
  const NodeId a = fabric.add_node("a");
  int delivered = 0;
  fabric.set_delivery_handler(a, [&](const Packet&) { ++delivered; });
  record_drops();
  Packet p;
  p.src = a;
  p.dst = a;
  p.seq = 7;
  fabric.send(p);
  engine.schedule_after(nanoseconds(500), [&] { fabric.set_node_down(a, true); });
  engine.run();
  EXPECT_EQ(delivered, 0);
  ASSERT_EQ(drops.size(), 1u);
  EXPECT_EQ(drops[0].seq, 7u);
  expect_unique_drops(DropCause::kNodeDown);
  EXPECT_EQ(fabric.stats().drops_node_down, 1u);
  EXPECT_EQ(fabric.stats().packets_delivered, 0u);

  fabric.set_node_down(a, false);
  fabric.send(p);
  engine.run();
  EXPECT_EQ(delivered, 1);
}

TEST_F(FabricTest, PacketReleasesItsMessageOnDeliveryAndDrop) {
  // However a packet ends, the fabric lets go of its message: only the
  // test's own reference is left once the engine has run.
  const NodeId a = fabric.add_node("a");
  const NodeId b = fabric.add_node("b");
  const NodeId c = fabric.add_node("c");
  const LinkId uplink = fabric.build_star({a, b}, LinkConfig{})[0].first;
  LinkConfig slow;
  slow.bandwidth_bps = 10e6;
  slow.buffer_bytes = 3000;
  const LinkId first = fabric.add_link(LinkConfig{});
  const LinkId middle = fabric.add_link(slow);
  const LinkId last = fabric.add_link(LinkConfig{});
  fabric.set_route(a, c, {first, middle, last});
  int delivered = 0;
  for (const NodeId node : {a, b, c}) {
    fabric.set_delivery_handler(node, [&](const Packet&) { ++delivered; });
  }
  record_drops();
  const MessagePtr message = make_message({1, 2, 3});
  auto send = [&](NodeId src, NodeId dst) {
    Packet p;
    p.src = src;
    p.dst = dst;
    p.payload_bytes = 1442;
    p.message = message;
    fabric.send(p);
  };

  send(a, b);  // delivered over the star
  EXPECT_EQ(message.use_count(), 2);  // the packet's pool entry holds one
  engine.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(message.use_count(), 1);

  fabric.set_link_down(uplink, true);
  send(a, b);  // dropped at hop 0
  engine.run();
  fabric.set_link_down(uplink, false);
  ASSERT_EQ(drops.size(), 1u);
  EXPECT_EQ(drops[0].cause, DropCause::kLinkDown);
  EXPECT_EQ(message.use_count(), 1);

  // The first link forwards ten times faster than the middle one drains,
  // so the middle hop's small buffer takes two of the four and drops two.
  for (int i = 0; i < 4; ++i) send(a, c);
  engine.run();
  EXPECT_EQ(fabric.link(middle).stats().packets_dropped, 2u);
  EXPECT_EQ(fabric.link(last).stats().packets_sent, 2u);
  EXPECT_EQ(message.use_count(), 1);

  send(b, b);  // loopback
  engine.run();
  EXPECT_EQ(delivered, 4);
  EXPECT_EQ(message.use_count(), 1);
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

TEST_F(TcpTest, GoBackNRecoversALossBurstWhileTheSegmentQueueGrows) {
  // Data and ACKs are lost at random for the first 100 ms while the window
  // opens, so the unacknowledged-segment ring wraps, doubles while wrapped
  // and is rewound by fast retransmits and timeouts. Every message must
  // still arrive once and in order.
  std::vector<int> got;
  TcpListener listener{*nic_b, 80, TcpConfig{}, [&](TcpConnection::Ptr conn) {
    conn->set_message_handler([&](const MessagePtr& m) {
      got.push_back(m->header[0] | (m->header[1] << 8));
    });
  }};
  auto client = TcpConnection::connect(*nic_a, b, 80);
  engine.run();
  ASSERT_TRUE(client->established());

  const LinkId data_link = ports[0].first;  // a's uplink
  const LinkId ack_link = ports[1].first;   // b's uplink
  fabric.set_link_loss(data_link, 0.05, 7);
  fabric.set_link_loss(ack_link, 0.05, 8);
  engine.schedule_after(milliseconds(100.0), [&] {
    fabric.set_link_loss(data_link, 0.0, 0);
    fabric.set_link_loss(ack_link, 0.0, 0);
  });
  // Sizes on and around segment edges, from one byte to 21 segments.
  const std::array<std::uint64_t, 5> bodies{0, 1446, 1447, 6000, 30000};
  constexpr int kMessages = 120;
  const std::uint32_t mss = TcpConfig{}.mss;
  std::vector<MessagePtr> messages;
  std::vector<int> sent;
  std::map<std::uint64_t, std::uint32_t> segments;  // first byte -> length
  std::uint64_t stream_bytes = 0;
  for (int i = 0; i < kMessages; ++i) {
    messages.push_back(make_message(
        {static_cast<std::uint8_t>(i & 0xff), static_cast<std::uint8_t>(i >> 8)},
        bodies[i % bodies.size()]));
    sent.push_back(i);
    for (std::uint64_t left = messages.back()->size(); left > 0;) {
      const auto length = static_cast<std::uint32_t>(std::min<std::uint64_t>(left, mss));
      segments[stream_bytes] = length;
      stream_bytes += length;
      left -= length;
    }
  }
  // Every data packet on the wire, first send or resend, is one whole
  // segment of the stream: the cursor never drifts off a segment edge.
  int stray_packets = 0;
  fabric.set_trace_hook(
      [&](Fabric::TraceEvent event, DropCause, const Packet& p, SimTime) {
        if (event != Fabric::TraceEvent::kSend || p.kind != PacketKind::kTcpData) return;
        const auto it = segments.find(p.seq);
        if (it == segments.end() || it->second != p.payload_bytes) ++stray_packets;
      });
  for (const MessagePtr& message : messages) client->send(message);
  engine.run_until(engine.now() + seconds(60.0));
  EXPECT_EQ(got, sent);
  EXPECT_EQ(stray_packets, 0);
  EXPECT_GT(fabric.stats().drops_loss, 10u);
  EXPECT_GT(client->stats().retransmissions, 0u);
  EXPECT_EQ(client->stats().in_flight_bytes, 0u);
  EXPECT_EQ(client->stats().send_queue_bytes, 0u);
}

std::vector<std::uint64_t> flow_ids(const Nic& nic) {
  std::vector<std::uint64_t> ids;
  for (const TcpConnection* conn : nic.tcp_connections()) {
    ids.push_back(conn->flow_id());
  }
  return ids;
}

TEST(TcpFlowTable, FlowsRegisteredOutOfOrderIterateInFlowIdOrder) {
  // NetMonitor sums RTTs in the order tcp_connections() returns, so that
  // order must be the flow-id order whatever order flows registered in.
  sim::Engine engine;
  Fabric fabric{engine};
  const NodeId server = fabric.add_node("server");
  std::vector<NodeId> nodes{server};
  for (int i = 0; i < 3; ++i) nodes.push_back(fabric.add_node("c" + std::to_string(i)));
  const auto ports = fabric.build_star(nodes, LinkConfig{});
  Nic server_nic{fabric, server};
  std::vector<std::unique_ptr<Nic>> client_nics;
  for (int i = 1; i <= 3; ++i) {
    client_nics.push_back(std::make_unique<Nic>(fabric, nodes[i]));
  }
  std::vector<std::uint64_t> accepted;
  TcpListener listener{server_nic, 80, TcpConfig{}, [&](TcpConnection::Ptr conn) {
    accepted.push_back(conn->flow_id());
  }};
  // The first client's first SYN is lost, so the lowest flow id reaches
  // the server last.
  fabric.set_link_down(ports[1].first, true);
  std::vector<TcpConnection::Ptr> clients;
  for (int i = 0; i < 3; ++i) {
    clients.push_back(TcpConnection::connect(*client_nics[i], server, 80));
  }
  engine.schedule_after(milliseconds(1.0),
                        [&] { fabric.set_link_down(ports[1].first, false); });
  engine.run();

  const std::vector<std::uint64_t> ids{clients[0]->flow_id(),
                                       clients[1]->flow_id(),
                                       clients[2]->flow_id()};
  ASSERT_TRUE(std::is_sorted(ids.begin(), ids.end()));
  EXPECT_EQ(accepted, (std::vector<std::uint64_t>{ids[1], ids[2], ids[0]}));
  EXPECT_EQ(flow_ids(server_nic), ids);
}

TEST_F(TcpTest, UnregisteringAMiddleFlowAndUnknownFlowSegments) {
  std::map<std::uint64_t, TcpConnection::Ptr> accepted;
  std::map<std::uint64_t, std::uint64_t> got;  // bytes by flow, at b
  TcpListener listener{*nic_b, 80, TcpConfig{}, [&](TcpConnection::Ptr conn) {
    accepted[conn->flow_id()] = conn;
    conn->set_message_handler(
        [&got, id = conn->flow_id()](const MessagePtr& m) { got[id] += m->size(); });
  }};
  std::vector<TcpConnection::Ptr> clients;
  for (int i = 0; i < 3; ++i) clients.push_back(TcpConnection::connect(*nic_a, b, 80));
  engine.run();
  ASSERT_EQ(accepted.size(), 3u);
  const std::uint64_t low = clients[0]->flow_id();
  const std::uint64_t middle = clients[1]->flow_id();
  const std::uint64_t high = clients[2]->flow_id();

  clients[1]->close();
  EXPECT_EQ(flow_ids(*nic_a), (std::vector<std::uint64_t>{low, high}));
  nic_a->unregister_tcp(middle);  // gone already: no-op
  nic_a->unregister_tcp(high + 100);
  EXPECT_EQ(flow_ids(*nic_a), (std::vector<std::uint64_t>{low, high}));

  // Segments for flows a no longer (or never) knew: below, between and
  // above the registered ids. The server side of the closed flow also keeps
  // retransmitting into it. All are received and dropped.
  int stray_delivered = 0;
  clients[1]->set_message_handler([&](const MessagePtr&) { ++stray_delivered; });
  accepted[middle]->send(make_message({}, 3000));
  for (std::uint64_t flow : {low - 1, middle, high + 1}) {
    Packet p;
    p.src = b;
    p.dst = a;
    p.kind = PacketKind::kTcpData;
    p.flow_id = flow;
    p.payload_bytes = 100;
    fabric.send(p);
  }
  clients[0]->send(make_message({}, 5000));
  clients[2]->send(make_message({}, 7000));
  const std::uint64_t received_before = nic_a->stats().bytes_received;
  engine.run_until(engine.now() + seconds(1.0));
  EXPECT_EQ(stray_delivered, 0);
  EXPECT_GT(nic_a->stats().bytes_received, received_before);
  EXPECT_EQ(got[low], 5000u);
  EXPECT_EQ(got[high], 7000u);
  EXPECT_EQ(got.count(middle), 0u);
}

TEST_F(TcpTest, GivesUpOnAPeerSilentForR2) {
  // The peer's uplink goes down for good, so nothing the client sends is
  // ever acknowledged. give_up_after (RFC 1122's R2, 100 s) after the flight
  // began, plus at most one max_rto to reach the next timeout, the
  // connection has closed, left the NIC's flow table and stopped
  // retransmitting.
  TcpListener listener{*nic_b, 80, TcpConfig{}, [](TcpConnection::Ptr) {}};
  TcpConfig config;
  config.give_up_after = seconds(100.0);
  auto client = TcpConnection::connect(*nic_a, b, 80, config);
  engine.run();
  ASSERT_TRUE(client->established());

  fabric.set_link_down(ports[1].first, true);
  const SimTime flight_at = engine.now();
  client->send(make_message({}, 4096));
  engine.run_until(flight_at + config.give_up_after + config.max_rto);
  EXPECT_TRUE(client->closed());
  EXPECT_TRUE(flow_ids(*nic_a).empty());
  const std::uint64_t retransmissions = client->stats().retransmissions;
  const std::uint64_t sent = fabric.stats().packets_sent;
  EXPECT_GT(retransmissions, 0u);

  engine.run_until(engine.now() + seconds(600.0));
  EXPECT_EQ(client->stats().retransmissions, retransmissions);
  EXPECT_EQ(fabric.stats().packets_sent, sent);
  client->send(make_message({}, 100));  // a closed connection drops
  EXPECT_EQ(client->stats().messages_sent, 1u);
}

TEST_F(TcpTest, WithoutGiveUpDeliversAfterAnOutageLongerThanR2) {
  // The default config never gives up: the workqueue and SmartPointer
  // streams, which cannot replace a closed connection, resume once the
  // peer's link heals, however long it was down.
  std::uint64_t delivered = 0;
  TcpListener listener{*nic_b, 80, TcpConfig{}, [&](TcpConnection::Ptr conn) {
                         conn->set_message_handler(
                             [&](const MessagePtr&) { ++delivered; });
                       }};
  auto client = TcpConnection::connect(*nic_a, b, 80);
  engine.run();
  ASSERT_TRUE(client->established());

  fabric.set_link_down(ports[1].first, true);
  client->send(make_message({}, 4096));
  engine.run_until(engine.now() + seconds(150.0));
  EXPECT_FALSE(client->closed());
  EXPECT_EQ(delivered, 0u);
  fabric.set_link_down(ports[1].first, false);
  engine.run_until(engine.now() + seconds(5.0));
  EXPECT_EQ(delivered, 1u);
}

TEST_F(TcpTest, AHandshakeThatGivesUpCloses) {
  // Nothing answers the SYNs: after the eighth the connection closes and
  // leaves the NIC's flow table, so an owner can tell it from a handshake
  // still in progress.
  fabric.set_link_down(ports[1].first, true);
  TcpListener listener{*nic_b, 80, TcpConfig{}, [](TcpConnection::Ptr) {}};
  auto client = TcpConnection::connect(*nic_a, b, 80);
  engine.run_until(engine.now() + seconds(2.0));
  EXPECT_FALSE(client->closed());
  EXPECT_FALSE(flow_ids(*nic_a).empty());
  engine.run_until(engine.now() + seconds(10.0));
  EXPECT_TRUE(client->closed());
  EXPECT_FALSE(client->established());
  EXPECT_TRUE(flow_ids(*nic_a).empty());
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
