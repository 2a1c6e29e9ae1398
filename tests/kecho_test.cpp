// KECho channel tests: registry protocol, membership, publish/subscribe
// delivery, poll semantics, and kernel CPU cost accounting.
#include <algorithm>

#include <gtest/gtest.h>

#include "dproc/kecho/node.hpp"
#include "dproc/kecho/registry.hpp"
#include "dproc/net/wire.hpp"

namespace dproc::kecho {
namespace {

class KechoTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kNodes = 4;

  KechoTest() {
    std::vector<net::NodeId> ids;
    for (std::size_t i = 0; i < kNodes; ++i) {
      ids.push_back(fabric.add_node("n" + std::to_string(i)));
    }
    fabric.build_star(ids, net::LinkConfig{});
    Rng master{99};
    for (std::size_t i = 0; i < kNodes; ++i) {
      host::HostConfig config;
      config.name = "n" + std::to_string(i);
      hosts.push_back(std::make_unique<host::Host>(
          engine, static_cast<host::HostId>(i), config, master.split()));
      nics.push_back(std::make_unique<net::Nic>(fabric, ids[i]));
    }
    registry = std::make_unique<RegistryServer>(*nics[0]);
    for (std::size_t i = 0; i < kNodes; ++i) {
      nodes.push_back(std::make_unique<Node>(*hosts[i], *nics[i], ids[0]));
    }
  }

  void settle(double sec = 1.0) {
    engine.run_until(engine.now() + seconds(sec));
  }

  sim::Engine engine;
  net::Fabric fabric{engine};
  std::vector<std::unique_ptr<host::Host>> hosts;
  std::vector<std::unique_ptr<net::Nic>> nics;
  std::unique_ptr<RegistryServer> registry;
  std::vector<std::unique_ptr<Node>> nodes;
};

TEST_F(KechoTest, FirstJoinCreatesChannel) {
  Channel& channel = nodes[0]->join("monitor");
  EXPECT_FALSE(channel.ready());
  settle();
  EXPECT_TRUE(channel.ready());
  EXPECT_GT(channel.id(), 0u);
  EXPECT_EQ(registry->channel_count(), 1u);
  EXPECT_EQ(channel.remote_member_count(), 0u);
}

TEST_F(KechoTest, SameNameSameChannelId) {
  Channel& a = nodes[0]->join("monitor");
  Channel& b = nodes[1]->join("monitor");
  Channel& c = nodes[2]->join("other");
  settle();
  EXPECT_EQ(a.id(), b.id());
  EXPECT_NE(a.id(), c.id());
  EXPECT_EQ(registry->channel_count(), 2u);
}

TEST_F(KechoTest, MembershipPropagatesToExistingMembers) {
  Channel& a = nodes[0]->join("monitor");
  settle();
  Channel& b = nodes[1]->join("monitor");
  settle();
  EXPECT_EQ(a.remote_member_count(), 1u);  // learned about b via notify
  EXPECT_EQ(b.remote_member_count(), 1u);  // learned about a via response
}

TEST_F(KechoTest, OnReadyCallbackFires) {
  bool ready = false;
  nodes[0]->join("monitor", [&](Channel&) { ready = true; });
  EXPECT_FALSE(ready);
  settle();
  EXPECT_TRUE(ready);
}

TEST_F(KechoTest, RejoinReturnsSameHandle) {
  Channel& a = nodes[0]->join("monitor");
  Channel& b = nodes[0]->join("monitor");
  EXPECT_EQ(&a, &b);
  bool ready = false;
  settle();
  nodes[0]->join("monitor", [&](Channel&) { ready = true; });
  EXPECT_TRUE(ready);  // already-ready channels fire callbacks immediately
}

TEST_F(KechoTest, EventsReachEverySubscriberExactlyOnce) {
  std::vector<Channel*> channels;
  std::vector<int> received(kNodes, 0);
  for (std::size_t i = 0; i < kNodes; ++i) {
    channels.push_back(&nodes[i]->join("monitor"));
  }
  settle();
  for (std::size_t i = 0; i < kNodes; ++i) {
    channels[i]->set_handler([&received, i](const Event&) { ++received[i]; });
  }

  net::ByteWriter w;
  w.str("sample");
  channels[0]->submit(net::make_message(w.take()));
  settle();
  for (std::size_t i = 0; i < kNodes; ++i) nodes[i]->poll();

  EXPECT_EQ(received[0], 0);  // no local loopback, like publishing d-mon
  for (std::size_t i = 1; i < kNodes; ++i) {
    EXPECT_EQ(received[i], 1) << "node " << i;
  }
}

TEST_F(KechoTest, EventsQueueUntilPoll) {
  Channel& pub = nodes[0]->join("monitor");
  Channel& sub = nodes[1]->join("monitor");
  settle();
  int received = 0;
  sub.set_handler([&](const Event&) { ++received; });

  pub.submit(net::make_message({}, 64));
  pub.submit(net::make_message({}, 64));
  settle();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(sub.pending_events(), 2u);

  const PollStats stats = nodes[1]->poll();
  EXPECT_EQ(received, 2);
  EXPECT_EQ(stats.events_delivered, 2u);
  EXPECT_EQ(sub.pending_events(), 0u);
}

TEST_F(KechoTest, EventCarriesSourceAndPayload) {
  Channel& pub = nodes[0]->join("monitor");
  Channel& sub = nodes[1]->join("monitor");
  settle();
  Event got;
  sub.set_handler([&](const Event& event) { got = event; });

  net::ByteWriter w;
  w.u32(777);
  pub.submit(net::make_message(w.take(), 100));
  settle();
  nodes[1]->poll();

  EXPECT_EQ(got.source, nics[0]->node());
  EXPECT_EQ(got.channel, pub.id());
  ASSERT_NE(got.frame, nullptr);
  EXPECT_EQ(got.payload_body_bytes(), 100u);
  net::ByteReader r{got.payload_header()};
  EXPECT_EQ(r.u32(), 777u);
}

TEST_F(KechoTest, ChannelsAreIsolated) {
  Channel& pub = nodes[0]->join("monitor");
  nodes[1]->join("monitor");
  Channel& other = nodes[1]->join("control");
  settle();
  int other_received = 0;
  other.set_handler([&](const Event&) { ++other_received; });
  pub.submit(net::make_message({}, 10));
  settle();
  nodes[1]->poll();
  EXPECT_EQ(other_received, 0);
}

TEST_F(KechoTest, SubmitChargesKernelCpuPerSubscriber) {
  Channel& pub = nodes[0]->join("monitor");
  nodes[1]->join("monitor");
  nodes[2]->join("monitor");
  settle();

  const SimDuration before = hosts[0]->cpu().kernel_cpu_time();
  const SimDuration cost = pub.submit(net::make_message({}, 100));
  const SimDuration after = hosts[0]->cpu().kernel_cpu_time();
  EXPECT_GT(cost, SimDuration::zero());
  EXPECT_EQ((after - before).ns(), cost.ns());

  // Cost scales with subscriber count.
  nodes[3]->join("monitor");
  settle();
  const SimDuration cost3 = pub.submit(net::make_message({}, 100));
  EXPECT_NEAR(cost3.us(), cost.us() * 1.5, cost.us() * 0.01);
}

TEST_F(KechoTest, ReceiveCostScalesWithEventSize) {
  Channel& pub = nodes[0]->join("monitor");
  nodes[1]->join("monitor");
  settle();
  pub.submit(net::make_message({}, 100));
  settle();
  const SimDuration small = nodes[1]->poll().cpu_cost;

  pub.submit(net::make_message({}, 5000));
  settle();
  const SimDuration large = nodes[1]->poll().cpu_cost;
  EXPECT_GT(large, small);
}

TEST_F(KechoTest, SubmitBeforeReadyReachesNobody) {
  Channel& pub = nodes[0]->join("monitor");
  Channel& sub = nodes[1]->join("monitor");
  pub.submit(net::make_message({}, 10));  // registry round-trip pending
  settle();
  nodes[1]->poll();
  EXPECT_EQ(sub.events_received(), 0u);
}

TEST_F(KechoTest, EncodeJoinRequestStable) {
  auto message = encode_join_request("chan", Member{3, 7788});
  net::ByteReader r{message->header};
  EXPECT_EQ(static_cast<RegistryOp>(r.u8()), RegistryOp::kJoinRequest);
  EXPECT_EQ(r.str(), "chan");
  EXPECT_EQ(r.u32(), 3u);
  EXPECT_EQ(r.u16(), 7788);
  EXPECT_TRUE(r.ok());
}

TEST_F(KechoTest, DatagramTransportDelivers) {
  Channel& pub = nodes[0]->join("lossy", {}, ChannelTransport::kDatagram);
  Channel& sub = nodes[1]->join("lossy");
  settle();
  int received = 0;
  sub.set_handler([&](const Event&) { ++received; });
  pub.submit(net::make_message({}, 64));
  pub.submit(net::make_message({}, 64));
  settle();
  nodes[1]->poll();
  EXPECT_EQ(received, 2);
}

TEST_F(KechoTest, DatagramTransportDropsUnderCongestionWithoutRetransmit) {
  // A dedicated fabric with tiny buffers: bursts overflow, and the lossy
  // channel simply loses events — no retransmission traffic follows.
  sim::Engine eng;
  net::Fabric fab{eng};
  std::vector<net::NodeId> ids{fab.add_node("a"), fab.add_node("b")};
  net::LinkConfig tiny;
  tiny.buffer_bytes = 2'000;
  fab.build_star(ids, tiny);
  Rng master{7};
  host::HostConfig hc;
  hc.name = "a";
  host::Host ha{eng, 0, hc, master.split()};
  hc.name = "b";
  host::Host hb{eng, 1, hc, master.split()};
  net::Nic na{fab, ids[0]}, nb{fab, ids[1]};
  RegistryServer reg{na};
  Node ka{ha, na, ids[0]}, kb{hb, nb, ids[0]};

  Channel& pub = ka.join("lossy", {}, ChannelTransport::kDatagram);
  Channel& sub = kb.join("lossy");
  eng.run_until(eng.now() + seconds(1.0));
  int received = 0;
  sub.set_handler([&](const Event&) { ++received; });
  for (int burst = 0; burst < 10; ++burst) {
    eng.schedule_at(eng.now() + seconds(0.01 * burst), [&] {
      for (int i = 0; i < 5; ++i) pub.submit(net::make_message({}, 1200));
    });
  }
  eng.run_until(eng.now() + seconds(2.0));
  kb.poll();
  EXPECT_LT(received, 50) << "tiny buffers must have dropped events";
  EXPECT_GT(received, 0);
  EXPECT_GT(nb.stats().datagrams_lost, 0u);
  // No reliable transport was ever opened for the event path.
  EXPECT_EQ(pub.events_submitted(), 50u);
}

TEST_F(KechoTest, PollBaseCostChargedEvenWhenIdle) {
  const PollStats stats = nodes[0]->poll();
  EXPECT_EQ(stats.events_delivered, 0u);
  EXPECT_GT(stats.cpu_cost, SimDuration::zero());
}

TEST_F(KechoTest, DuplicateJoinRequestIsIdempotent) {
  Channel& a = nodes[0]->join("monitor");
  Channel& b = nodes[1]->join("monitor");
  settle();
  ASSERT_TRUE(a.ready());
  ASSERT_TRUE(b.ready());
  ASSERT_EQ(registry->channel_members("monitor").size(), 2u);

  // Replay node 1's join verbatim, as a restarted kernel module would.
  nics[1]->send_datagram(
      nics[0]->node(), RegistryServer::kDefaultPort,
      encode_join_request("monitor", Member{nics[1]->node(), Node::kChannelPort}),
      Node::kChannelPort);
  settle();

  EXPECT_EQ(registry->stats().duplicate_joins, 1u);
  EXPECT_EQ(registry->channel_members("monitor").size(), 2u);
  // Existing members saw no phantom second copy of node 1.
  EXPECT_EQ(a.members().size(), 1u);
  EXPECT_EQ(b.members().size(), 1u);
}

TEST_F(KechoTest, RejoinAfterCrashLeavesNoDuplicateMembers) {
  Channel& a = nodes[0]->join("monitor");
  Channel& b = nodes[1]->join("monitor");
  settle();
  ASSERT_TRUE(a.ready());

  nodes[0]->crash();
  EXPECT_FALSE(a.ready());
  EXPECT_TRUE(nodes[0]->crashed());
  nodes[0]->restart();
  settle();

  EXPECT_TRUE(a.ready());
  EXPECT_GE(registry->stats().duplicate_joins, 1u);
  EXPECT_EQ(registry->channel_members("monitor").size(), 2u);
  ASSERT_EQ(a.members().size(), 1u);
  EXPECT_EQ(a.members()[0].node, nics[1]->node());
  ASSERT_EQ(b.members().size(), 1u);
  EXPECT_EQ(b.members()[0].node, nics[0]->node());
}

TEST_F(KechoTest, GracefulLeaveRemovesMemberEverywhere) {
  Channel& a = nodes[0]->join("monitor");
  Channel& b = nodes[1]->join("monitor");
  Channel& c = nodes[2]->join("monitor");
  settle();
  ASSERT_EQ(a.members().size(), 2u);

  std::vector<std::pair<MemberEventKind, net::NodeId>> events;
  nodes[0]->add_membership_listener(
      [&](MemberEventKind kind, net::NodeId node) {
        events.emplace_back(kind, node);
      });

  nodes[1]->announce_leave();
  settle();

  EXPECT_EQ(registry->stats().leaves, 1u);
  const auto members = registry->channel_members("monitor");
  ASSERT_EQ(members.size(), 2u);
  for (const Member& m : members) EXPECT_NE(m.node, nics[1]->node());
  EXPECT_EQ(a.members().size(), 1u);
  EXPECT_EQ(c.members().size(), 1u);
  EXPECT_EQ(b.members().size(), 0u);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].first, MemberEventKind::kLeft);
  EXPECT_EQ(events[0].second, nics[1]->node());
}

TEST_F(KechoTest, DeliversAgainAfterPeerUnreachableLongerThanR2) {
  // The publisher submits every second through a 150 s outage of the
  // subscriber. Its transport gives up after R2 (100 s), and each fresh
  // transport's handshake gives up while the subscriber stays unreachable;
  // every give-up closes, so the next submit opens another. Once the
  // subscriber heals, a handshake (at most 2.55 s of SYNs) gets through and
  // the submits reach it again.
  Channel& pub = nodes[1]->join("monitor");
  Channel& sub = nodes[2]->join("monitor");
  settle();
  std::vector<std::uint32_t> got;
  sub.set_handler([&](const Event& event) {
    net::ByteReader r{event.payload_header()};
    got.push_back(r.u32());
  });
  std::uint32_t tag = 0;
  const auto submit_each_second = [&](int count) {
    for (int i = 0; i < count; ++i) {
      net::ByteWriter w;
      w.u32(tag++);
      pub.submit(net::make_message(w.take()));
      settle();
    }
    nodes[2]->poll();
  };
  submit_each_second(1);
  ASSERT_EQ(got, std::vector<std::uint32_t>{0});

  fabric.set_node_down(nics[2]->node(), true);
  submit_each_second(150);
  EXPECT_EQ(got.size(), 1u);
  fabric.set_node_down(nics[2]->node(), false);
  const std::uint32_t healed_at = tag;
  submit_each_second(10);

  // Frames queued in a transport that gave up are lost; every frame
  // submitted once a post-heal handshake had time to finish arrives, in
  // order and once.
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
  EXPECT_EQ(std::adjacent_find(got.begin(), got.end()), got.end());
  ASSERT_GE(got.size(), 7u);
  const std::vector<std::uint32_t> late(got.end() - 7, got.end());
  std::vector<std::uint32_t> expected(7);
  for (std::uint32_t i = 0; i < 7; ++i) expected[i] = healed_at + 3 + i;
  EXPECT_EQ(late, expected);
}

// Liveness-enabled variant of the fixture: short heartbeat period so that
// failure detection and registry retry run inside a few simulated seconds.
class KechoLivenessTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kNodes = 4;

  KechoLivenessTest() {
    for (std::size_t i = 0; i < kNodes; ++i) {
      ids.push_back(fabric.add_node("n" + std::to_string(i)));
    }
    fabric.build_star(ids, net::LinkConfig{});
    Rng master{99};
    liveness.enabled = true;
    liveness.heartbeat_period = seconds(0.2);
    liveness.miss_threshold = 3;
    liveness.retry_base = milliseconds(50.0);
    liveness.retry_cap = seconds(0.4);
    for (std::size_t i = 0; i < kNodes; ++i) {
      host::HostConfig config;
      config.name = "n" + std::to_string(i);
      hosts.push_back(std::make_unique<host::Host>(
          engine, static_cast<host::HostId>(i), config, master.split()));
      nics.push_back(std::make_unique<net::Nic>(fabric, ids[i]));
    }
    registry = std::make_unique<RegistryServer>(*nics[0]);
    for (std::size_t i = 0; i < kNodes; ++i) {
      nodes.push_back(std::make_unique<Node>(*hosts[i], *nics[i], ids[0],
                                             RegistryServer::kDefaultPort,
                                             KechoCosts{}, liveness));
    }
  }

  void settle(double sec = 1.0) {
    engine.run_until(engine.now() + seconds(sec));
  }

  void join_all(const std::string& name) {
    channels.clear();
    for (auto& node : nodes) channels.push_back(&node->join(name));
    settle(0.5);
  }

  sim::Engine engine;
  net::Fabric fabric{engine};
  std::vector<net::NodeId> ids;
  LivenessConfig liveness;
  std::vector<std::unique_ptr<host::Host>> hosts;
  std::vector<std::unique_ptr<net::Nic>> nics;
  std::unique_ptr<RegistryServer> registry;
  std::vector<std::unique_ptr<Node>> nodes;
  std::vector<Channel*> channels;
};

TEST_F(KechoLivenessTest, SilentPeerIsEvictedAfterMissThreshold) {
  join_all("monitor");
  for (std::size_t i = 0; i < kNodes; ++i) {
    ASSERT_EQ(channels[i]->members().size(), kNodes - 1);
  }

  std::vector<std::pair<MemberEventKind, net::NodeId>> events;
  nodes[0]->add_membership_listener(
      [&](MemberEventKind kind, net::NodeId node) {
        events.emplace_back(kind, node);
      });

  fabric.set_node_down(ids[3], true);
  nodes[3]->crash();
  settle(2.0);

  // Survivors noticed the silence, evicted the peer, and the registry
  // propagated the removal exactly once per surviving view.
  EXPECT_GE(registry->stats().evictions, 1u);
  const auto members = registry->channel_members("monitor");
  ASSERT_EQ(members.size(), kNodes - 1);
  for (const Member& m : members) EXPECT_NE(m.node, ids[3]);
  std::uint64_t initiated = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    initiated += nodes[i]->evictions_initiated();
    EXPECT_EQ(channels[i]->members().size(), kNodes - 2);
    EXPECT_GT(nodes[i]->heartbeats_sent(), 0u);
  }
  EXPECT_GE(initiated, 1u);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].first, MemberEventKind::kEvicted);
  EXPECT_EQ(events[0].second, ids[3]);
}

TEST_F(KechoLivenessTest, RestartAfterEvictionReconvergesWithoutDuplicates) {
  join_all("monitor");
  fabric.set_node_down(ids[3], true);
  nodes[3]->crash();
  settle(2.0);
  ASSERT_EQ(registry->channel_members("monitor").size(), kNodes - 1);

  fabric.set_node_down(ids[3], false);
  nodes[3]->restart();
  settle(2.0);

  const auto members = registry->channel_members("monitor");
  ASSERT_EQ(members.size(), kNodes);
  for (std::size_t i = 0; i < members.size(); ++i) {
    for (std::size_t j = i + 1; j < members.size(); ++j) {
      EXPECT_NE(members[i].node, members[j].node);
    }
  }
  for (std::size_t i = 0; i < kNodes; ++i) {
    const Channel* channel = channels[i];
    EXPECT_TRUE(channel->ready());
    const auto& view = channel->members();
    ASSERT_EQ(view.size(), kNodes - 1);
    for (std::size_t a = 0; a < view.size(); ++a) {
      EXPECT_NE(view[a].node, ids[i]) << "node " << i << " lists itself";
      for (std::size_t b = a + 1; b < view.size(); ++b) {
        EXPECT_NE(view[a].node, view[b].node);
      }
    }
  }
}

TEST_F(KechoLivenessTest, JoinRetriesThroughRegistryOutage) {
  registry->set_online(false);
  Channel& channel = nodes[1]->join("monitor");
  settle(0.5);
  EXPECT_FALSE(channel.ready());
  EXPECT_GT(registry->stats().drops_offline, 0u);

  registry->set_online(true);
  settle(1.0);
  EXPECT_TRUE(channel.ready());
  EXPECT_EQ(registry->channel_members("monitor").size(), 1u);
}

TEST_F(KechoLivenessTest, LeaveRetriedUntilRegistryAcks) {
  // A solo member: no surviving peer can race the leave with an eviction,
  // so the only way the registry forgets the member is the retried leave.
  Channel& channel = nodes[2]->join("monitor");
  settle(0.3);
  ASSERT_TRUE(channel.ready());

  registry->set_online(false);
  nodes[2]->announce_leave();
  settle(0.5);
  ASSERT_EQ(registry->channel_members("monitor").size(), 1u)
      << "offline registry must not have processed the leave yet";

  registry->set_online(true);
  settle(1.5);
  EXPECT_EQ(registry->stats().leaves, 1u);
  EXPECT_TRUE(registry->channel_members("monitor").empty());
}

}  // namespace
}  // namespace dproc::kecho
