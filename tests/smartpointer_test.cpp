// SmartPointer server/client tests: subscription, the three filter modes,
// the adaptation policies, and the lag/backlog instrumentation.
#include <gtest/gtest.h>

#include "dproc/core/cluster.hpp"
#include "dproc/smartpointer/client.hpp"
#include "dproc/smartpointer/server.hpp"
#include "dproc/smartpointer/sync.hpp"
#include "dproc/workload/iperf.hpp"
#include "dproc/workload/linpack.hpp"

namespace dproc::smartpointer {
namespace {

// --- cost model ------------------------------------------------------------

TEST(StreamCostModel, FrameBytesByRepresentation) {
  StreamCostModel costs;
  EXPECT_EQ(costs.frame_bytes(Representation::kFull, 1000, 1.0), 25'000u);
  EXPECT_EQ(costs.frame_bytes(Representation::kPositionOnly, 1000, 1.0),
            13'000u);
  EXPECT_EQ(costs.frame_bytes(Representation::kCompressed, 1000, 1.0),
            10'000u);
  EXPECT_EQ(costs.frame_bytes(Representation::kPreRendered, 1000, 1.0),
            workload::MdLayout::kImageBytes);
  // Decimation scales data derivations but not images.
  EXPECT_EQ(costs.frame_bytes(Representation::kFull, 1000, 0.5), 12'500u);
  EXPECT_EQ(costs.frame_bytes(Representation::kPreRendered, 1000, 0.5),
            workload::MdLayout::kImageBytes);
}

TEST(StreamCostModel, CpuTradeoffInversesNetworkTradeoff) {
  StreamCostModel costs;
  const std::uint32_t atoms = 100'000;
  const auto full_bytes = costs.frame_bytes(Representation::kFull, atoms, 1.0);
  const auto comp_bytes =
      costs.frame_bytes(Representation::kCompressed, atoms, 1.0);
  const auto image_bytes =
      costs.frame_bytes(Representation::kPreRendered, atoms, 1.0);
  // Compressed: fewer bytes, more CPU. Image: more bytes, less CPU.
  EXPECT_LT(comp_bytes, full_bytes);
  EXPECT_GT(costs.client_cpu_seconds(Representation::kCompressed, comp_bytes),
            costs.client_cpu_seconds(Representation::kFull, full_bytes));
  EXPECT_GT(image_bytes, full_bytes);
  EXPECT_LT(costs.client_cpu_seconds(Representation::kPreRendered, image_bytes),
            costs.client_cpu_seconds(Representation::kFull, full_bytes));
}

TEST(StreamCodec, FrameRoundTrip) {
  FramePayload frame;
  frame.frame_number = 42;
  frame.generated_at = SimTime{123456789};
  frame.rep = Representation::kCompressed;
  frame.fraction = 0.25;
  frame.data_bytes = 1'000'000;
  auto decoded = decode_frame(encode_frame(frame));
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value().frame_number, 42u);
  EXPECT_EQ(decoded.value().generated_at.ns(), 123456789);
  EXPECT_EQ(decoded.value().rep, Representation::kCompressed);
  EXPECT_DOUBLE_EQ(decoded.value().fraction, 0.25);
  EXPECT_EQ(decoded.value().data_bytes, 1'000'000u);
  // Bulk rides as body bytes, headers stay small.
  EXPECT_EQ(encode_frame(frame)->body_bytes, 1'000'000u);
  EXPECT_LT(encode_frame(frame)->header.size(), 64u);
}

TEST(StreamCodec, SubscribeRoundTrip) {
  Subscribe sub;
  sub.client_node = 7;
  sub.mode = FilterMode::kDynamic;
  sub.static_rep = Representation::kPreRendered;
  sub.storage_client = true;
  auto decoded = decode_subscribe(encode_subscribe(sub));
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value().client_node, 7u);
  EXPECT_EQ(decoded.value().mode, FilterMode::kDynamic);
  EXPECT_TRUE(decoded.value().storage_client);
}

TEST(StreamCodec, WrongOpcodeRejected) {
  EXPECT_FALSE(decode_frame(encode_subscribe(Subscribe{})).is_ok());
  FramePayload frame;
  EXPECT_FALSE(decode_subscribe(encode_frame(frame)).is_ok());
}

// --- end-to-end fixtures -----------------------------------------------------

class SmartPointerTest : public ::testing::Test {
 protected:
  SmartPointerTest() {
    core::ClusterConfig config;
    config.node_count = 3;
    cluster = std::make_unique<core::Cluster>(engine, config);
    cluster->start_dproc();
    engine.run_until(SimTime{} + seconds(2.0));
  }

  std::unique_ptr<Server> make_server(ServerConfig config = {}) {
    auto server = std::make_unique<Server>(cluster->host(0), cluster->nic(0),
                                           cluster->dmon(0), config);
    server->start();
    return server;
  }

  void run_for(double sec) { engine.run_until(engine.now() + seconds(sec)); }

  sim::Engine engine;
  std::unique_ptr<core::Cluster> cluster;
};

TEST_F(SmartPointerTest, SubscribeEstablishesClientState) {
  auto server = make_server();
  ClientConfig config;
  config.mode = FilterMode::kStatic;
  config.static_rep = Representation::kPositionOnly;
  Client client{cluster->host(1), cluster->nic(1), 0, 9000, config};
  client.connect();
  run_for(1.0);
  ASSERT_EQ(server->client_count(), 1u);
  const Server::ClientState* state = server->client(1);
  ASSERT_NE(state, nullptr);
  EXPECT_EQ(state->subscription.mode, FilterMode::kStatic);
  EXPECT_EQ(state->subscription.static_rep, Representation::kPositionOnly);
}

TEST_F(SmartPointerTest, FramesFlowAtServerRate) {
  ServerConfig server_config;
  server_config.frame_rate_hz = 5.0;
  server_config.atom_count = 10'000;
  auto server = make_server(server_config);
  Client client{cluster->host(1), cluster->nic(1), 0, 9000, ClientConfig{}};
  client.connect();
  run_for(1.0);
  client.checkpoint();
  run_for(10.0);
  EXPECT_NEAR(client.event_rate_since_checkpoint(), 5.0, 0.3);
  EXPECT_GT(client.frames_processed(), 45u);
}

TEST_F(SmartPointerTest, FramesFlowAgainAfterAClientOutageLongerThanR2) {
  // Neither end can replace the stream's connection, so it never gives up:
  // frames sent into a 150 s outage of the client (longer than TCP's R2)
  // are retransmitted until it heals, and the stream resumes.
  ServerConfig server_config;
  server_config.frame_rate_hz = 5.0;
  server_config.atom_count = 1'000;
  auto server = make_server(server_config);
  Client client{cluster->host(1), cluster->nic(1), 0, 9000, ClientConfig{}};
  client.connect();
  run_for(2.0);
  const net::NodeId down = cluster->nic(1).node();
  cluster->fabric().set_node_down(down, true);
  run_for(150.0);
  const std::uint64_t before_heal = client.frames_processed();
  cluster->fabric().set_node_down(down, false);
  run_for(30.0);
  EXPECT_GT(client.frames_processed(), before_heal + 100);
}

TEST_F(SmartPointerTest, NoFilterSendsFullFrames) {
  ServerConfig server_config;
  server_config.atom_count = 10'000;
  auto server = make_server(server_config);
  Client client{cluster->host(1), cluster->nic(1), 0, 9000, ClientConfig{}};
  client.connect();
  run_for(3.0);
  const Server::ClientState* state = server->client(1);
  ASSERT_NE(state, nullptr);
  EXPECT_EQ(state->last_rep, Representation::kFull);
  EXPECT_DOUBLE_EQ(state->last_fraction, 1.0);
}

TEST_F(SmartPointerTest, StaticFilterUsesChosenRepresentation) {
  auto server = make_server();
  ClientConfig config;
  config.mode = FilterMode::kStatic;
  config.static_rep = Representation::kCompressed;
  Client client{cluster->host(1), cluster->nic(1), 0, 9000, config};
  client.connect();
  run_for(3.0);
  EXPECT_EQ(server->client(1)->last_rep, Representation::kCompressed);
}

TEST_F(SmartPointerTest, LagMeasuredPerFrame) {
  ServerConfig server_config;
  server_config.atom_count = 10'000;
  auto server = make_server(server_config);
  Client client{cluster->host(1), cluster->nic(1), 0, 9000, ClientConfig{}};
  client.connect();
  run_for(5.0);
  ASSERT_GT(client.lag_series().size(), 10u);
  for (const auto& point : client.lag_series()) {
    EXPECT_GT(point.lag.ns(), 0);
    EXPECT_LT(point.lag.sec(), 1.0);  // unloaded LAN
  }
}

TEST_F(SmartPointerTest, StorageClientWritesToDisk) {
  ServerConfig server_config;
  server_config.atom_count = 10'000;
  auto server = make_server(server_config);
  ClientConfig config;
  config.storage_client = true;
  Client client{cluster->host(1), cluster->nic(1), 0, 9000, config};
  client.connect();
  run_for(5.0);
  EXPECT_GT(cluster->host(1).disk().counters().writes, 0u);
}

TEST_F(SmartPointerTest, DynamicPolicyPrefersFidelityWhenUnloaded) {
  ServerConfig server_config;
  server_config.frame_rate_hz = 2.0;
  server_config.atom_count = 10'000;  // tiny stream, everything sustainable
  auto server = make_server(server_config);
  ClientConfig config;
  config.mode = FilterMode::kDynamic;
  Client client{cluster->host(1), cluster->nic(1), 0, 9000, config};
  client.connect();
  run_for(10.0);
  const Server::ClientState* state = server->client(1);
  EXPECT_EQ(state->last_rep, Representation::kFull);
  EXPECT_DOUBLE_EQ(state->last_fraction, 1.0);
}

TEST_F(SmartPointerTest, DynamicPolicyShedsCpuLoad) {
  ServerConfig server_config;
  server_config.frame_rate_hz = 5.0;
  server_config.atom_count = 30'000;  // full rendering ~0.12 s/frame
  auto server = make_server(server_config);
  ClientConfig config;
  config.mode = FilterMode::kDynamic;
  Client client{cluster->host(1), cluster->nic(1), 0, 9000, config};
  client.connect();
  run_for(5.0);

  // Load the client heavily; the policy must keep the backlog bounded.
  workload::LinpackTask t1{cluster->host(1)}, t2{cluster->host(1)},
      t3{cluster->host(1)}, t4{cluster->host(1)};
  run_for(40.0);
  client.checkpoint();
  run_for(20.0);
  EXPECT_NEAR(client.event_rate_since_checkpoint(), 5.0, 0.5)
      << "dynamic filter should keep up with the send rate";
  EXPECT_LT(client.backlog(), 10u);
  const Server::ClientState* state = server->client(1);
  EXPECT_TRUE(state->last_rep != Representation::kFull ||
              state->last_fraction < 1.0)
      << "policy should have customized the stream";
}

TEST_F(SmartPointerTest, WithoutFilterBacklogGrowsUnderLoad) {
  ServerConfig server_config;
  server_config.frame_rate_hz = 5.0;
  server_config.atom_count = 30'000;
  auto server = make_server(server_config);
  Client client{cluster->host(1), cluster->nic(1), 0, 9000, ClientConfig{}};
  client.connect();
  run_for(5.0);
  workload::LinpackTask t1{cluster->host(1)}, t2{cluster->host(1)},
      t3{cluster->host(1)}, t4{cluster->host(1)};
  run_for(60.0);
  EXPECT_GT(client.backlog(), 50u) << "no filter: queue must grow";
}

TEST_F(SmartPointerTest, MultipleClientsCustomizedIndependently) {
  ServerConfig server_config;
  server_config.frame_rate_hz = 5.0;
  server_config.atom_count = 30'000;
  auto server = make_server(server_config);

  ClientConfig dynamic_config;
  dynamic_config.mode = FilterMode::kDynamic;
  Client loaded{cluster->host(1), cluster->nic(1), 0, 9000, dynamic_config};
  loaded.connect();
  Client idle{cluster->host(2), cluster->nic(2), 0, 9000, dynamic_config};
  idle.connect();
  run_for(5.0);

  workload::LinpackTask t1{cluster->host(1)}, t2{cluster->host(1)},
      t3{cluster->host(1)}, t4{cluster->host(1)}, t5{cluster->host(1)};
  run_for(40.0);

  const Server::ClientState* loaded_state = server->client(1);
  const Server::ClientState* idle_state = server->client(2);
  ASSERT_NE(loaded_state, nullptr);
  ASSERT_NE(idle_state, nullptr);
  // The idle client keeps (near-)full fidelity — this stream runs close to
  // its sustainability budget even unloaded, so mild decimation is allowed;
  // the loaded client must be customized substantially more.
  EXPECT_EQ(idle_state->last_rep, Representation::kFull);
  EXPECT_GT(idle_state->last_fraction, 0.9);
  const auto fidelity_of = [](const Server::ClientState& s) {
    const double base = s.last_rep == Representation::kFull ? 1.0 : 0.85;
    return base * s.last_fraction;
  };
  EXPECT_LT(fidelity_of(*loaded_state), fidelity_of(*idle_state) * 0.75);
}

// --- multi-stream synchronization (the §4.2 data/video/audio story) --------

class SyncTest : public SmartPointerTest {
 protected:
  // Two streams from the same server node to the same client node: a light
  // "audio/data" stream and a heavy "video" stream that is slower to
  // process. Both tick at 5 Hz from the same virtual clock.
  std::unique_ptr<Server> data_server, video_server;
  std::unique_ptr<Client> data_stream, video_stream;

  void start_streams(double video_processing_scale) {
    ServerConfig data_config;
    data_config.port = 9000;
    data_config.frame_rate_hz = 5.0;
    data_config.atom_count = 2'000;  // tiny
    data_server = std::make_unique<Server>(cluster->host(0), cluster->nic(0),
                                           cluster->dmon(0), data_config);
    data_server->start();

    ServerConfig video_config;
    video_config.port = 9001;
    video_config.frame_rate_hz = 5.0;
    video_config.atom_count = 30'000;
    video_server = std::make_unique<Server>(cluster->host(0), cluster->nic(0),
                                            cluster->dmon(0), video_config);
    video_server->start();

    ClientConfig light;
    data_stream = std::make_unique<Client>(cluster->host(1), cluster->nic(1),
                                           0, 9000, light);
    ClientConfig heavy;
    heavy.processing_scale = video_processing_scale;
    video_stream = std::make_unique<Client>(cluster->host(1), cluster->nic(1),
                                            0, 9001, heavy);
  }
};

TEST_F(SyncTest, UnsynchronizedStreamsDrift) {
  start_streams(1.0);
  data_stream->connect();
  video_stream->connect();
  run_for(20.0);
  // The light stream completes frames much earlier than the heavy one.
  ASSERT_GT(data_stream->frames_processed(), 50u);
  ASSERT_GT(video_stream->frames_processed(), 50u);
  const double data_lag = data_stream->lags().mean();
  const double video_lag = video_stream->lags().mean();
  EXPECT_GT(video_lag, data_lag * 3) << "streams drift without sync";
}

TEST_F(SyncTest, SyncGroupBoundsSkew) {
  start_streams(1.0);
  SyncGroup sync{{data_stream.get(), video_stream.get()}};
  data_stream->connect();
  video_stream->connect();
  run_for(20.0);

  SyncStats& stats = sync.stats();
  ASSERT_GT(stats.presented, 50u);
  // Presentation is aligned: the skew the group *absorbed* equals the raw
  // completion spread, and the light stream pays it as buffer delay.
  EXPECT_GT(stats.skew_sec.mean(), 0.02);
  EXPECT_NEAR(stats.buffer_delay_sec.quantile(1.0), stats.skew_sec.quantile(1.0),
              1e-9);
  // Every presented group waited for its slowest member; nothing leaks.
  EXPECT_LE(sync.buffered(), 4u);
}

TEST_F(SyncTest, SyncGroupHandlesHeavyImbalance) {
  start_streams(3.0);  // video frames take ~0.36 s each at 0.2 s cadence
  SyncGroup sync{{data_stream.get(), video_stream.get()}};
  data_stream->connect();
  video_stream->connect();
  run_for(30.0);
  // The video stream falls behind unboundedly; the sync buffer grows with
  // it, but presented groups stay consistent (monotone frame completion).
  EXPECT_GT(sync.stats().presented, 10u);
  EXPECT_GT(sync.stats().max_buffered, 10u);
}

TEST(SyncGroupUnit, RejectsSingleStream) {
  EXPECT_THROW(SyncGroup{std::vector<Client*>{nullptr}},
               std::invalid_argument);
}

}  // namespace
}  // namespace dproc::smartpointer
