// End-to-end causal tracing: per-sample provenance across the 8-node
// cluster (publish → submit → wire → deliver → render → decision), hop
// latency breakdowns, the staleness SLO watchdog, and the Chrome trace
// export's flow events. The disabled-by-default contract itself is pinned
// by trace_golden_test (byte-identical frames) and perf_regression_test
// (zero-allocation hot paths); here we assert the *enabled* behaviour.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "dproc/core/cluster.hpp"
#include "dproc/smartpointer/client.hpp"
#include "dproc/smartpointer/server.hpp"
#include "dproc/telemetry/telemetry.hpp"

namespace dproc {
namespace {

using telemetry::HopStage;

// --- a minimal JSON parser, just enough to validate the Chrome export ------

struct JsonValue {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  [[nodiscard]] const JsonValue* get(const std::string& key) const {
    auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
  [[nodiscard]] std::string str(const std::string& key) const {
    const JsonValue* v = get(key);
    return v != nullptr && v->kind == kString ? v->string : std::string{};
  }
  [[nodiscard]] double num(const std::string& key) const {
    const JsonValue* v = get(key);
    return v != nullptr && v->kind == kNumber ? v->number : 0.0;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text)
      : p_(text.data()), end_(text.data() + text.size()) {}

  bool parse(JsonValue& out) {
    skip_ws();
    if (!value(out)) return false;
    skip_ws();
    return p_ == end_;  // no trailing garbage
  }

 private:
  void skip_ws() {
    while (p_ < end_ && std::isspace(static_cast<unsigned char>(*p_))) ++p_;
  }
  bool literal(const char* text) {
    const char* q = p_;
    for (; *text != '\0'; ++text, ++q) {
      if (q == end_ || *q != *text) return false;
    }
    p_ = q;
    return true;
  }
  bool value(JsonValue& out) {
    skip_ws();
    if (p_ == end_) return false;
    switch (*p_) {
      case '{': return object(out);
      case '[': return array(out);
      case '"': out.kind = JsonValue::kString; return string(out.string);
      case 't': out.kind = JsonValue::kBool; out.boolean = true;
        return literal("true");
      case 'f': out.kind = JsonValue::kBool; out.boolean = false;
        return literal("false");
      case 'n': out.kind = JsonValue::kNull; return literal("null");
      default: return number(out);
    }
  }
  bool string(std::string& out) {
    if (*p_ != '"') return false;
    ++p_;
    while (p_ < end_ && *p_ != '"') {
      if (*p_ == '\\') {
        ++p_;
        if (p_ == end_) return false;
        switch (*p_) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          default: return false;  // \uXXXX never emitted by the export
        }
        ++p_;
      } else {
        out += *p_++;
      }
    }
    if (p_ == end_) return false;
    ++p_;  // closing quote
    return true;
  }
  bool number(JsonValue& out) {
    char* after = nullptr;
    out.kind = JsonValue::kNumber;
    out.number = std::strtod(p_, &after);
    if (after == p_ || after > end_) return false;
    p_ = after;
    return true;
  }
  bool array(JsonValue& out) {
    out.kind = JsonValue::kArray;
    ++p_;  // '['
    skip_ws();
    if (p_ < end_ && *p_ == ']') { ++p_; return true; }
    while (true) {
      JsonValue element;
      if (!value(element)) return false;
      out.array.push_back(std::move(element));
      skip_ws();
      if (p_ == end_) return false;
      if (*p_ == ',') { ++p_; continue; }
      if (*p_ == ']') { ++p_; return true; }
      return false;
    }
  }
  bool object(JsonValue& out) {
    out.kind = JsonValue::kObject;
    ++p_;  // '{'
    skip_ws();
    if (p_ < end_ && *p_ == '}') { ++p_; return true; }
    while (true) {
      skip_ws();
      std::string key;
      if (p_ == end_ || !string(key)) return false;
      skip_ws();
      if (p_ == end_ || *p_ != ':') return false;
      ++p_;
      JsonValue element;
      if (!value(element)) return false;
      out.object.emplace(std::move(key), std::move(element));
      skip_ws();
      if (p_ == end_) return false;
      if (*p_ == ',') { ++p_; continue; }
      if (*p_ == '}') { ++p_; return true; }
      return false;
    }
  }

  const char* p_;
  const char* end_;
};

// --- fixtures ---------------------------------------------------------------

struct TracedCluster {
  explicit TracedCluster(std::size_t nodes, SimDuration monitor_slo = {},
                         double run_seconds = 5.0, bool self_monitor = true) {
    core::ClusterConfig config;
    config.node_count = nodes;
    config.self_monitor = self_monitor;
    config.trace.enabled = true;
    if (monitor_slo > SimDuration::zero()) {
      config.trace.channel_slo.emplace_back(config.dmon.monitor_channel,
                                            monitor_slo);
    }
    cluster = std::make_unique<core::Cluster>(engine, config);
    cluster->start_dproc();
    engine.run_until(SimTime{} + seconds(run_seconds));
  }

  [[nodiscard]] std::vector<std::pair<int, const telemetry::Registry*>>
  registries() const {
    std::vector<std::pair<int, const telemetry::Registry*>> out;
    for (std::size_t i = 0; i < cluster->size(); ++i) {
      out.emplace_back(static_cast<int>(i), &cluster->host(i).telemetry());
    }
    return out;
  }

  /// Stage sets per trace id across every node's hop log.
  [[nodiscard]] std::map<std::uint64_t, std::set<HopStage>> stage_sets()
      const {
    std::map<std::uint64_t, std::set<HopStage>> out;
    for (const auto& [pid, registry] : registries()) {
      registry->hops().for_each([&out](const telemetry::Hop& hop) {
        out[hop.trace_id].insert(hop.stage);
      });
    }
    return out;
  }

  sim::Engine engine;
  std::unique_ptr<core::Cluster> cluster;
};

const std::set<HopStage> kFullMonitorChain{
    HopStage::kPublish, HopStage::kSubmit, HopStage::kArrive,
    HopStage::kDeliver, HopStage::kRender};

// --- tracing disabled (the default) -----------------------------------------

TEST(Tracing, OffByDefaultRecordsNothing) {
  sim::Engine engine;
  core::ClusterConfig config;
  config.node_count = 3;
  core::Cluster cluster{engine, config};
  cluster.start_dproc();
  engine.run_until(SimTime{} + seconds(3.0));
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    EXPECT_FALSE(cluster.host(i).telemetry().trace_enabled());
    EXPECT_EQ(cluster.host(i).telemetry().hops().size(), 0u);
  }
}

// --- causal-chain reconstruction --------------------------------------------

TEST(Tracing, EightNodeCausalChainReconstructs) {
  TracedCluster tc{8};

  // At least one trace id must cover the full monitoring pipeline.
  std::uint64_t full_id = 0;
  for (const auto& [id, stages] : tc.stage_sets()) {
    bool full = true;
    for (HopStage stage : kFullMonitorChain) full &= stages.contains(stage);
    if (full) { full_id = id; break; }
  }
  ASSERT_NE(full_id, 0u) << "no fully reconstructed causal chain";

  const auto chain = telemetry::collect_trace(tc.registries(), full_id);
  ASSERT_GE(chain.size(), kFullMonitorChain.size());

  // Virtual-clock timestamps along the chain never go backwards, stage
  // order is causal, durations are non-negative, and the chain actually
  // crosses nodes.
  std::int64_t prev_ts = 0;
  HopStage prev_stage = HopStage::kPublish;
  std::set<int> nodes;
  for (const auto& [hop, node] : chain) {
    EXPECT_GE(hop.ts_ns, prev_ts);
    EXPECT_GE(hop.stage, prev_stage);
    EXPECT_GE(hop.dur_ns, 0);
    prev_ts = hop.ts_ns;
    prev_stage = hop.stage;
    nodes.insert(node);
  }
  EXPECT_EQ(chain.front().first.stage, HopStage::kPublish);
  EXPECT_EQ(chain.front().first.dur_ns, 0);
  // Origin node is the high word of the id; publish happened there.
  EXPECT_EQ(chain.front().second, static_cast<int>(full_id >> 32));
  EXPECT_GE(nodes.size(), 2u);

  // In a quiet cluster every publisher's chains complete: most traced
  // events should reconstruct fully, not just one lucky sample.
  std::size_t full_chains = 0;
  for (const auto& [id, stages] : tc.stage_sets()) {
    bool full = true;
    for (HopStage stage : kFullMonitorChain) full &= stages.contains(stage);
    full_chains += full ? 1 : 0;
  }
  EXPECT_GT(full_chains, 10u);
}

TEST(Tracing, HopBreakdownCoversMonitoringPipeline) {
  TracedCluster tc{4};
  std::vector<const telemetry::Registry*> bare;
  for (const auto& [pid, registry] : tc.registries()) bare.push_back(registry);
  const auto rows = telemetry::hop_breakdown(bare);
  ASSERT_FALSE(rows.empty());

  const auto channels = tc.cluster->node(0).kecho->channels();
  std::uint32_t monitor_id = 0;
  for (const auto& [cid, name] : channels) {
    if (name == tc.cluster->config().dmon.monitor_channel) monitor_id = cid;
  }
  ASSERT_NE(monitor_id, 0u);

  std::set<HopStage> covered;
  for (const auto& row : rows) {
    if (row.channel != monitor_id) continue;
    EXPECT_GT(row.durations_us.count(), 0u);
    covered.insert(row.stage);
  }
  for (HopStage stage : kFullMonitorChain) {
    EXPECT_TRUE(covered.contains(stage))
        << "stage " << telemetry::to_string(stage) << " missing";
  }

  // The rendered table resolves channel names and prints every stage.
  const std::string table = telemetry::render_hop_breakdown(
      rows, [&channels](std::uint32_t id) -> std::string {
        for (const auto& [cid, name] : channels) {
          if (cid == id) return name;
        }
        return {};
      });
  EXPECT_NE(table.find("dproc.monitor"), std::string::npos);
  for (HopStage stage : kFullMonitorChain) {
    EXPECT_NE(table.find(telemetry::to_string(stage)), std::string::npos);
  }
}

// --- staleness SLO watchdog -------------------------------------------------

TEST(Tracing, SloWatchdogFlagsLateFeeds) {
  // Monitoring events wait up to a full poll period in the receiver's rx
  // queue, so a 1 ms end-to-end budget must be violated constantly. The
  // count is a fact of tracing, not a self-monitoring metric, so it must
  // hold with self-monitoring off too.
  for (const bool self_monitor : {true, false}) {
    SCOPED_TRACE(self_monitor ? "self_monitor on" : "self_monitor off");
    TracedCluster tc{4, milliseconds(1.0), 5.0, self_monitor};
    const auto& cluster = *tc.cluster;
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      total += tc.cluster->dmon(i)->slo_violations();
    }
    EXPECT_GT(total, 0u);

    // /proc/dproc/trace reports the same count.
    core::DMon& dmon = *tc.cluster->dmon(0);
    auto trace = tc.cluster->procfs(0).read("/proc/dproc/trace");
    ASSERT_TRUE(trace.is_ok());
    const std::string& text = trace.value();
    const std::string key = "\nslo_violations ";
    const std::size_t at = text.find(key);
    ASSERT_NE(at, std::string::npos) << text;
    EXPECT_GT(dmon.slo_violations(), 0u);
    EXPECT_EQ(std::stoull(text.substr(at + key.size())),
              dmon.slo_violations());

    // Every updating peer's feed is distrusted, and the health snapshot
    // says so too.
    bool any_checked = false;
    dmon.for_each_peer([&](net::NodeId node, const std::string&) {
      auto health = dmon.peer_health(node);
      ASSERT_TRUE(health.has_value());
      if (!health->has_data) return;
      EXPECT_FALSE(health->slo_ok);
      EXPECT_FALSE(dmon.feed_within_slo(node));
      any_checked = true;
    });
    EXPECT_TRUE(any_checked);
  }
}

TEST(Tracing, SloWatchdogQuietWithinBudget) {
  // A 10 s budget comfortably covers the 1 s poll period: no violations,
  // every feed trusted.
  TracedCluster tc{4, seconds(10.0)};
  for (std::size_t i = 0; i < tc.cluster->size(); ++i) {
    core::DMon& dmon = *tc.cluster->dmon(i);
    EXPECT_EQ(dmon.slo_violations(), 0u);
    dmon.for_each_peer([&](net::NodeId node, const std::string&) {
      EXPECT_TRUE(dmon.feed_within_slo(node));
    });
  }
}

TEST(Tracing, SmartPointerDistrustsSloBreachedFeed) {
  using namespace smartpointer;
  TracedCluster tc{3, milliseconds(1.0), 2.0};
  Server server{tc.cluster->host(0), tc.cluster->nic(0), tc.cluster->dmon(0),
                ServerConfig{}};
  server.start();
  ClientConfig config;
  config.mode = FilterMode::kDynamic;
  Client client{tc.cluster->host(1), tc.cluster->nic(1), 0, 9000, config};
  client.connect();
  tc.engine.run_until(tc.engine.now() + seconds(8.0));

  const Server::ClientState* state = server.client(1);
  ASSERT_NE(state, nullptr);
  EXPECT_GT(state->slo_distrusts, 0u);
  // The feed is alive (so no stale fallbacks), but steering dropped to the
  // conservative representation because its samples break the budget.
  EXPECT_EQ(state->stale_fallbacks, 0u);
  EXPECT_EQ(state->last_rep, ServerConfig{}.stale_fallback_rep);
}

TEST(Tracing, DecisionHopClosesChain) {
  using namespace smartpointer;
  TracedCluster tc{3, SimDuration::zero(), 2.0};
  Server server{tc.cluster->host(0), tc.cluster->nic(0), tc.cluster->dmon(0),
                ServerConfig{}};
  server.start();
  ClientConfig config;
  config.mode = FilterMode::kDynamic;
  Client client{tc.cluster->host(1), tc.cluster->nic(1), 0, 9000, config};
  client.connect();
  tc.engine.run_until(tc.engine.now() + seconds(8.0));

  // The server (node 0) stamped decision hops against the client's (node
  // 1's) monitoring feed.
  const telemetry::Registry& server_tm = tc.cluster->host(0).telemetry();
  std::uint64_t decided_id = 0;
  server_tm.hops().for_each([&decided_id](const telemetry::Hop& hop) {
    if (hop.stage == HopStage::kDecision && hop.origin == 1) {
      decided_id = hop.trace_id;
    }
  });
  ASSERT_NE(decided_id, 0u);
  EXPECT_EQ(decided_id >> 32, 1u);  // minted by the client's d-mon

  // That trace id covers the complete six-stage pipeline somewhere in the
  // cluster: publish/submit at the client, wire/deliver/render/decision at
  // the consumers.
  const auto stages = tc.stage_sets().at(decided_id);
  EXPECT_EQ(stages.size(), telemetry::kHopStageCount);
}

// --- Chrome trace export ----------------------------------------------------

TEST(Tracing, MergedChromeTraceIsValidAndStitched) {
  TracedCluster tc{4};
  const auto registries = tc.registries();
  const std::string json = telemetry::merge_chrome_trace(registries);

  JsonValue doc;
  ASSERT_TRUE(JsonParser{json}.parse(doc)) << "export is not valid JSON";
  const JsonValue* events = doc.get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, JsonValue::kArray);
  ASSERT_FALSE(events->array.empty());

  std::map<std::pair<int, int>, double> last_ts;             // per lane
  std::map<std::string, std::set<int>> flow_pids;            // per flow id
  std::map<std::string, std::size_t> flow_starts;
  std::map<int, std::set<std::string>> lane_names;           // per pid
  for (const JsonValue& event : events->array) {
    ASSERT_EQ(event.kind, JsonValue::kObject);
    const std::string ph = event.str("ph");
    const int pid = static_cast<int>(event.num("pid"));
    const int tid = static_cast<int>(event.num("tid"));
    ASSERT_FALSE(ph.empty());
    ASSERT_NE(event.get("name"), nullptr);
    if (ph == "M") {
      EXPECT_EQ(event.str("name"), "thread_name");
      lane_names[pid].insert(event.get("args")->str("name"));
      continue;
    }
    // Span and flow events appear in virtual-clock order within each lane.
    const double ts = event.num("ts");
    const auto lane = std::pair{pid, tid};
    if (auto it = last_ts.find(lane); it != last_ts.end()) {
      EXPECT_GE(ts, it->second) << "lane pid=" << pid << " tid=" << tid;
    }
    last_ts[lane] = ts;
    if (ph == "s" || ph == "t" || ph == "f") {
      const std::string id = event.str("id");
      ASSERT_EQ(id.rfind("0x", 0), 0u) << "flow id not hex: " << id;
      EXPECT_EQ(event.str("cat"), "trace");
      flow_pids[id].insert(pid);
      if (ph == "s") ++flow_starts[id];
      if (ph == "f") {
        EXPECT_EQ(event.str("bp"), "e");
      }
    } else {
      EXPECT_EQ(ph, "X");  // only complete spans besides flows + metadata
    }
  }

  // Each node lane names its subsystem threads, including the flow lane.
  ASSERT_EQ(lane_names.size(), tc.cluster->size());
  for (const auto& [pid, names] : lane_names) {
    EXPECT_TRUE(names.contains("trace")) << "pid " << pid;
    EXPECT_TRUE(names.contains("kecho") || names.contains("dmon"))
        << "pid " << pid;
  }

  // Flows: every id starts exactly once (one publish hop mints it), and
  // cross-node stitching happened — some flows span several pid lanes.
  ASSERT_FALSE(flow_pids.empty());
  for (const auto& [id, starts] : flow_starts) EXPECT_EQ(starts, 1u);
  std::size_t cross_node = 0;
  for (const auto& [id, pids] : flow_pids) {
    cross_node += pids.size() > 1 ? 1 : 0;
  }
  EXPECT_GT(cross_node, 0u);
}

}  // namespace
}  // namespace dproc
