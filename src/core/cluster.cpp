#include "dproc/core/cluster.hpp"

#include <cstdint>
#include <stdexcept>

namespace dproc::core {

namespace {
/// Flight events each host's recorder retains.
constexpr std::size_t kFlightEventsPerHost = 1024;
// The stock per-PID TOP_K module: ranks it publishes and refreshes for
// topk()/topkid(), its entity population and the skew of its deterministic
// per-PID load. Its sketch takes the default SketchParams.
constexpr std::size_t kTopKRanks = 8;
constexpr std::size_t kTopKProcesses = 1000;
constexpr double kTopKZipfS = 1.2;
}  // namespace

Cluster::Cluster(sim::Engine& engine, ClusterConfig config)
    : engine_(engine), config_(std::move(config)) {
  if (config_.node_count == 0) {
    throw std::invalid_argument{"cluster needs at least one node"};
  }
  // The health engine reads failure-signal counters and publishes its score
  // through DPROC_MON, both of which need per-host telemetry.
  if (config_.health.enabled) config_.self_monitor = true;
  fabric_ = std::make_unique<net::Fabric>(engine_);
  Rng master{config_.seed};

  std::vector<net::NodeId> node_ids;
  node_ids.reserve(config_.node_count);
  for (std::size_t i = 0; i < config_.node_count; ++i) {
    std::string name = i < config_.node_names.size()
                           ? config_.node_names[i]
                           : "node" + std::to_string(i);
    node_ids.push_back(fabric_->add_node(name));
  }

  // Topology.
  if (!config_.trunk_split) {
    ports_ = fabric_->build_star(node_ids, config_.link);
  } else {
    const std::size_t split = *config_.trunk_split;
    if (split == 0 || split >= config_.node_count) {
      throw std::invalid_argument{"trunk_split must divide the nodes"};
    }
    // Per-node access links plus one full-duplex trunk between switches.
    std::vector<std::pair<net::LinkId, net::LinkId>> ports;
    ports.reserve(node_ids.size());
    for (net::NodeId id : node_ids) {
      (void)id;
      ports.emplace_back(fabric_->add_link(config_.link),
                         fabric_->add_link(config_.link));
    }
    const net::LinkId trunk_ab = fabric_->add_link(config_.trunk);
    const net::LinkId trunk_ba = fabric_->add_link(config_.trunk);
    for (std::size_t i = 0; i < node_ids.size(); ++i) {
      for (std::size_t j = 0; j < node_ids.size(); ++j) {
        if (i == j) continue;
        std::vector<net::LinkId> route{ports[i].first};
        const bool i_in_a = i < split, j_in_a = j < split;
        if (i_in_a && !j_in_a) route.push_back(trunk_ab);
        if (!i_in_a && j_in_a) route.push_back(trunk_ba);
        route.push_back(ports[j].second);
        fabric_->set_route(node_ids[i], node_ids[j], std::move(route));
      }
    }
    ports_ = std::move(ports);
  }

  // Hosts, NICs, pseudo-filesystems.
  nodes_.resize(config_.node_count);
  for (std::size_t i = 0; i < config_.node_count; ++i) {
    ClusterNode& node = nodes_[i];
    host::HostConfig host_config = config_.host_template;
    host_config.name = fabric_->node_name(node_ids[i]);
    node.host = std::make_unique<host::Host>(
        engine_, static_cast<host::HostId>(i), host_config, master.split());
    if (config_.self_monitor) node.host->telemetry().set_enabled(true);
    if (config_.trace.enabled) node.host->telemetry().set_trace_enabled(true);
    if (config_.flight.enabled) {
      node.host->flight().configure(kFlightEventsPerHost);
      node.host->flight().set_enabled(true);
    }
    node.nic = std::make_unique<net::Nic>(*fabric_, node_ids[i]);
    node.procfs = std::make_unique<procfs::ProcFs>();
  }

  // Channel registry on node 0 (the paper's user-level directory server),
  // or a replica set on nodes 0..R-1 when replication is enabled.
  std::vector<net::NodeId> registry_replica_nodes;
  if (config_.registry.enabled) {
    const std::size_t replica_count =
        std::min(std::max<std::size_t>(config_.registry.replicas, 1),
                 config_.node_count);
    registry_replica_nodes.reserve(replica_count);
    for (std::size_t r = 0; r < replica_count; ++r) {
      registry_replica_nodes.push_back(node_ids[r]);
    }
    registry_replicas_.reserve(replica_count);
    for (std::size_t r = 0; r < replica_count; ++r) {
      registry_replicas_.push_back(std::make_unique<kecho::RegistryServer>(
          *nodes_[r].nic,
          kecho::ReplicaSetup{static_cast<std::uint32_t>(r),
                              registry_replica_nodes, config_.registry}));
      if (config_.self_monitor) {
        registry_replicas_[r]->set_telemetry(&nodes_[r].host->telemetry());
      }
      if (config_.flight.enabled) {
        registry_replicas_[r]->set_flight(&nodes_[r].host->flight());
      }
    }
  } else {
    registry_ = std::make_unique<kecho::RegistryServer>(*nodes_[0].nic);
    if (config_.flight.enabled) registry_->set_flight(&nodes_[0].host->flight());
  }
  if (config_.self_monitor) {
    if (registry_) registry_->set_telemetry(&nodes_[0].host->telemetry());

    // Per-node packet accounting piggybacked on the fabric trace hook.
    // Handles are pre-resolved: the hook runs once per packet event and
    // must stay allocation-free. NodeIds are dense fabric indices.
    struct NetCounters {
      telemetry::Counter* sends;
      telemetry::Counter* delivers;
      telemetry::Counter* drops;
    };
    auto counters = std::make_shared<std::vector<NetCounters>>();
    counters->reserve(nodes_.size());
    for (ClusterNode& node : nodes_) {
      telemetry::Registry& t = node.host->telemetry();
      counters->push_back(NetCounters{&t.counter("net", "sends"),
                                      &t.counter("net", "delivers"),
                                      &t.counter("net", "drops")});
    }
    fabric_->set_trace_hook([counters](net::Fabric::TraceEvent event,
                                       net::DropCause, const net::Packet& p,
                                       SimTime) {
      switch (event) {
        case net::Fabric::TraceEvent::kSend:
          (*counters)[p.src].sends->add();
          break;
        case net::Fabric::TraceEvent::kDeliver:
          (*counters)[p.dst].delivers->add();
          break;
        case net::Fabric::TraceEvent::kDrop:
          // Drops are charged to the sender: the destination never saw the
          // packet, and the sender's stream is the one being thinned.
          (*counters)[p.src].drops->add();
          break;
      }
    });
  }

  // KECho endpoints and d-mons.
  std::vector<bool> runs_dproc(config_.node_count,
                               !config_.dproc_nodes.has_value());
  if (config_.dproc_nodes) {
    for (std::size_t i : *config_.dproc_nodes) runs_dproc.at(i) = true;
  }

  // One layout for every d-mon: the zone tree is a pure function of
  // (node_count, hierarchy config), so all nodes agree on it without a
  // topology protocol, and every node is inside it.
  if (config_.hierarchy.enabled) {
    layout_ = build_hierarchy(config_.node_count, config_.hierarchy);
  }
  const HierarchyLayout* layout = layout_ ? &*layout_ : nullptr;

  kecho::RegistryClientConfig registry_client;
  if (config_.registry.enabled) {
    registry_client.replicas = registry_replica_nodes;
    registry_client.cache = config_.registry.client_cache;
    registry_client.cache_lease = config_.registry.cache_lease;
  }

  for (std::size_t i = 0; i < config_.node_count; ++i) {
    ClusterNode& node = nodes_[i];
    node.kecho = std::make_unique<kecho::Node>(
        *node.host, *node.nic, node_ids[0], kecho::RegistryServer::kDefaultPort,
        kecho::KechoCosts{}, config_.liveness, registry_client);
    if (!runs_dproc[i]) continue;
    node.dmon = std::make_unique<DMon>(*node.host, *node.nic, *node.kecho,
                                       *node.procfs, config_, layout);
    if (config_.module_factory) {
      config_.module_factory(*node.dmon, *node.host, *node.nic);
    } else {
      register_standard_modules(*node.dmon, *node.host, *node.nic,
                                config_.link.bandwidth_bps);
    }
    // TOP_K rides after the standard/custom set on every dproc node, so
    // its metric ids are uniform cluster-wide; its sketch also becomes the
    // node's filter sketch host (first TopKMonitor registered).
    if (config_.sketch.enabled) {
      auto topk = make_topk_process_monitor(kTopKRanks, kTopKProcesses,
                                            kTopKZipfS,
                                            config_.seed ^ (0x70cbULL + i));
      node.dmon->register_module(std::move(topk));
    }
    // Appended last on every dproc node so the cluster-wide metric-id
    // convention holds for the self-monitoring metrics too.
    if (config_.self_monitor) {
      node.dmon->register_module(std::make_unique<DprocMonitor>(
          *node.host, config_.health.enabled));
    }
  }

  // Peer pre-declaration (names + control files). Flat clusters declare
  // all pairs — O(N^2) state, fine at the paper's 8-node scale. With the
  // hierarchy on, each node pre-declares only its leaf-zone mates (or
  // nothing when declare_zone_peers is off); everyone else is learned
  // lazily from the fabric name table on first contact, keeping per-node
  // state O(zone) at 4096-node scale.
  if (layout != nullptr) {
    if (config_.hierarchy.declare_zone_peers) {
      for (std::size_t i = 0; i < config_.node_count; ++i) {
        if (!nodes_[i].dmon) continue;
        for (std::size_t j : layout->leaf_of(i).members) {
          if (i == j) continue;
          nodes_[i].dmon->add_peer(node_ids[j],
                                   fabric_->node_name(node_ids[j]));
        }
      }
    }
  } else {
    for (std::size_t i = 0; i < config_.node_count; ++i) {
      if (!nodes_[i].dmon) continue;
      for (std::size_t j = 0; j < config_.node_count; ++j) {
        if (i == j) continue;
        nodes_[i].dmon->add_peer(node_ids[j], fabric_->node_name(node_ids[j]));
      }
    }
  }
}

void Cluster::register_standard_modules(DMon& dmon, host::Host& host,
                                        net::Nic& nic,
                                        double link_capacity_bps) {
  // Experiment-friendly CPU_MON window: the paper notes the 1-minute
  // default is too sluggish for fast-changing load, and its experiments
  // rely on prompt load visibility.
  dmon.register_module(std::make_unique<CpuMonitor>(host, seconds(5.0)));
  dmon.register_module(std::make_unique<MemMonitor>(host));
  dmon.register_module(std::make_unique<DiskMonitor>(host));
  dmon.register_module(
      std::make_unique<NetMonitor>(host, nic, link_capacity_bps));
  dmon.register_module(std::make_unique<PmcMonitor>(
      host, std::vector<std::string>{host::Pmc::kCacheMisses}));
}

void Cluster::start_dproc() {
  for (ClusterNode& node : nodes_) {
    if (node.dmon) node.dmon->start();
  }
}

kecho::RegistryServer* Cluster::registry_leader() {
  if (registry_) return registry_.get();
  for (auto& replica : registry_replicas_) {
    if (replica->online() && replica->is_leader()) return replica.get();
  }
  return nullptr;
}

void Cluster::crash_node(std::size_t i) {
  ClusterNode& node = nodes_.at(i);
  fabric_->set_node_down(node.nic->node(), true);
  if (node.dmon) node.dmon->stop();
  node.kecho->crash();
  // A crashed node takes its registry replica down with it: the replica
  // process stops serving (and heartbeating) until the node restarts.
  if (i < registry_replicas_.size()) registry_replicas_[i]->set_online(false);
}

void Cluster::restart_node(std::size_t i) {
  ClusterNode& node = nodes_.at(i);
  fabric_->set_node_down(node.nic->node(), false);
  if (i < registry_replicas_.size()) registry_replicas_[i]->set_online(true);
  node.kecho->restart();
  if (node.dmon) node.dmon->restart();
}

void Cluster::leave_node(std::size_t i) {
  ClusterNode& node = nodes_.at(i);
  if (node.dmon) node.dmon->stop();
  node.kecho->announce_leave();
}

sim::FaultHooks Cluster::fault_hooks() {
  sim::FaultHooks hooks;
  hooks.node_down = [this](std::uint32_t node, bool down) {
    if (down) {
      crash_node(node);
    } else {
      restart_node(node);
    }
  };
  hooks.link_down = [this](std::uint32_t link, bool down) {
    fabric_->set_link_down(link, down);
  };
  hooks.link_loss = [this](std::uint32_t link, double p, std::uint64_t seed) {
    fabric_->set_link_loss(link, p, seed);
  };
  hooks.registry_down = [this](bool down) {
    // A registry outage takes the whole directory service down — every
    // replica at once (the single-server semantic, preserved).
    if (registry_) {
      registry_->set_online(!down);
    } else {
      for (auto& replica : registry_replicas_) replica->set_online(!down);
    }
  };
  hooks.record = [this](const sim::FaultEvent& event) {
    // Ground truth goes to EVERY host's recorder: the injector's view of
    // what actually happened must survive any single node's crash, and the
    // incident tool dedups the cluster-wide copies back into one event.
    std::uint64_t mapped = UINT64_MAX;
    switch (event.kind) {
      case sim::FaultKind::kLinkDown:
      case sim::FaultKind::kLinkUp:
      case sim::FaultKind::kLinkLossStart:
      case sim::FaultKind::kLinkLossStop:
        // An access link implicates the node behind it; trunk links map to
        // no single node and stay UINT64_MAX.
        for (std::size_t i = 0; i < ports_.size(); ++i) {
          if (ports_[i].first == event.target ||
              ports_[i].second == event.target) {
            mapped = i;
            break;
          }
        }
        break;
      default:
        break;
    }
    const auto severity = event.kind == sim::FaultKind::kNodeRestart ||
                                  event.kind == sim::FaultKind::kLinkUp ||
                                  event.kind == sim::FaultKind::kLinkLossStop ||
                                  event.kind == sim::FaultKind::kRegistryUp
                              ? telemetry::Severity::kInfo
                              : telemetry::Severity::kError;
    for (ClusterNode& node : nodes_) {
      node.host->flight().record(
          severity, telemetry::FlightSubsystem::kFault,
          telemetry::FlightCode::kFaultInjected,
          static_cast<std::uint64_t>(event.kind), event.target,
          static_cast<std::uint64_t>(event.param * 1e6), mapped);
    }
  };
  hooks.registry_leader_kill = [this] {
    if (registry_replicas_.empty()) return;  // needs a replica set
    // Resolve the leader at fire time; fall back to replica 0 (the birth
    // leader) if no replica currently claims the lease.
    std::size_t target = 0;
    for (std::size_t r = 0; r < registry_replicas_.size(); ++r) {
      if (registry_replicas_[r]->online() &&
          registry_replicas_[r]->is_leader()) {
        target = r;
        break;
      }
    }
    crash_node(target);
  };
  return hooks;
}

sim::FaultInjector& Cluster::inject(const sim::FaultPlan& plan) {
  if (!injector_) {
    injector_ = std::make_unique<sim::FaultInjector>(engine_, fault_hooks());
  }
  injector_->schedule(plan);
  return *injector_;
}

}  // namespace dproc::core
