// Cluster builder: assembles the full simulated testbed.
//
// Reproduces the paper's experimental platform by default: N nodes (the
// paper uses 8 Pentium Pro 200 MHz machines, 512 MB RAM, 512 KB cache) on
// switched 100 Mbps Fast Ethernet; the channel registry runs on node 0; an
// optional dual-switch topology puts a shared trunk between two node groups
// for the Figure 10/11 perturbation experiments.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dproc/core/dmon.hpp"
#include "dproc/core/hierarchy.hpp"
#include "dproc/host/host.hpp"
#include "dproc/kecho/node.hpp"
#include "dproc/kecho/registry.hpp"
#include "dproc/net/fabric.hpp"
#include "dproc/net/nic.hpp"
#include "dproc/procfs/procfs.hpp"
#include "dproc/sim/engine.hpp"
#include "dproc/sim/fault.hpp"

namespace dproc::core {

struct ClusterConfig {
  std::size_t node_count = 8;
  host::HostConfig host_template{};  // name field is overridden per node
  net::LinkConfig link{};
  DmonConfig dmon{};
  /// KECho liveness (heartbeats, eviction, registry retries). Disabled by
  /// default so baseline experiments are byte-identical to the
  /// failure-unaware stack; chaos tests turn it on.
  kecho::LivenessConfig liveness{};
  /// Registry replication + client-side channel cache. Disabled by default:
  /// one directory server on node 0, no replica traffic, no cache — the
  /// golden trace stays byte-identical. Enabled, replica r runs on node r
  /// (r < registry.replicas) and every kecho::Node gets the replica list
  /// and the lease-stamped cache.
  kecho::RegistryReplication registry{};
  std::uint64_t seed = 0x5eed;
  /// Node names; generated ("node0", ...) when empty. The paper's 3-node
  /// example uses {"alan", "maui", "etna"}.
  std::vector<std::string> node_names;
  /// Dual-switch topology: nodes [0, trunk_split) sit on switch A, the rest
  /// on switch B, with one full-duplex trunk between them. nullopt = single
  /// non-blocking switch (star).
  std::optional<std::size_t> trunk_split;
  net::LinkConfig trunk{};
  /// Which nodes run a d-mon: nullopt = all, empty list = none. The
  /// Figure 4/5 benches vary this count.
  std::optional<std::vector<std::size_t>> dproc_nodes;
  /// Replaces the standard module set when non-null (e.g. Figure 7's 5 KB
  /// synthetic events). Called once per dproc node.
  std::function<void(DMon&, host::Host&, net::Nic&)> module_factory;
  /// Self-monitoring: enables every host's telemetry registry, appends the
  /// DPROC_MON module on every dproc node (uniformly, preserving the
  /// cluster-wide metric-id convention), mirrors the registry server's op
  /// counters into node 0's telemetry, and installs a fabric trace hook
  /// attributing per-node packet sends/delivers/drops. Off by default: the
  /// golden trace and the baseline benchmarks are byte-identical without it.
  bool self_monitor = false;
  // Every d-mon reads trace, batch, adapt, hierarchy, health and sketch
  // from the builder's copy of this config; they are set nowhere else.
  /// Causal tracing + staleness SLO watchdog: enables every host's hop log
  /// and makes every d-mon publish trace contexts on the wire. Off by
  /// default for the same byte-identity reason as self_monitor.
  TraceConfig trace{};
  /// Batched per-period publishing, delta suppression and interest-scoped
  /// fan-out. Off by default for the same byte-identity reason.
  BatchConfig batch{};
  /// Self-adapting monitoring periods under an overhead budget. Off by
  /// default for the same byte-identity reason. Regions are built from the
  /// modules registered before start(); later registrations keep their
  /// static periods.
  AdaptConfig adapt{};
  /// Hierarchical aggregation overlay: zone aggregators, roll-up
  /// republish, drill-down. Off by default for the same byte-identity
  /// reason. The builder constructs one HierarchyLayout for the cluster
  /// and hands it to every d-mon. With the overlay on, peer declaration
  /// is zone-scoped (each node pre-declares only its zone mates; everyone
  /// else is learned lazily) instead of all-pairs.
  HierarchyConfig hierarchy{};
  /// Flight recorder: per-host structured event rings for post-mortem
  /// debugging. Off by default for the same byte-identity reason. Enabled,
  /// every host's recorder is configured and every kernel service records
  /// its state transitions; the fault injector records ground truth into
  /// every host's ring.
  telemetry::FlightConfig flight{};
  /// Cluster health engine: per-metric history rings, a per-node health
  /// score published as dproc_health_* metrics, and triggered incident
  /// bundles. Off by default for the same byte-identity reason. Implies
  /// self_monitor (the score is computed from telemetry counters).
  HealthConfig health{};
  /// Sketch-backed TOP_K monitoring: appends a constant-space per-PID
  /// heavy-hitter module on every dproc node and lets deployed filters use
  /// the sketch builtins (topk/topkid/cmlookup/skmerge). Off by default
  /// for the same byte-identity reason.
  SketchConfig sketch{};
};

/// One fully wired cluster node.
struct ClusterNode {
  std::unique_ptr<host::Host> host;
  std::unique_ptr<net::Nic> nic;
  std::unique_ptr<procfs::ProcFs> procfs;
  std::unique_ptr<kecho::Node> kecho;
  std::unique_ptr<DMon> dmon;  // null when this node does not run dproc
};

class Cluster {
 public:
  explicit Cluster(sim::Engine& engine, ClusterConfig config = {});
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Starts every d-mon and returns once they are scheduled; run the engine
  /// for a couple of simulated seconds to let channels establish.
  void start_dproc();

  [[nodiscard]] sim::Engine& engine() { return engine_; }
  [[nodiscard]] net::Fabric& fabric() { return *fabric_; }
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] ClusterNode& node(std::size_t i) { return nodes_.at(i); }
  [[nodiscard]] host::Host& host(std::size_t i) { return *nodes_.at(i).host; }
  [[nodiscard]] net::Nic& nic(std::size_t i) { return *nodes_.at(i).nic; }
  [[nodiscard]] DMon* dmon(std::size_t i) { return nodes_.at(i).dmon.get(); }
  [[nodiscard]] procfs::ProcFs& procfs(std::size_t i) {
    return *nodes_.at(i).procfs;
  }
  [[nodiscard]] const ClusterConfig& config() const { return config_; }
  /// The registry: the single server, or replica 0 when replicated.
  [[nodiscard]] kecho::RegistryServer& registry() {
    return registry_ ? *registry_ : *registry_replicas_.front();
  }
  /// Replicated-registry observability (valid when config().registry
  /// is enabled).
  [[nodiscard]] std::size_t registry_replica_count() const {
    return registry_ ? 1 : registry_replicas_.size();
  }
  [[nodiscard]] kecho::RegistryServer& registry_replica(std::size_t r) {
    return registry_ ? *registry_ : *registry_replicas_.at(r);
  }
  /// The replica currently claiming leadership (by its own lease view), or
  /// nullptr mid-failover / when no online replica claims the lease.
  [[nodiscard]] kecho::RegistryServer* registry_leader();

  /// Access links of node `i` in the fabric (both topologies): uplink
  /// carries its traffic toward the switch, downlink toward the node.
  [[nodiscard]] net::LinkId uplink(std::size_t i) const {
    return ports_.at(i).first;
  }
  [[nodiscard]] net::LinkId downlink(std::size_t i) const {
    return ports_.at(i).second;
  }

  // --- failure choreography ----------------------------------------------

  /// Fail-stop crash of node `i`: the fabric drops its packets, its d-mon
  /// stops polling, its kecho state is wiped.
  void crash_node(std::size_t i);
  /// Restart after crash_node: the kernel re-joins its channels and the
  /// d-mon resumes with empty caches.
  void restart_node(std::size_t i);
  /// Graceful departure: announces kMemberLeave (node stays powered so the
  /// announcement and its retries actually leave the NIC).
  void leave_node(std::size_t i);

  /// Hooks binding the sim-layer fault injector to this cluster's fabric,
  /// registry, and node lifecycle.
  [[nodiscard]] sim::FaultHooks fault_hooks();
  /// Schedules a fault plan against this cluster; returns the injector for
  /// observation. Repeated calls compose onto the same injector.
  sim::FaultInjector& inject(const sim::FaultPlan& plan);
  [[nodiscard]] sim::FaultInjector* injector() { return injector_.get(); }

  /// Registers the standard module set (CPU, MEM, DISK, NET, PMC) on one
  /// node's d-mon; the builder calls this for every dproc node.
  static void register_standard_modules(DMon& dmon, host::Host& host,
                                        net::Nic& nic,
                                        double link_capacity_bps);

 private:
  sim::Engine& engine_;
  ClusterConfig config_;  // every d-mon reads its features from here
  /// The zone tree, when the overlay is on. Declared before nodes_ so it
  /// outlives every d-mon that points at it.
  std::optional<HierarchyLayout> layout_;
  std::unique_ptr<net::Fabric> fabric_;
  std::unique_ptr<kecho::RegistryServer> registry_;  // single-server mode
  /// Replica r on node r (replicated mode; registry_ is null then).
  std::vector<std::unique_ptr<kecho::RegistryServer>> registry_replicas_;
  std::vector<ClusterNode> nodes_;
  std::vector<std::pair<net::LinkId, net::LinkId>> ports_;  // per-node
  std::unique_ptr<sim::FaultInjector> injector_;
};

}  // namespace dproc::core
