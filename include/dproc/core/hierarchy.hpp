// Hierarchical aggregation overlay: zone partitioning and roll-up state.
//
// The flat monitoring channel has every node publishing to every subscriber,
// so fabric traffic and /proc/cluster state grow O(N²) with cluster size.
// The overlay partitions the cluster into leaf zones of consecutive nodes;
// each zone elects an aggregator that folds its members' raw MonitorBatch
// feeds into one compact per-metric AggregateBatch and republishes it to the
// parent tier, recursively, until a single root summary reaches the
// subscribers. Election is deterministic: every zone carries an ordered
// candidate list, the first live candidate acts, and everyone (leaves,
// standby candidates, parents) derives the same answer from the shared
// membership view — no election protocol on the wire.
//
// This header holds the pure parts — the layout builder and the roll-up
// state machines — so they are unit-testable without a cluster; the d-mon's
// private overlay (src/core/overlay.hpp) wires them to channels, procfs and
// the drill-down protocol.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "dproc/net/wire.hpp"
#include "dproc/util/time.hpp"

namespace dproc::core {

/// Which statistics a zone's AggregateBatch entries carry; one spec serves
/// every zone. Count and the newest sample time always ride.
struct RollupSpec {
  bool min = true;
  bool max = true;
  bool mean = true;
  /// Per-metric top-k list of (origin node, value), descending by value;
  /// 0 disables, capped at net::AggregateBatch::kMaxTopK.
  std::uint8_t top_k = 0;

  [[nodiscard]] std::uint8_t flags() const {
    std::uint8_t f = 0;
    if (min) f |= net::AggregateBatch::kFlagMin;
    if (max) f |= net::AggregateBatch::kFlagMax;
    if (mean) f |= net::AggregateBatch::kFlagMean;
    if (top_k > 0) f |= net::AggregateBatch::kFlagTopK;
    return f;
  }
};

/// The zone/tree overlay configuration. Off by default: with
/// `enabled == false` nothing joins zone channels, no aggregate frames
/// exist on the wire and the stack is byte-identical to the flat topology
/// (the golden-trace test pins this).
struct HierarchyConfig {
  bool enabled = false;
  /// Leaf zone width: consecutive node indices [k*zone_size, ...) form
  /// zone k. The first member is the configured aggregator, the rest the
  /// deterministic fallback order.
  std::size_t zone_size = 8;
  /// Child zones per upper-tier group; tiers are added until one root
  /// zone covers the cluster.
  std::size_t fanout = 8;
  /// Statistics rolled up on every zone channel.
  RollupSpec rollup{};
  /// A drill-down subscription expires this many poll periods after its
  /// last refresh (the requester re-sends every poll while active).
  int drill_ttl_periods = 30;
  /// Nodes that subscribe to the root summary (and keep a control-channel
  /// membership). nullopt = every node subscribes — fine for small
  /// clusters, ruinous at thousands of nodes.
  std::optional<std::vector<std::size_t>> subscribers;
  /// Declare each node's zone mates as peers (procfs files for their raw
  /// feeds). Benches at thousands of nodes turn this off; peers are then
  /// learned lazily from the first raw batch an aggregator receives.
  bool declare_zone_peers = true;
};

/// One zone of the overlay. Leaf zones (tier 0) own consecutive node
/// indices; upper tiers group `fanout` child zones. `candidates` is the
/// aggregator election order: for a leaf zone its members, for an upper
/// zone the members of the leftmost leaf in its subtree — so failover
/// needs only leaf membership knowledge and a node's duties follow it up
/// the tree.
struct HierarchyZone {
  std::uint32_t id = 0;      // index into HierarchyLayout::zones()
  std::uint32_t tier = 0;    // 0 = leaf
  std::string name;          // "t<tier>.z<index within tier>"
  std::optional<std::uint32_t> parent;
  std::vector<std::uint32_t> children;   // zone ids, tier > 0 only
  std::vector<std::size_t> members;      // node indices, tier 0 only
  std::vector<std::size_t> candidates;   // election priority order
  std::size_t first_node = 0;            // subtree covers [first, first+count)
  std::size_t node_count = 0;

  [[nodiscard]] bool contains(std::size_t node) const {
    return node >= first_node && node < first_node + node_count;
  }
};

class HierarchyLayout {
 public:
  [[nodiscard]] const std::vector<HierarchyZone>& zones() const {
    return zones_;
  }
  [[nodiscard]] const HierarchyZone& zone(std::uint32_t id) const {
    return zones_.at(id);
  }
  [[nodiscard]] const HierarchyZone& root() const { return zones_.at(root_); }
  [[nodiscard]] std::size_t node_count() const { return node_count_; }
  [[nodiscard]] std::uint32_t tiers() const { return root().tier + 1; }

  /// The leaf zone a node belongs to.
  [[nodiscard]] const HierarchyZone& leaf_of(std::size_t node) const {
    return zones_.at(leaf_of_.at(node));
  }

  /// Zones for which `node` is an election candidate, leaf first.
  [[nodiscard]] std::vector<std::uint32_t> duty_zones(std::size_t node) const;

  /// The acting aggregator of a zone: the first candidate `alive` accepts.
  /// nullopt when every candidate is down.
  [[nodiscard]] std::optional<std::size_t> acting(
      const HierarchyZone& zone,
      const std::function<bool(std::size_t)>& alive) const;

 private:
  friend HierarchyLayout build_hierarchy(std::size_t node_count,
                                         const HierarchyConfig& config);
  std::vector<HierarchyZone> zones_;
  std::vector<std::uint32_t> leaf_of_;  // node index -> leaf zone id
  std::uint32_t root_ = 0;
  std::size_t node_count_ = 0;
};

/// Builds the zone tree for `node_count` nodes: ceil(N / zone_size) leaf
/// zones of consecutive nodes, grouped `fanout` at a time per tier until a
/// single root remains. Deterministic for a given (node_count, config).
[[nodiscard]] HierarchyLayout build_hierarchy(std::size_t node_count,
                                              const HierarchyConfig& config);

/// Roll-up state machine of one zone, maintained by its aggregator
/// candidates. A leaf aggregator folds raw MonitorBatch feeds per origin
/// node; an upper-tier aggregator folds child AggregateBatch frames keyed
/// by child zone id (overwrite semantics — a re-elected child aggregator
/// republishing the same zone never double-counts). build() emits only
/// contributions fresher than the staleness horizon, so a crashed origin
/// or child silently ages out of the summary.
class ZoneRollup {
 public:
  /// Leaf tier: latest value per (origin, metric id).
  void update_origin(std::uint32_t origin, const net::MonitorBatch& batch,
                     SimTime now);
  /// Upper tiers: latest AggregateBatch per child zone.
  void update_child(const net::AggregateBatch& batch, SimTime now);
  /// Forgets one origin (leaf tier, after an eviction).
  void forget_origin(std::uint32_t origin);

  /// Builds the zone's outgoing aggregate into `out` (entries in ascending
  /// metric id), folding every origin/child heard within `horizon` of
  /// `now`. The emitted flags are `spec`'s statistics intersected with what
  /// every contributing child actually carried (a parent cannot invent a
  /// min its children never sent). Returns false when nothing is fresh.
  bool build(net::AggregateBatch& out, const RollupSpec& spec, SimTime now,
             SimDuration horizon) const;

  [[nodiscard]] std::size_t origin_count() const { return origins_.size(); }
  [[nodiscard]] std::size_t child_count() const { return children_.size(); }
  void clear();

 private:
  struct OriginState {
    SimTime last_update;
    // Indexed by metric id; parallel valid flags (dense, ids are small).
    std::vector<double> values;
    std::vector<std::int64_t> sampled_ns;
    std::vector<std::uint8_t> valid;
  };
  struct ChildState {
    SimTime last_update;
    net::AggregateBatch batch;
  };

  std::map<std::uint32_t, OriginState> origins_;
  std::map<std::uint32_t, ChildState> children_;
};

}  // namespace dproc::core
