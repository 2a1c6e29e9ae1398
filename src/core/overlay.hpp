// The zone overlay: the private half of a d-mon running on a hierarchy
// layout (see hierarchy.hpp for the layout and roll-up state machines).
//
// DMon::start() builds one Overlay when the cluster has a zone layout, and
// restart() drops it, so a rebooted monitor keeps no roll-up, drill or
// election memory. The overlay owns this node's zone duties (roll-up state,
// zone channels, drill-down routing), the membership view the deterministic
// election runs against, the root summary, and the overlay's procfs files and
// hier/* counters. Being nested in DMon, it reaches the d-mon's peer store,
// publish batch and trace hooks directly; the d-mon calls it only from
// start(), its membership listener, the summary channel's overlay opcodes and
// poll().
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "dproc/core/dmon.hpp"
#include "dproc/core/hierarchy.hpp"
#include "dproc/net/wire.hpp"

namespace dproc::core {

// First byte of every d-mon frame.
constexpr std::uint8_t kOpMonitor = 1;       // per-module samples (legacy)
constexpr std::uint8_t kOpControl = 2;       // tuning request
constexpr std::uint8_t kOpMonitorBatch = 3;  // MonitorBatch
constexpr std::uint8_t kOpInterest = 4;      // module interest declaration
// Zone overlay only:
constexpr std::uint8_t kOpAggregate = 5;     // zone roll-up, tier-up
constexpr std::uint8_t kOpDrillRequest = 6;  // drill subscription, tier-down
constexpr std::uint8_t kOpDrillData = 7;     // drilled raw batch, tier-up

inline net::MessagePtr encode_batch_event(const net::MonitorBatch& batch) {
  net::ByteWriter w;
  w.reserve(1 + batch.encoded_bytes());
  w.u8(kOpMonitorBatch);
  batch.encode(w);
  return net::make_message(w.take());
}

class DMon::Overlay {
 public:
  /// Joins the summary, control and zone channels this node's duties need,
  /// resolves the hier/* counters and registers /proc/dproc/{hierarchy,
  /// drilldown} and the roll-up and zone files.
  Overlay(DMon& dmon, const HierarchyLayout& layout);
  Overlay(const Overlay&) = delete;
  Overlay& operator=(const Overlay&) = delete;

  /// Keeps the election view: every candidate derives the acting aggregator
  /// from the same membership events, so leaves, standbys and parents
  /// converge on one answer without a protocol.
  void on_membership(kecho::MemberEventKind kind, net::NodeId node);
  /// Handles an overlay opcode arriving on the summary channel; false for
  /// any other opcode.
  bool on_summary_event(std::uint8_t op, net::ByteReader& r,
                        const kecho::Event& event);
  /// The overlay's share of a poll: leaf publish, drill pruning, roll-ups
  /// and the drill re-announce. `sorted` is ascending by metric id.
  void poll(std::vector<MetricSample>& sorted, PollRecord& record);

  [[nodiscard]] const net::AggregateBatch* summary() const {
    return summary_valid_ ? &summary_ : nullptr;
  }
  [[nodiscard]] SimTime summary_at() const { return summary_at_; }
  [[nodiscard]] std::optional<std::size_t> acting(std::uint32_t zone_id) const;
  Status drill_down(net::NodeId target, bool enable);

 private:
  /// Aggregator duty for one zone this node is an election candidate for.
  /// Every node has at least its leaf-zone duty (leaf candidates are the
  /// zone members); standby candidates keep the state warm so failover
  /// needs no handoff protocol.
  struct ZoneDuty {
    const HierarchyZone* zone = nullptr;
    ZoneRollup rollup;
    kecho::Channel* channel = nullptr;         // channel(zone)
    kecho::Channel* parent_channel = nullptr;  // channel(parent)/summary
    /// Drill-down routing state: target -> (requester -> expiry).
    std::map<net::NodeId, std::map<net::NodeId, SimTime>> drills;
    /// Latest aggregate this node built for the zone (procfs rendering).
    net::AggregateBatch last_built;
    SimTime last_built_at;
    bool last_built_valid = false;
  };
  struct DrillRequest {
    net::NodeId requester = 0;
    net::NodeId target = 0;
    bool enable = false;
    SimTime expiry;
  };
  /// Frames and bytes through one tier of the tree, one direction.
  struct Flow {
    telemetry::Counter* events = nullptr;
    telemetry::Counter* bytes = nullptr;
    void add(std::size_t frame_bytes) {
      events->add();
      bytes->add(frame_bytes);
    }
  };

  [[nodiscard]] bool alive(std::size_t node) const;
  [[nodiscard]] ZoneDuty* duty_of(std::uint32_t zone_id);
  kecho::Channel* join_zone_channel(std::uint32_t zone_id);
  void register_files();
  void on_zone_event(std::uint32_t zone_id, const kecho::Event& event);
  /// A drill request's body (root intake and downward relay alike).
  [[nodiscard]] std::optional<DrillRequest> decode_drill_request(
      net::ByteReader& r) const;
  [[nodiscard]] std::uint32_t drill_ttl() const;
  [[nodiscard]] SimTime drill_expiry(std::uint32_t ttl_periods) const;
  /// Leaf publication into the zone aggregator — a single-member submit,
  /// or a local fold (no wire frame) when this node is itself acting.
  void submit_leaf(std::vector<MetricSample>& sorted, PollRecord& record);
  /// Builds and republishes every acting zone's roll-up to the parent tier
  /// (the root's goes to the summary channel).
  void publish_rollups(PollRecord& record);
  /// Records a drill subscription on `duty` and propagates it down the
  /// tree (wire to remote child candidates, directly to own child duties).
  void apply_drill(ZoneDuty& duty, const DrillRequest& request);
  /// Requester side: (re-)announces a drill on the summary channel and
  /// applies it locally when this node is itself a root candidate.
  void send_drill_request(net::NodeId target, bool enable);
  /// Forwards a drilled origin's raw batch one hop up the acting chain, or
  /// to the requesters at the root; encodes only when a frame goes out.
  void send_drill_up(ZoneDuty& duty, net::NodeId origin,
                     const net::MonitorBatch& batch, PollRecord* record);
  /// Leaf capture: forwards `batch` as drill data if `origin` is drilled.
  void maybe_forward_drill(ZoneDuty& leaf, net::NodeId origin,
                           const net::MonitorBatch& batch, PollRecord* record);
  void prune_drills(SimTime now);

  DMon& dmon_;
  const HierarchyLayout& layout_;
  std::vector<ZoneDuty> duties_;  // leaf duty first
  /// Nodes this d-mon believes dead (membership evictions/leaves) — the
  /// local view the election runs against.
  std::set<std::size_t> dead_;
  std::set<net::NodeId> local_drills_;  // requester-side drill targets
  net::AggregateBatch summary_;         // latest root summary
  SimTime summary_at_;
  bool summary_valid_ = false;
  net::AggregateBatch agg_scratch_;  // outgoing roll-up
  net::AggregateBatch agg_rx_;       // incoming roll-up

  /// Per-tier overlay telemetry, indexed by the publishing zone's tier.
  std::vector<Flow> tx_;
  std::vector<Flow> rx_;
  telemetry::Counter& tm_rollups_;
  telemetry::Counter& tm_drill_requests_;
  telemetry::Counter& tm_drill_data_;
};

}  // namespace dproc::core
