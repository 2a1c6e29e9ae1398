// d-mon: the distributed monitor coordinator (one per kernel).
//
// Responsibilities, mirroring §2 of the paper:
//  * joins the cluster's monitoring and control KECho channels;
//  * maintains a registry of monitoring modules and polls them each period
//    through their callbacks;
//  * applies the publisher tuning (parameters, differential filter, E-code
//    filters) and submits the surviving samples, grouped per module into
//    50–100 byte events;
//  * drains incoming events at each poll: monitoring events update the
//    /proc/cluster/<node>/... pseudo-files, control events retune this
//    publisher (including dynamic filter compilation);
//  * exposes everything through procfs, including a `control` file per
//    remote node used to deploy parameters and filters there.
// With a zone layout, publication goes through the d-mon's private zone
// overlay (src/core/overlay.hpp) instead of the flat monitoring channel.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dproc/core/adapt.hpp"
#include "dproc/core/health.hpp"
#include "dproc/core/monitors.hpp"
#include "dproc/core/tuning.hpp"
#include "dproc/kecho/node.hpp"
#include "dproc/procfs/procfs.hpp"
#include "dproc/util/stats.hpp"

namespace dproc::core {

/// Calibration knobs for kernel-path costs that are not already covered by
/// the KECho cost model. Values are cycles on the reference 200 MHz CPU;
/// EXPERIMENTS.md discusses the calibration against the paper's figures.
struct OverheadModel {
  double collect_cycles_per_module = 2500;
  double procfs_update_cycles_per_event = 2500;
  double control_apply_cycles = 20000;
  double filter_compile_cycles_per_byte = 400;  // dynamic code generation
  double filter_exec_cycles_per_insn = 8;
  /// Indirect perturbation per event (cache pollution, softirq work,
  /// deferred bookkeeping). Charged to the kernel class but *outside* the
  /// rdtsc-measured submit/receive windows, like the real costs it models.
  double collateral_cycles_per_event = 40000;
};

/// Causal tracing and the staleness SLO watchdog. Disabled by default:
/// no trace context is appended to frames (byte-identical wire format),
/// no hops are recorded, and the watchdog never fires — the golden trace
/// and the benchmarks are untouched.
struct TraceConfig {
  bool enabled = false;
  /// End-to-end staleness budget (publish stamp → render at the consumer)
  /// for channels without an explicit entry. Zero disables the watchdog
  /// for such channels.
  SimDuration default_slo = SimDuration::zero();
  /// Per-channel-name budget overrides, e.g. {"dproc.monitor", 250 ms}.
  std::vector<std::pair<std::string, SimDuration>> channel_slo;

  [[nodiscard]] SimDuration slo_for(const std::string& channel) const {
    for (const auto& [name, budget] : channel_slo) {
      if (name == channel) return budget;
    }
    return default_slo;
  }
};

/// Per-period batch publishing, delta suppression and interest-scoped
/// fan-out. Everything defaults off: the wire format, the golden trace and
/// the baseline benchmarks are byte-identical to per-module publishing.
struct BatchConfig {
  /// Coalesce every module's post-filter samples into one MonitorBatch
  /// frame per poll period — one KECho submit (base cost, frame header,
  /// trace trailer) instead of one per module.
  bool enabled = false;
  /// Delta suppression: a batch entry whose value moved by no more than
  /// epsilon since this publisher last sent it is skipped. Negative
  /// disables. Only applies when `enabled`.
  double delta_epsilon = -1.0;
  /// Every Nth batch is a keyframe carrying all post-filter samples
  /// regardless of delta suppression, so restarted peers (whose caches are
  /// empty) converge within N periods. Values <= 1 make every batch a
  /// keyframe. Only meaningful with delta suppression on.
  int keyframe_every = 10;
  /// Honour peers' declared per-module interest sets (declare_interest):
  /// each channel member receives only the modules it registered for, via
  /// KECho's per-member payload selection — a node that only reads
  /// /proc/cluster/<n>/cpu never receives DISK/NET bytes. Peers that never
  /// declared anything receive the full batch. Only applies when `enabled`.
  bool interest = false;
};

/// Sketch-backed top-k support (off by default: filters using the sketch
/// builtins are rejected at compile time, no sketch state exists, and the
/// golden trace is byte-identical). When enabled, d-mon accepts the sketch
/// builtins in deployed filters and binds the first registered
/// TopKMonitor's sketch as their host; later TopKMonitors become auxiliary
/// sketches addressable via skmerge(i).
struct SketchConfig {
  bool enabled = false;
};

/// The d-mon's own cadence, channels and cost model. The opt-in features
/// (trace, batch, adapt, hierarchy, health, sketch) are set once, on
/// ClusterConfig, and every d-mon reads them from there.
struct DmonConfig {
  SimDuration poll_period = seconds(1.0);
  std::string monitor_channel = "dproc.monitor";
  std::string control_channel = "dproc.control";
  OverheadModel overheads{};
  /// A peer's feed is flagged stale after this many poll periods without a
  /// monitoring update (graceful degradation under churn and partitions).
  int stale_after_periods = 3;
};

struct ClusterConfig;  // cluster.hpp
class HierarchyLayout;  // hierarchy.hpp

/// Degradation state of one peer's monitoring feed, derived from update
/// recency and KECho membership events:
///  * kLive  — updating within the staleness horizon;
///  * kStale — silent past stale_after_periods poll periods, but not (yet)
///             evicted: consumers should distrust the cached values;
///  * kDead  — evicted from the monitoring channel (or never known).
enum class PeerState : std::uint8_t { kLive, kStale, kDead };
[[nodiscard]] const char* to_string(PeerState state);

struct PeerHealth {
  PeerState state = PeerState::kDead;
  SimTime last_update;    // last monitoring event from the peer
  bool has_data = false;  // any update since this d-mon (re)started
  /// False while the feed has a staleness-SLO violation inside the
  /// staleness horizon; consumers should distrust the cached values.
  bool slo_ok = true;
};

/// Per-poll measurements (what the paper's rdtsc instrumentation reports).
struct PollRecord {
  SimDuration submit_cost{0};
  SimDuration receive_cost{0};
  std::size_t events_submitted = 0;
  std::size_t events_received = 0;
  std::uint64_t filter_instructions = 0;
  /// Samples actually published this period (post-filter, post-delta).
  std::size_t samples_published = 0;
  /// Batch entries skipped by delta suppression this period.
  std::size_t delta_suppressed = 0;
  /// The batch published this period carried the keyframe flag.
  bool keyframe = false;
};

/// Contiguous metric-id range owned by one monitoring module.
struct MetricRange {
  MetricId first = 0;
  std::size_t count = 0;
};

/// Partitions `sorted` (ascending metric id) into one group per range
/// (`groups` is reset to ranges.size() entries). A sample whose id falls
/// outside every range — a stale or never-registered id emitted by a
/// filter — is grouped nowhere: it must not ride along in a neighbouring
/// module's frame under the wrong module. Returns the stray count.
/// `ranges` must be ascending and disjoint (d-mon's are contiguous from 0).
std::size_t group_by_range(const std::vector<MetricSample>& sorted,
                           const std::vector<MetricRange>& ranges,
                           std::vector<std::vector<MetricSample>>& groups);

class DMon {
 public:
  /// `config` is the cluster builder's copy and outlives the d-mon; `layout`
  /// is the cluster-wide zone tree when the overlay is on, null when flat.
  DMon(host::Host& host, net::Nic& nic, kecho::Node& kecho,
       procfs::ProcFs& procfs, const ClusterConfig& config,
       const HierarchyLayout* layout);
  ~DMon();
  DMon(const DMon&) = delete;
  DMon& operator=(const DMon&) = delete;

  /// Registers a monitoring module (before or after start()); assigns
  /// cluster-convention metric ids, creates the local pseudo-files and adds
  /// the metrics' files to every peer's /proc/cluster/<name>/ directory.
  void register_module(std::unique_ptr<MonitoringModule> module);

  /// Declares a peer node: binds /proc/cluster/<name>/ to the peer shape
  /// (metric files, status, and the control file through which
  /// applications retune that node), keyed by the peer's node id.
  void add_peer(net::NodeId node, const std::string& name);

  /// Joins the channels and starts the periodic polling loop.
  void start();
  void stop();

  /// Restart after a crash: clears every peer's cached data and health
  /// (a rebooted monitor has no memory of the old values) and starts the
  /// polling loop again. The kecho node must have been restart()ed first.
  void restart();

  /// One polling iteration (normally driven by the internal timer; exposed
  /// for tests and microbenchmarks).
  PollRecord poll();

  // --- observation ------------------------------------------------------

  [[nodiscard]] const PollRecord& last_poll() const { return last_poll_; }
  [[nodiscard]] const StreamingStats& submit_cost_us() const {
    return submit_cost_us_;
  }
  [[nodiscard]] const StreamingStats& receive_cost_us() const {
    return receive_cost_us_;
  }
  [[nodiscard]] PublisherTuning& tuning() { return *tuning_; }
  [[nodiscard]] const std::vector<MetricDesc>& metric_table() const {
    return metric_table_;
  }
  [[nodiscard]] std::optional<MetricId> metric_id(const std::string& key) const;

  /// The node's current simulated time (for staleness checks).
  [[nodiscard]] SimTime host_now() const { return host_.engine().now(); }

  /// This node's latest locally collected value for a metric.
  [[nodiscard]] const MetricSample* local_metric(MetricId id) const {
    if (id >= last_collected_.size()) return nullptr;
    return &last_collected_[id];
  }

  /// Visits every declared peer: fn(node, name).
  template <typename Fn>
  void for_each_peer(Fn&& fn) const {
    for (const auto& [node, peer] : peers_) fn(node, peer.name);
  }

  /// Observer invoked after each poll's collection phase with the full
  /// local sample vector (history recorders, QoS managers, ...).
  using SampleObserver =
      std::function<void(const std::vector<MetricSample>&, SimTime)>;
  void add_sample_observer(SampleObserver observer) {
    sample_observers_.push_back(std::move(observer));
  }

  /// Health of a declared peer's feed; nullopt for undeclared peers.
  [[nodiscard]] std::optional<PeerHealth> peer_health(net::NodeId node) const;
  /// Convenience: kDead for undeclared peers.
  [[nodiscard]] PeerState peer_state(net::NodeId node) const;

  /// SLO watchdog verdict on a peer's monitoring feed: false while the
  /// peer has an end-to-end staleness violation within the staleness
  /// horizon (sticky so one late burst keeps the feed distrusted until
  /// fresh in-budget updates age it out). Undeclared peers report true —
  /// distrust for *missing* data is peer_state()'s job.
  [[nodiscard]] bool feed_within_slo(net::NodeId node) const;
  /// End-to-end violations the watchdog has flagged on this consumer.
  [[nodiscard]] std::uint64_t slo_violations() const {
    return tm_slo_violations_.value();
  }

  /// KECho channel id of the monitoring channel (0 before start()); trace
  /// consumers use it to stamp decision hops on the right channel.
  [[nodiscard]] kecho::ChannelId monitor_channel_id() const {
    return monitor_channel_ != nullptr ? monitor_channel_->id() : 0;
  }

  /// Latest value received from a peer, if any.
  [[nodiscard]] const RemoteMetric* remote_metric(net::NodeId node,
                                                  MetricId id) const;
  /// Convenience: remote metric by key.
  [[nodiscard]] const RemoteMetric* remote_metric(net::NodeId node,
                                                  const std::string& key) const;

  /// Applies a tuning request locally, as if it had arrived on the control
  /// channel (used by tests and by the node's own applications).
  Status apply_tuning(const TuningConfig& config);

  /// Sends a tuning request to a peer over the control channel.
  Status send_tuning(net::NodeId target, const TuningConfig& config);

  [[nodiscard]] const std::string& last_control_error() const {
    return last_control_error_;
  }

  /// The period-adaptation controller; nullptr until start() with
  /// ClusterConfig::adapt.enabled.
  [[nodiscard]] PeriodController* adaptation() { return adapter_.get(); }
  [[nodiscard]] const PeriodController* adaptation() const {
    return adapter_.get();
  }

  /// The health engine; nullptr unless ClusterConfig::health.enabled.
  [[nodiscard]] HealthEngine* health_engine() { return health_.get(); }
  [[nodiscard]] const HealthEngine* health_engine() const {
    return health_.get();
  }

  /// Health-score trust verdict on a peer: false when the peer's published
  /// dproc_health_score (its own self-assessment, received over the
  /// monitoring channel) sits below the configured trust threshold. True
  /// with the health engine off, for undeclared peers, and before the
  /// first score arrives — missing data is peer_state()'s job.
  [[nodiscard]] bool peer_health_ok(net::NodeId node) const;

  // --- interest-scoped fan-out -------------------------------------------

  /// Broadcasts this node's module interest set on the control channel:
  /// publishers running with BatchConfig::interest then send this node only
  /// the listed modules' samples. An empty list restores the default
  /// (interested in everything). The declaration is remembered and
  /// re-broadcast whenever a new peer joins, so publishers that come up
  /// later converge without application help. Also writable as module names
  /// through /proc/dproc/interest ("all" clears).
  Status declare_interest(std::vector<std::string> modules);

  /// Publisher-side view: interest sets peers have declared to us.
  [[nodiscard]] const std::map<net::NodeId, std::vector<std::string>>&
  peer_interests() const {
    return peer_interests_;
  }

  // --- zone overlay (forwarders to the private overlay) -------------------

  /// True when this node runs the zone overlay (layout set, after start()).
  [[nodiscard]] bool hierarchy_active() const;

  /// Latest root summary this node received (or built, at the acting
  /// root); nullptr before the first summary or with the overlay off.
  [[nodiscard]] const net::AggregateBatch* cluster_summary() const;
  [[nodiscard]] SimTime cluster_summary_at() const;

  /// The acting aggregator this node currently derives for a zone: the
  /// first election candidate not believed dead by the local membership
  /// view. nullopt off-hierarchy or when every candidate is down.
  [[nodiscard]] std::optional<std::size_t> zone_acting(
      std::uint32_t zone_id) const;

  /// Drill-down: temporarily pull `target`'s raw feed through the tree
  /// (enable), or cancel the pull. The subscription rides the summary
  /// channel, is re-announced every poll while active, and expires at the
  /// aggregators drill_ttl_periods after the last refresh — so a crashed
  /// requester's drill ages out on its own. Requires summary membership.
  Status drill_down(net::NodeId target, bool enable);

  // --- error / savings accounting (read from the host registry) ---------

  /// Module collections dropped for returning the wrong sample count.
  [[nodiscard]] std::uint64_t collect_errors() const {
    return tm_collect_errors_.value();
  }
  /// Publish-ready samples whose id fit no registered module range.
  [[nodiscard]] std::uint64_t stray_samples() const {
    return tm_stray_samples_.value();
  }
  /// Wire bytes avoided by interest-filtered fan-out versus sending every
  /// member the full batch frame.
  [[nodiscard]] std::uint64_t interest_bytes_saved() const {
    return tm_bytes_saved_.value();
  }
  /// Batch entries skipped by delta suppression since start.
  [[nodiscard]] std::uint64_t delta_suppressed_total() const {
    return tm_batch_delta_suppressed_.value();
  }

 private:
  /// The zone overlay (overlay.hpp): zone duties, roll-ups, drill-down and
  /// the election view. Built by start() when a layout is set.
  class Overlay;

  struct ModuleEntry {
    std::unique_ptr<MonitoringModule> module;
    MetricId first_id = 0;
    std::size_t metric_count = 0;
  };
  struct Peer {
    std::string name;
    std::vector<RemoteMetric> metrics;  // indexed by metric id
    SimTime declared_at;   // staleness basis until the first update
    SimTime last_update;   // last monitoring event received
    bool has_data = false;
    bool dead = false;     // evicted from the monitoring channel
    bool slo_violated = false;     // any SLO violation observed yet
    SimTime last_slo_violation;    // most recent violation (watchdog)
    /// Last state the flight recorder saw; transitions are recorded at
    /// each poll's liveness scan (kPeerLive/kPeerStale/kPeerDead).
    PeerState last_state = PeerState::kLive;
  };

  void join_monitor_channel();
  void join_control_channel();
  void warn_malformed(const char* what, const kecho::Event& event) const;
  void on_monitor_event(const kecho::Event& event);
  void on_control_event(const kecho::Event& event);
  /// Stores a peer's interest declaration (control-channel kOpInterest).
  void on_interest_event(const kecho::Event& event, net::ByteReader& r);
  /// Legacy per-module publication (one frame per module with samples).
  void submit_per_module(const std::vector<MetricSample>& sorted,
                         PollRecord& record);
  /// Batched publication: one MonitorBatch frame per period, with delta
  /// suppression, keyframes and (optionally) interest-filtered fan-out.
  void submit_batch(std::vector<MetricSample>& sorted, PollRecord& record);
  /// Builds this period's publish batch (stray removal, keyframe phase,
  /// delta suppression) into `batch`, updating the published-value cache
  /// and the record; false when nothing survives (no frame goes out).
  bool build_publish_batch(std::vector<MetricSample>& sorted,
                           PollRecord& record, net::MonitorBatch& batch);
  /// Counts one published batch frame.
  void count_batch(const net::MonitorBatch& batch, const PollRecord& record);

  /// Looks up (or lazily declares, from the fabric name table) a peer and
  /// marks it alive: any event is a sign of life, so the staleness clock
  /// restarts and a possibly spurious eviction is cleared.
  Peer& touch_peer(net::NodeId origin);
  void apply_batch_to_peer(Peer& peer, const net::MonitorBatch& batch,
                           std::uint64_t trace_id);
  /// Charges one received event's procfs update to the kernel and to this
  /// poll's receive cost.
  void charge_receive();
  /// Re-sends the local interest declaration (no-op before the control
  /// channel is ready; errors are ignored — the next join retries).
  void broadcast_interest();
  /// Counts samples outside every registered range; warns on first sight.
  void note_strays(std::size_t count);
  /// Allocates the next publish-side trace context (publish hop stamped),
  /// or returns an invalid one (an untraced submit) when tracing is off.
  [[nodiscard]] net::TraceContext begin_trace(kecho::ChannelId channel);
  /// Stamps the render hop for a delivered traced event and runs the
  /// staleness-SLO watchdog against `slo_channel`'s budget.
  void note_render(const kecho::Event& event, const std::string& slo_channel,
                   Peer* peer);
  void on_membership(kecho::MemberEventKind kind, net::NodeId node);
  /// How long a silent feed stays live: stale_after_periods poll periods.
  [[nodiscard]] SimDuration stale_horizon() const;
  [[nodiscard]] PeerState state_of(const Peer& peer) const;
  /// /proc/<metric path> for this node and <metric path> in the peer shape.
  void register_metric_files(const ModuleEntry& entry);
  void rebuild_tuning();
  void charge(double cycles);
  /// Tail of every poll(): accumulates this poll's kernel cost into the
  /// adaptation window and, at interval boundaries, runs one controller
  /// round and applies the resulting adaptive periods.
  void run_adaptation(SimDuration kernel_before);
  /// Per-poll liveness scan: records peer state transitions into the
  /// flight recorder and, with the health engine on, feeds it the
  /// staleness census for this round.
  void scan_peer_health(SimTime now);

  host::Host& host_;
  net::Nic& nic_;
  kecho::Node& kecho_;
  procfs::ProcFs& procfs_;
  const ClusterConfig& config_;
  const HierarchyLayout* layout_;  // null: flat
  std::unique_ptr<Overlay> overlay_;

  std::vector<ModuleEntry> modules_;
  std::vector<MetricDesc> metric_table_;
  std::map<std::string, MetricId> metric_ids_;
  std::vector<MetricSample> last_collected_;  // local values, id order

  std::unique_ptr<PublisherTuning> tuning_;
  std::map<net::NodeId, Peer> peers_;
  /// The contents of every /proc/cluster/<peer>/ directory: one file per
  /// metric plus status and control, each handler keyed by the node id.
  procfs::ProcFs::Shape peer_shape_;

  /// Bridge from the first TopKMonitor's sketch to the filter VM
  /// (ClusterConfig::sketch; additional TopKMonitors register as
  /// auxiliaries).
  std::unique_ptr<FilterSketchBridge> sketch_bridge_;

  // --- health engine (ClusterConfig::health; see health.hpp) -------------
  std::unique_ptr<HealthEngine> health_;
  /// Cached metric id of the peers' published health score (resolved on
  /// first use; nullopt until DPROC_MON registers with health metrics).
  mutable std::optional<MetricId> health_score_id_;

  // --- period adaptation (ClusterConfig::adapt; see adapt.hpp) -----------
  std::unique_ptr<PeriodController> adapter_;
  int adapt_poll_count_ = 0;            // polls since the last round
  SimDuration adapt_window_cost_{0};    // kernel cost over those polls

  kecho::Channel* monitor_channel_ = nullptr;
  kecho::Channel* control_channel_ = nullptr;
  sim::EventHandle poll_timer_;
  bool started_ = false;

  // Costs accumulated by event handlers during the current kecho.poll().
  SimDuration handler_cost_{0};

  std::uint32_t trace_seq_ = 0;  // per-node trace-id sequence

  // --- batching state ----------------------------------------------------
  /// Last value this publisher sent per metric id (delta suppression and
  /// the adaptation controller's accuracy baseline; see adapt.hpp).
  std::vector<PublishedState> last_published_;
  /// Next batch must be a keyframe regardless of phase: set on any
  /// effective-period change (control write or adaptation round) so
  /// delta-suppressed subscribers re-anchor instead of decoding against a
  /// stale baseline until the next scheduled keyframe.
  bool force_keyframe_ = false;
  std::uint64_t batch_seq_ = 0;  // batches submitted; phase for keyframes
  /// Module ranges in id order (mirror of modules_, for grouping).
  std::vector<MetricRange> module_ranges_;
  std::vector<std::vector<MetricSample>> groups_scratch_;
  /// Interest sets declared *by* peers (publisher side), sorted + deduped.
  std::map<net::NodeId, std::vector<std::string>> peer_interests_;
  /// Interest this node declared (subscriber side); re-broadcast on joins.
  std::vector<std::string> local_interest_;
  bool interest_declared_ = false;
  bool warned_strays_ = false;

  // --- receive/encode scratch, reused across periods so the steady state
  // --- allocates nothing (see perf_regression_test) ----------------------
  net::MonitorBatch rx_batch_;        // incoming raw feeds (both halves)
  net::MonitorBatch batch_scratch_;   // this period's outgoing batch
  net::MonitorBatch filtered_scratch_;  // interest-filtered variant
  /// Per-distinct-interest-set frame cache (cleared, capacity kept).
  std::vector<std::pair<const std::vector<std::string>*, net::MessagePtr>>
      interest_cache_;

  std::vector<SampleObserver> sample_observers_;
  PollRecord last_poll_;
  StreamingStats submit_cost_us_;
  StreamingStats receive_cost_us_;
  std::string last_control_error_;

  /// Instruments resolved once from the host registry at construction.
  /// Counters and gauges always count; latency recorders sample only while
  /// telemetry is enabled.
  telemetry::Counter& tm_polls_;
  telemetry::Counter& tm_events_submitted_;
  telemetry::Counter& tm_events_received_;
  telemetry::Counter& tm_suppressed_;
  telemetry::Counter& tm_filter_compiles_;
  telemetry::Counter& tm_filter_insns_;
  telemetry::Counter& tm_slo_violations_;
  telemetry::Counter& tm_collect_errors_;
  telemetry::Counter& tm_stray_samples_;
  telemetry::Counter& tm_batch_submits_;
  telemetry::Counter& tm_batch_samples_;
  telemetry::Counter& tm_batch_delta_suppressed_;
  telemetry::Counter& tm_batch_keyframes_;
  telemetry::Counter& tm_bytes_saved_;
  telemetry::Counter& tm_adapt_rounds_;
  telemetry::Counter& tm_adapt_changes_;
  telemetry::Gauge& tm_adapt_overhead_;
  telemetry::LatencyRecorder& tm_poll_us_;
  telemetry::LatencyRecorder& tm_submit_us_;
  telemetry::LatencyRecorder& tm_receive_us_;
};

}  // namespace dproc::core
