#include "dproc/core/hierarchy.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace dproc::core {

std::vector<std::uint32_t> HierarchyLayout::duty_zones(std::size_t node) const {
  std::vector<std::uint32_t> duties;
  for (const HierarchyZone& zone : zones_) {
    if (std::find(zone.candidates.begin(), zone.candidates.end(), node) !=
        zone.candidates.end()) {
      duties.push_back(zone.id);
    }
  }
  // Zones are built leaf tier first, so duties come out leaf-first already.
  return duties;
}

std::optional<std::size_t> HierarchyLayout::acting(
    const HierarchyZone& zone,
    const std::function<bool(std::size_t)>& alive) const {
  for (std::size_t candidate : zone.candidates) {
    if (alive(candidate)) return candidate;
  }
  return std::nullopt;
}

HierarchyLayout build_hierarchy(std::size_t node_count,
                                const HierarchyConfig& config) {
  if (node_count == 0) throw std::invalid_argument{"hierarchy needs nodes"};
  if (config.zone_size == 0 || config.fanout < 2) {
    throw std::invalid_argument{"hierarchy needs zone_size >= 1, fanout >= 2"};
  }
  HierarchyLayout layout;
  layout.node_count_ = node_count;
  layout.leaf_of_.resize(node_count);

  // Tier 0: consecutive slices of zone_size nodes.
  std::vector<std::uint32_t> tier;  // zone ids of the tier being grouped
  for (std::size_t first = 0; first < node_count;
       first += config.zone_size) {
    HierarchyZone zone;
    zone.id = static_cast<std::uint32_t>(layout.zones_.size());
    zone.tier = 0;
    zone.name = "t0.z" + std::to_string(tier.size());
    zone.first_node = first;
    zone.node_count = std::min(config.zone_size, node_count - first);
    for (std::size_t i = 0; i < zone.node_count; ++i) {
      zone.members.push_back(first + i);
      layout.leaf_of_[first + i] = zone.id;
    }
    zone.candidates = zone.members;
    tier.push_back(zone.id);
    layout.zones_.push_back(std::move(zone));
  }

  // Upper tiers: group `fanout` consecutive zones until one root remains.
  std::uint32_t tier_index = 1;
  while (tier.size() > 1) {
    std::vector<std::uint32_t> next;
    for (std::size_t first = 0; first < tier.size();
         first += config.fanout) {
      const std::size_t group =
          std::min(config.fanout, tier.size() - first);
      HierarchyZone zone;
      zone.id = static_cast<std::uint32_t>(layout.zones_.size());
      zone.tier = tier_index;
      zone.name = "t" + std::to_string(tier_index) + ".z" +
                  std::to_string(next.size());
      for (std::size_t i = 0; i < group; ++i) {
        const std::uint32_t child = tier[first + i];
        zone.children.push_back(child);
        layout.zones_[child].parent = zone.id;
      }
      const HierarchyZone& first_child = layout.zones_[zone.children.front()];
      const HierarchyZone& last_child = layout.zones_[zone.children.back()];
      zone.first_node = first_child.first_node;
      zone.node_count = last_child.first_node + last_child.node_count -
                        first_child.first_node;
      // The leftmost leaf's members take the duty: one failover rule (leaf
      // membership order) covers every tier, and a node's duties follow it
      // up the tree.
      zone.candidates = first_child.candidates;
      next.push_back(zone.id);
      layout.zones_.push_back(std::move(zone));
    }
    tier = std::move(next);
    ++tier_index;
  }
  layout.root_ = tier.front();
  return layout;
}

void ZoneRollup::update_origin(std::uint32_t origin,
                               const net::MonitorBatch& batch, SimTime now) {
  OriginState& state = origins_[origin];
  state.last_update = now;
  for (const net::MonitorBatch::Entry& e : batch.entries) {
    if (e.id >= state.values.size()) {
      state.values.resize(e.id + 1, 0.0);
      state.sampled_ns.resize(e.id + 1, 0);
      state.valid.resize(e.id + 1, 0);
    }
    state.values[e.id] = e.value;
    state.sampled_ns[e.id] = e.sampled_ns;
    state.valid[e.id] = 1;
  }
}

void ZoneRollup::update_child(const net::AggregateBatch& batch, SimTime now) {
  ChildState& state = children_[batch.zone];
  state.last_update = now;
  state.batch = batch;
}

void ZoneRollup::forget_origin(std::uint32_t origin) {
  origins_.erase(origin);
}

void ZoneRollup::clear() {
  origins_.clear();
  children_.clear();
}

namespace {

using Agg = net::AggregateBatch;

/// Merges `top` (descending) with one more candidate, keeping at most k.
void push_top(std::vector<Agg::Top>& top, std::uint8_t k, std::uint32_t node,
              double value) {
  if (k == 0) return;
  auto pos = std::find_if(top.begin(), top.end(), [value](const Agg::Top& t) {
    return value > t.value;
  });
  if (pos == top.end() && top.size() >= k) return;
  top.insert(pos, Agg::Top{node, value});
  if (top.size() > k) top.pop_back();
}

}  // namespace

bool ZoneRollup::build(net::AggregateBatch& out, const RollupSpec& spec,
                       SimTime now, SimDuration horizon) const {
  const std::uint8_t k = std::min(spec.top_k, Agg::kMaxTopK);
  out.entries.clear();
  // Statistics a parent may emit: what the spec asks for, intersected with
  // what every fresh child actually carried.
  std::uint8_t flags = spec.flags();

  // Keyed by metric id so entries come out ascending.
  std::map<std::uint32_t, Agg::Entry> merged;

  for (const auto& [origin, state] : origins_) {
    if (now - state.last_update > horizon) continue;
    for (std::size_t id = 0; id < state.valid.size(); ++id) {
      if (state.valid[id] == 0) continue;
      const double value = state.values[id];
      auto [it, created] = merged.try_emplace(static_cast<std::uint32_t>(id));
      Agg::Entry& e = it->second;
      if (created) {
        e.id = static_cast<std::uint32_t>(id);
        e.min = std::numeric_limits<double>::infinity();
        e.max = -std::numeric_limits<double>::infinity();
      }
      ++e.count;
      e.sum += value;
      e.min = std::min(e.min, value);
      e.max = std::max(e.max, value);
      e.latest_ns = std::max(e.latest_ns, state.sampled_ns[id]);
      push_top(e.top, k, origin, value);
    }
  }

  for (const auto& [zone, state] : children_) {
    if (now - state.last_update > horizon) continue;
    flags &= static_cast<std::uint8_t>(state.batch.flags | ~Agg::kKnownFlags);
    for (const Agg::Entry& child : state.batch.entries) {
      auto [it, created] = merged.try_emplace(child.id);
      Agg::Entry& e = it->second;
      if (created) {
        e.id = child.id;
        e.min = std::numeric_limits<double>::infinity();
        e.max = -std::numeric_limits<double>::infinity();
      }
      e.count += child.count;
      e.sum += child.sum;
      e.min = std::min(e.min, child.min);
      e.max = std::max(e.max, child.max);
      e.latest_ns = std::max(e.latest_ns, child.latest_ns);
      for (const Agg::Top& t : child.top) push_top(e.top, k, t.node, t.value);
    }
  }

  if (merged.empty()) return false;
  out.flags = flags;
  out.entries.reserve(merged.size());
  for (auto& [id, entry] : merged) out.entries.push_back(std::move(entry));
  return true;
}

}  // namespace dproc::core
