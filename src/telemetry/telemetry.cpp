#include "dproc/telemetry/telemetry.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iomanip>
#include <set>
#include <sstream>

namespace dproc::telemetry {

namespace {

std::string full_name(const std::string& subsystem, const std::string& name) {
  return subsystem + "/" + name;
}

/// Lane reserved for flow events stitched from the hop log; span categories
/// take tids 1..N in sorted order, so the trace lane sits above them all.
constexpr int kFlowLaneTid = 0;

/// Stable per-subsystem tids for one registry's export: distinct span
/// categories sorted by name, tids assigned 1..N. The same category set
/// always yields the same lane layout, so merged traces from repeated runs
/// line up.
std::vector<std::pair<std::string, int>> category_lanes(
    const Registry& registry) {
  std::set<std::string> categories;
  registry.spans().for_each(
      [&categories](const Span& span) { categories.insert(span.category); });
  std::vector<std::pair<std::string, int>> lanes;
  lanes.reserve(categories.size());
  int tid = 1;
  for (const std::string& category : categories) {
    lanes.emplace_back(category, tid++);
  }
  return lanes;
}

int lane_of(const std::vector<std::pair<std::string, int>>& lanes,
            const char* category) {
  for (const auto& [name, tid] : lanes) {
    if (name == category) return tid;
  }
  return kFlowLaneTid;
}

/// trace_event strings are instrument/category names (ASCII identifiers),
/// but escape defensively so a stray quote cannot corrupt the document.
void append_json_string(std::string& out, const char* s) {
  out += '"';
  for (const char* p = s; *p != '\0'; ++p) {
    switch (*p) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += *p; break;
    }
  }
  out += '"';
}

void append_complete_event(std::string& out, const Span& span, int pid,
                           int tid, bool& first) {
  if (!first) out += ",\n";
  first = false;
  out += R"({"name":)";
  append_json_string(out, span.name);
  out += R"(,"cat":)";
  append_json_string(out, span.category);
  // Chrome trace timestamps are microseconds; keep ns precision as decimals.
  out += R"(,"ph":"X","ts":)";
  out += std::to_string(static_cast<double>(span.start_ns) / 1000.0);
  out += R"(,"dur":)";
  out +=
      std::to_string(static_cast<double>(span.end_ns - span.start_ns) / 1000.0);
  out += R"(,"pid":)";
  out += std::to_string(pid);
  out += R"(,"tid":)";
  out += std::to_string(tid);
  out += '}';
}

void append_thread_name_event(std::string& out, int pid, int tid,
                              const std::string& name, bool& first) {
  if (!first) out += ",\n";
  first = false;
  out += R"({"name":"thread_name","ph":"M","pid":)";
  out += std::to_string(pid);
  out += R"(,"tid":)";
  out += std::to_string(tid);
  out += R"(,"args":{"name":)";
  append_json_string(out, name.c_str());
  out += "}}";
}

/// One hop as a Chrome flow event. A publish hop starts the flow ("s"), a
/// decision hop finishes it ("f", binding to the enclosing slice), every
/// hop in between is a step ("t"); Chrome stitches them across pid lanes by
/// the shared id.
void append_flow_event(std::string& out, const Hop& hop, int pid,
                       bool& first) {
  const char* phase = "t";
  if (hop.stage == HopStage::kPublish) phase = "s";
  if (hop.stage == HopStage::kDecision) phase = "f";
  if (!first) out += ",\n";
  first = false;
  char id_hex[24];
  std::snprintf(id_hex, sizeof id_hex, "0x%llx",
                static_cast<unsigned long long>(hop.trace_id));
  out += R"({"name":"chan)";
  out += std::to_string(hop.channel);
  out += R"(","cat":"trace","ph":")";
  out += phase;
  out += R"(","id":")";
  out += id_hex;
  out += R"(","ts":)";
  out += std::to_string(static_cast<double>(hop.ts_ns) / 1000.0);
  out += R"(,"pid":)";
  out += std::to_string(pid);
  out += R"(,"tid":)";
  out += std::to_string(kFlowLaneTid);
  if (hop.stage == HopStage::kDecision) out += R"(,"bp":"e")";
  out += R"(,"args":{"stage":")";
  out += to_string(hop.stage);
  out += R"(","dur_us":)";
  out += std::to_string(static_cast<double>(hop.dur_ns) / 1000.0);
  out += "}}";
}

}  // namespace

const char* to_string(HopStage stage) {
  switch (stage) {
    case HopStage::kPublish: return "publish";
    case HopStage::kSubmit: return "submit";
    case HopStage::kArrive: return "wire";
    case HopStage::kDeliver: return "deliver";
    case HopStage::kRender: return "render";
    case HopStage::kDecision: return "decision";
  }
  return "?";
}

Registry::Registry(std::size_t span_capacity, std::size_t hop_capacity)
    : spans_(std::max<std::size_t>(span_capacity, 1)),
      hops_(std::max<std::size_t>(hop_capacity, 1)) {}

void Registry::set_enabled(bool enabled) {
  enabled_ = enabled;
  if (enabled) spans_.reserve();
}

void Registry::set_trace_enabled(bool enabled) {
  trace_enabled_ = enabled;
  if (enabled) hops_.reserve();
}

Counter& Registry::counter(const std::string& subsystem,
                           const std::string& name) {
  return counters_[full_name(subsystem, name)];
}

Gauge& Registry::gauge(const std::string& subsystem, const std::string& name) {
  return gauges_[full_name(subsystem, name)];
}

LatencyRecorder& Registry::latency(const std::string& subsystem,
                                   const std::string& name) {
  return latencies_.try_emplace(full_name(subsystem, name), &enabled_)
      .first->second;
}

std::string Registry::render() const {
  std::ostringstream out;
  out << "telemetry " << (enabled_ ? "enabled" : "disabled") << "\n";
  for (const auto& [name, counter] : counters_) {
    out << "counter " << name << " " << counter.value() << "\n";
  }
  for (const auto& [name, gauge] : gauges_) {
    out << "gauge " << name << " " << gauge.value() << "\n";
  }
  for (const auto& [name, latency] : latencies_) {
    out << "latency " << name << " count=" << latency.count();
    if (latency.count() > 0) {
      out << " mean_us=" << latency.mean_us()
          << " p50_us=" << latency.quantile_us(0.5)
          << " p95_us=" << latency.quantile_us(0.95)
          << " p99_us=" << latency.quantile_us(0.99)
          << " max_us=" << latency.quantile_us(1.0);
    }
    out << "\n";
  }
  out << "spans " << spans_.size() << "/" << spans_.capacity() << " dropped "
      << spans_.dropped() << "\n";
  out << "hops " << hops_.size() << "/" << hops_.capacity() << " dropped "
      << hops_.dropped() << " tracing "
      << (trace_enabled_ ? "enabled" : "disabled") << "\n";
  return out.str();
}

void Registry::append_chrome_trace_events(std::string& out, int pid,
                                          bool& first) const {
  const std::vector<std::pair<std::string, int>> lanes = category_lanes(*this);
  for (const auto& [category, tid] : lanes) {
    append_thread_name_event(out, pid, tid, category, first);
  }
  if (!hops_.empty()) {
    append_thread_name_event(out, pid, kFlowLaneTid, "trace", first);
  }
  spans_.for_each([&](const Span& s) {
    append_complete_event(out, s, pid, lane_of(lanes, s.category), first);
  });
  hops_.for_each(
      [&](const Hop& hop) { append_flow_event(out, hop, pid, first); });
}

std::string Registry::export_chrome_trace(int pid) const {
  return merge_chrome_trace({{pid, this}});
}

std::string merge_chrome_trace(
    const std::vector<std::pair<int, const Registry*>>& registries) {
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  for (const auto& [pid, registry] : registries) {
    if (registry != nullptr) {
      registry->append_chrome_trace_events(out, pid, first);
    }
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

std::vector<HopBreakdownRow> hop_breakdown(
    const std::vector<const Registry*>& registries) {
  // Keyed (channel, stage); a map keeps the output sorted without a second
  // pass. This runs on snapshot/report paths, never in the event loop.
  std::map<std::pair<std::uint32_t, std::uint8_t>, SampleSet> cells;
  for (const Registry* registry : registries) {
    if (registry == nullptr) continue;
    registry->hops().for_each([&cells](const Hop& hop) {
      cells[{hop.channel, static_cast<std::uint8_t>(hop.stage)}].add(
          static_cast<double>(hop.dur_ns) / 1000.0);
    });
  }
  std::vector<HopBreakdownRow> rows;
  rows.reserve(cells.size());
  for (auto& [key, samples] : cells) {
    HopBreakdownRow row;
    row.channel = key.first;
    row.stage = static_cast<HopStage>(key.second);
    row.durations_us = std::move(samples);
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<std::pair<Hop, int>> collect_trace(
    const std::vector<std::pair<int, const Registry*>>& registries,
    std::uint64_t trace_id) {
  std::vector<std::pair<Hop, int>> chain;
  for (const auto& [pid, registry] : registries) {
    if (registry == nullptr) continue;
    registry->hops().for_each([&, pid = pid](const Hop& hop) {
      if (hop.trace_id == trace_id) chain.emplace_back(hop, pid);
    });
  }
  std::sort(chain.begin(), chain.end(),
            [](const std::pair<Hop, int>& a, const std::pair<Hop, int>& b) {
              if (a.first.stage != b.first.stage) {
                return a.first.stage < b.first.stage;
              }
              return a.first.ts_ns < b.first.ts_ns;
            });
  return chain;
}

std::string render_hop_breakdown(
    const std::vector<HopBreakdownRow>& rows,
    const std::function<std::string(std::uint32_t)>& channel_name) {
  std::ostringstream out;
  out << std::left << std::setw(18) << "channel" << std::setw(10) << "stage"
      << std::right << std::setw(8) << "count" << std::setw(12) << "mean_us"
      << std::setw(12) << "p50_us" << std::setw(12) << "p99_us"
      << std::setw(12) << "max_us" << "\n";
  for (const HopBreakdownRow& row : rows) {
    std::string name;
    if (channel_name) name = channel_name(row.channel);
    if (name.empty()) name = "chan" + std::to_string(row.channel);
    out << std::left << std::setw(18) << name << std::setw(10)
        << to_string(row.stage) << std::right << std::setw(8)
        << row.durations_us.count();
    const SampleSet& s = row.durations_us;
    out << std::fixed << std::setprecision(1) << std::setw(12) << s.mean()
        << std::setw(12) << s.quantile(0.5) << std::setw(12)
        << s.quantile(0.99) << std::setw(12) << s.quantile(1.0)
        << std::defaultfloat << std::setprecision(6);
    out << "\n";
  }
  return out.str();
}

}  // namespace dproc::telemetry
