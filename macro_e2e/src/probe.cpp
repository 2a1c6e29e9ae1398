#include "probe.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <string>
#include <string_view>

namespace {

std::uint64_t g_allocs = 0;

double status_kb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string{key} + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr);
    }
  }
  return 0.0;
}

}  // namespace

void* operator new(std::size_t size) {
  ++g_allocs;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocs;
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace macro_e2e {

std::uint64_t alloc_count() { return g_allocs; }

double rss_kb() { return status_kb("VmRSS"); }
double peak_rss_kb() { return status_kb("VmHWM"); }

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

std::int32_t Tracer::begin(const char* name) {
  if (spans_.size() == spans_.capacity()) ++own_allocs_;
  const auto id = static_cast<std::int32_t>(spans_.size());
  const auto now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       Clock::now() - epoch_)
                       .count();
  spans_.push_back(SpanRecord{name, now, now, open_});
  open_ = id;
  return id;
}

void Tracer::end(std::int32_t id) {
  SpanRecord& span = spans_[static_cast<std::size_t>(id)];
  span.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - epoch_)
                    .count();
  open_ = span.parent;
}

std::map<std::string, SpanSummary> Tracer::summarize(
    const char* within) const {
  // Parents precede their children, so one forward pass settles both the
  // children's time and whether a span lies inside `within`.
  std::vector<double> child_ns(spans_.size(), 0.0);
  std::vector<bool> inside(spans_.size(), within == nullptr);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    if (within != nullptr) {
      inside[i] = std::string_view{span.name} == within ||
                  (span.parent >= 0 &&
                   inside[static_cast<std::size_t>(span.parent)]);
    }
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] +=
          static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  std::map<std::string, SpanSummary> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (!inside[i]) continue;
    const double duration =
        static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    SpanSummary& summary = out[spans_[i].name];
    ++summary.count;
    summary.total_ns += duration;
    summary.self_ns += duration - child_ns[i];
    summary.durations_ns.push_back(duration);
  }
  return out;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d}}\n",
                 i == 0 ? "" : ",", span.name,
                 static_cast<double>(span.start_ns) / 1e3,
                 static_cast<double>(span.end_ns - span.start_ns) / 1e3, i,
                 span.parent);
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

}  // namespace macro_e2e
