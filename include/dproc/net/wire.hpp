// Binary serialization for on-the-wire payloads.
//
// Monitoring events really are encoded to bytes (the paper reports 50–100
// byte events; we measure our encodings), while bulk stream bodies are
// carried as declared lengths so a 3 MB visualization frame does not
// materialize 3 MB of heap per event. Little-endian, length-prefixed
// strings, no alignment padding.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "dproc/util/status.hpp"

namespace dproc::net {

class ByteWriter {
 public:
  void u8(std::uint8_t v) { raw(&v, 1); }
  void u16(std::uint16_t v) { raw_le(v); }
  void u32(std::uint32_t v) { raw_le(v); }
  void u64(std::uint64_t v) { raw_le(v); }
  void i64(std::int64_t v) { raw_le(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    raw_le(bits);
  }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
  }
  void bytes(std::span<const std::uint8_t> data) {
    raw(data.data(), data.size());
  }

  /// Pre-sizes the buffer; an exactly-sized reserve makes a whole frame
  /// encode with a single allocation.
  void reserve(std::size_t n) { buffer_.reserve(buffer_.size() + n); }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const { return buffer_; }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buffer_); }
  [[nodiscard]] std::size_t size() const { return buffer_.size(); }

 private:
  template <typename T>
  void raw_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buffer_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void raw(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    buffer_.insert(buffer_.end(), p, p + n);
  }
  std::vector<std::uint8_t> buffer_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  /// Skips `n` bytes (validated like any other read).
  void skip(std::size_t n) {
    if (!ok_ || remaining() < n) {
      ok_ = false;
      return;
    }
    pos_ += n;
  }

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

  std::uint8_t u8() { return static_cast<std::uint8_t>(raw_le(1)); }
  std::uint16_t u16() { return static_cast<std::uint16_t>(raw_le(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(raw_le(4)); }
  std::uint64_t u64() { return raw_le(8); }
  std::int64_t i64() { return static_cast<std::int64_t>(raw_le(8)); }
  double f64() {
    const std::uint64_t bits = raw_le(8);
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  std::string str() {
    const std::uint32_t n = u32();
    if (!ok_ || remaining() < n) {
      ok_ = false;
      return {};
    }
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return s;
  }

 private:
  std::uint64_t raw_le(std::size_t n) {
    if (!ok_ || remaining() < n) {
      ok_ = false;
      return 0;
    }
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < n; ++i) {
      v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += n;
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// One polling period's monitoring samples coalesced into a single wire
/// message — the per-period batch frame that replaces d-mon's one event per
/// module per period (O(modules × N²) monitoring traffic on an N-node
/// cluster collapses to O(N²) events with the same sample payload).
///
/// Layout (little-endian, no padding):
///   version u8 | flags u8 | count u32 | count × (id u32, value f64,
///   sampled_ns i64)
///
/// Versioning rules: the batch opcode is distinct from the legacy
/// single-module opcode at the layer above, so old frames keep decoding
/// through the old path forever; within the batch, `version` gates the
/// entry layout. Readers reject versions above the one they implement
/// (never guess at an unknown layout) and version 0 (reserved as
/// malformed). New fields must either bump the version or ride in `flags`
/// bits that old readers can ignore.
struct MonitorBatch {
  static constexpr std::uint8_t kVersion = 1;
  /// Keyframe: carries every post-filter sample regardless of delta
  /// suppression, so a peer that restarted (losing its cache) reconverges.
  static constexpr std::uint8_t kFlagKeyframe = 0x01;
  static constexpr std::size_t kHeaderBytes = 1 + 1 + 4;
  static constexpr std::size_t kEntryBytes = 4 + 8 + 8;

  struct Entry {
    std::uint32_t id = 0;       // cluster-convention metric id
    double value = 0.0;
    std::int64_t sampled_ns = 0;  // publisher's virtual sample time
  };

  std::uint8_t flags = 0;
  std::vector<Entry> entries;

  [[nodiscard]] bool keyframe() const { return (flags & kFlagKeyframe) != 0; }
  [[nodiscard]] std::size_t encoded_bytes() const {
    return kHeaderBytes + entries.size() * kEntryBytes;
  }

  void encode(ByteWriter& w) const {
    w.u8(kVersion);
    w.u8(flags);
    w.u32(static_cast<std::uint32_t>(entries.size()));
    for (const Entry& e : entries) {
      w.u32(e.id);
      w.f64(e.value);
      w.i64(e.sampled_ns);
    }
  }

  /// Decodes one batch; false (and reader !ok where truncated) on any
  /// malformation.
  [[nodiscard]] static bool decode(ByteReader& r, MonitorBatch& out) {
    const std::uint8_t version = r.u8();
    out.flags = r.u8();
    if (!r.ok() || version == 0 || version > kVersion) return false;
    return decode_entries(r, out);
  }

  /// Decodes the `count | count × entry` tail into `out.entries`; the
  /// legacy per-module monitoring frame carries the same tail after its
  /// opcode. The declared count is checked against the bytes actually
  /// present *before* reserving, so a corrupted count can neither trigger a
  /// huge allocation nor yield a partially decoded batch.
  [[nodiscard]] static bool decode_entries(ByteReader& r, MonitorBatch& out) {
    const std::uint32_t count = r.u32();
    if (!r.ok() ||
        r.remaining() < static_cast<std::size_t>(count) * kEntryBytes) {
      return false;
    }
    out.entries.clear();
    out.entries.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      Entry e;
      e.id = r.u32();
      e.value = r.f64();
      e.sampled_ns = r.i64();
      out.entries.push_back(e);
    }
    return r.ok();
  }
};

/// One zone's per-metric roll-up, republished up the aggregation tree by a
/// zone aggregator — the compact frame that replaces N raw MonitorBatch
/// feeds above the leaf tier. Which statistics ride in each entry is
/// selected per channel through the flag bits, so a summary channel can
/// carry mean-only entries while a capacity channel keeps min/max/top-k.
///
/// Layout (little-endian, no padding):
///   version u8 | flags u8 | tier u8 | zone u32 | count u32 | count × entry
///   entry: id u32 | count u32 | latest_ns i64
///          | min f64 (kFlagMin) | max f64 (kFlagMax) | sum f64 (kFlagMean)
///          | top_count u8 + top_count × (node u32, value f64) (kFlagTopK)
///
/// Versioning rules match MonitorBatch: readers reject version 0 and
/// versions above their own; new statistics ride in new flag bits (the
/// entry layout is self-describing through `flags`), layout changes bump
/// the version. The `zone` field keys the receiving aggregator's child
/// table, so a re-elected aggregator republishing the same zone overwrites
/// rather than double-counts.
struct AggregateBatch {
  static constexpr std::uint8_t kVersion = 1;
  static constexpr std::uint8_t kFlagMin = 0x01;
  static constexpr std::uint8_t kFlagMax = 0x02;
  static constexpr std::uint8_t kFlagMean = 0x04;  // sum rides; mean = sum/count
  static constexpr std::uint8_t kFlagTopK = 0x08;
  static constexpr std::uint8_t kKnownFlags =
      kFlagMin | kFlagMax | kFlagMean | kFlagTopK;
  /// Hard cap on the per-entry top-k list: bounds both the wire size and
  /// what a corrupted top_count can make a reader allocate.
  static constexpr std::uint8_t kMaxTopK = 16;
  static constexpr std::size_t kHeaderBytes = 1 + 1 + 1 + 4 + 4;
  static constexpr std::size_t kEntryFixedBytes = 4 + 4 + 8;
  static constexpr std::size_t kTopBytes = 4 + 8;

  struct Top {
    std::uint32_t node = 0;  // origin node id of the extreme value
    double value = 0.0;

    friend bool operator==(const Top&, const Top&) = default;
  };

  struct Entry {
    std::uint32_t id = 0;      // cluster-convention metric id
    std::uint32_t count = 0;   // origins folded into this entry (>= 1)
    std::int64_t latest_ns = 0;  // newest contributing sample time
    double min = 0.0;
    double max = 0.0;
    double sum = 0.0;          // mean = sum / count
    std::vector<Top> top;      // descending by value, <= kMaxTopK

    friend bool operator==(const Entry&, const Entry&) = default;
  };

  std::uint8_t flags = 0;
  std::uint8_t tier = 0;     // tier of the *publishing* zone (0 = leaf)
  std::uint32_t zone = 0;    // publishing zone id within the layout
  std::vector<Entry> entries;

  [[nodiscard]] bool has(std::uint8_t flag) const {
    return (flags & flag) != 0;
  }
  /// Smallest possible encoded entry under `flags` (top list empty).
  [[nodiscard]] static std::size_t min_entry_bytes(std::uint8_t flags) {
    std::size_t n = kEntryFixedBytes;
    if ((flags & kFlagMin) != 0) n += 8;
    if ((flags & kFlagMax) != 0) n += 8;
    if ((flags & kFlagMean) != 0) n += 8;
    if ((flags & kFlagTopK) != 0) n += 1;
    return n;
  }
  [[nodiscard]] std::size_t encoded_bytes() const {
    std::size_t n = kHeaderBytes + entries.size() * min_entry_bytes(flags);
    if (has(kFlagTopK)) {
      for (const Entry& e : entries) n += e.top.size() * kTopBytes;
    }
    return n;
  }

  void encode(ByteWriter& w) const {
    w.u8(kVersion);
    w.u8(flags);
    w.u8(tier);
    w.u32(zone);
    w.u32(static_cast<std::uint32_t>(entries.size()));
    for (const Entry& e : entries) {
      w.u32(e.id);
      w.u32(e.count);
      w.i64(e.latest_ns);
      if (has(kFlagMin)) w.f64(e.min);
      if (has(kFlagMax)) w.f64(e.max);
      if (has(kFlagMean)) w.f64(e.sum);
      if (has(kFlagTopK)) {
        w.u8(static_cast<std::uint8_t>(e.top.size()));
        for (const Top& t : e.top) {
          w.u32(t.node);
          w.f64(t.value);
        }
      }
    }
  }

  /// Decodes one aggregate batch; false (and reader !ok where truncated) on
  /// any malformation: bad version, unknown flag bits, an entry count that
  /// cannot fit the remaining bytes (checked *before* reserving, so a
  /// corrupted count cannot trigger a huge allocation), a zero-origin
  /// entry, or a top list past kMaxTopK.
  [[nodiscard]] static bool decode(ByteReader& r, AggregateBatch& out) {
    const std::uint8_t version = r.u8();
    out.flags = r.u8();
    out.tier = r.u8();
    out.zone = r.u32();
    const std::uint32_t count = r.u32();
    if (!r.ok() || version == 0 || version > kVersion) return false;
    if ((out.flags & ~kKnownFlags) != 0) return false;
    const std::size_t floor = min_entry_bytes(out.flags);
    if (r.remaining() < static_cast<std::size_t>(count) * floor) return false;
    out.entries.clear();
    out.entries.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      Entry e;
      e.id = r.u32();
      e.count = r.u32();
      e.latest_ns = r.i64();
      if (out.has(kFlagMin)) e.min = r.f64();
      if (out.has(kFlagMax)) e.max = r.f64();
      if (out.has(kFlagMean)) e.sum = r.f64();
      if (out.has(kFlagTopK)) {
        const std::uint8_t top_count = r.u8();
        if (top_count > kMaxTopK ||
            r.remaining() < static_cast<std::size_t>(top_count) * kTopBytes) {
          return false;
        }
        e.top.clear();
        e.top.reserve(top_count);
        for (std::uint8_t t = 0; t < top_count; ++t) {
          Top top;
          top.node = r.u32();
          top.value = r.f64();
          e.top.push_back(top);
        }
      }
      if (!r.ok() || e.count == 0) return false;
      out.entries.push_back(std::move(e));
    }
    return r.ok();
  }
};

/// One channel record streamed from the registry leader to its follower
/// replicas (kOpRegistrySync) — the unit of replication. Each mutation the
/// leader serializes (join, leave, evict) bumps the table version and fans
/// one RegistrySync per affected channel to every follower; a recovery
/// snapshot replays the whole table as a sequence of these frames. Record
/// overwrite is keyed by (name, version), so duplicated or reordered syncs
/// are idempotent: a follower applies a record only when its version is
/// newer than the one it holds.
///
/// Layout (little-endian, no padding):
///   version u8 | table_version u64 | next_id u32 | channel_id u32
///   | name str (u32 length prefix) | count u32 | count × (node u32,
///   port u16)
///
/// Versioning rules match MonitorBatch: readers reject version 0 and
/// versions above their own; layout changes bump the version byte.
struct RegistrySync {
  static constexpr std::uint8_t kVersion = 1;
  static constexpr std::size_t kMemberBytes = 4 + 2;
  /// Fixed bytes before the variable-length name: version, table_version,
  /// next_id, channel_id, name length prefix.
  static constexpr std::size_t kFixedBytes = 1 + 8 + 4 + 4 + 4;

  struct Member {
    std::uint32_t node = 0;
    std::uint16_t port = 0;

    friend bool operator==(const Member&, const Member&) = default;
  };

  std::uint64_t table_version = 0;  // leader's version after the mutation
  std::uint32_t next_id = 0;        // leader's next channel id (failover gap)
  std::uint32_t channel_id = 0;
  std::string name;
  std::vector<Member> members;

  [[nodiscard]] std::size_t encoded_bytes() const {
    return kFixedBytes + name.size() + 4 + members.size() * kMemberBytes;
  }

  void encode(ByteWriter& w) const {
    w.u8(kVersion);
    w.u64(table_version);
    w.u32(next_id);
    w.u32(channel_id);
    w.str(name);
    w.u32(static_cast<std::uint32_t>(members.size()));
    for (const Member& m : members) {
      w.u32(m.node);
      w.u16(m.port);
    }
  }

  /// Decodes one sync record; false (and reader !ok where truncated) on any
  /// malformation. The member count is checked against the bytes actually
  /// present *before* reserving, so a corrupted count can neither trigger a
  /// huge allocation nor yield a partially decoded record. A zero table
  /// version is rejected (versions start at 1; 0 is the follower's "never
  /// synced" sentinel).
  [[nodiscard]] static bool decode(ByteReader& r, RegistrySync& out) {
    const std::uint8_t version = r.u8();
    out.table_version = r.u64();
    out.next_id = r.u32();
    out.channel_id = r.u32();
    out.name = r.str();
    const std::uint32_t count = r.u32();
    if (!r.ok() || version == 0 || version > kVersion) return false;
    if (out.table_version == 0) return false;
    if (r.remaining() < static_cast<std::size_t>(count) * kMemberBytes) {
      return false;
    }
    out.members.clear();
    out.members.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      Member m;
      m.node = r.u32();
      m.port = r.u16();
      out.members.push_back(m);
    }
    return r.ok();
  }
};

/// Lease invalidation fanned out by the registry leader when a channel
/// mutates (kOpCacheInvalidate): every member of the affected channel — and
/// the member just removed, who is exactly the node most likely to hold a
/// stale entry — drops its cached record for `name` so the next lookup
/// refetches. Carries the post-mutation table version for observability.
///
/// Layout: version u8 | table_version u64 | name str.
struct CacheInvalidate {
  static constexpr std::uint8_t kVersion = 1;

  std::uint64_t table_version = 0;
  std::string name;

  void encode(ByteWriter& w) const {
    w.u8(kVersion);
    w.u64(table_version);
    w.str(name);
  }

  /// Decodes one invalidation; false on truncation, a bad version byte, a
  /// zero table version, or trailing garbage masquerading as a name (the
  /// string length prefix is validated against the remaining bytes by the
  /// reader itself).
  [[nodiscard]] static bool decode(ByteReader& r, CacheInvalidate& out) {
    const std::uint8_t version = r.u8();
    out.table_version = r.u64();
    out.name = r.str();
    if (!r.ok() || version == 0 || version > kVersion) return false;
    return out.table_version != 0;
  }
};

/// Causal-tracing context carried on the wire behind a KECho event payload.
///
/// When tracing is enabled the publisher appends one TraceContext to each
/// event frame; every hop (submit, wire arrival, poll delivery, procfs
/// render, filter decision) stamps a virtual-clock timestamp into its node's
/// hop log and advances `prev_hop_ns`, so per-stage durations are computed
/// at stamp time without a cross-node log join. With tracing disabled no
/// context is appended and frames are byte-identical to the untraced stack.
struct TraceContext {
  /// Leading marker byte, so a truncated payload cannot masquerade as a
  /// trace context by length alone.
  static constexpr std::uint8_t kMagic = 0x7C;
  /// Encoded size: magic + trace_id + origin + hop + publish_ns + prev_ns.
  static constexpr std::size_t kWireBytes = 1 + 8 + 4 + 1 + 8 + 8;

  std::uint64_t trace_id = 0;    // cluster-unique: origin node << 32 | seq
  std::uint32_t origin = 0;      // publishing node id
  std::uint8_t hop = 0;         // last stage stamped (telemetry::HopStage)
  std::int64_t publish_ns = 0;  // virtual-clock time of the publish hop
  std::int64_t prev_hop_ns = 0; // virtual-clock time of the latest hop

  [[nodiscard]] bool valid() const { return trace_id != 0; }

  void encode(ByteWriter& w) const {
    w.u8(kMagic);
    w.u64(trace_id);
    w.u32(origin);
    w.u8(hop);
    w.i64(publish_ns);
    w.i64(prev_hop_ns);
  }

  /// Decodes one context; false (and reader !ok) on truncation or a bad
  /// marker byte. Never reads past the buffer.
  [[nodiscard]] static bool decode(ByteReader& r, TraceContext& out) {
    if (r.u8() != kMagic) return false;
    out.trace_id = r.u64();
    out.origin = r.u32();
    out.hop = r.u8();
    out.publish_ns = r.i64();
    out.prev_hop_ns = r.i64();
    return r.ok();
  }
};

}  // namespace dproc::net
