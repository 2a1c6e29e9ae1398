// A simulated cluster node: CPU, memory, disk, and PMCs on one virtual
// clock. The network interface is attached by the net module; the kernel
// services (procfs, KECho, d-mon) are layered on top by the core module.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "dproc/host/cpu.hpp"
#include "dproc/host/disk.hpp"
#include "dproc/host/memory.hpp"
#include "dproc/host/pmc.hpp"
#include "dproc/sim/engine.hpp"
#include "dproc/telemetry/flight.hpp"
#include "dproc/telemetry/telemetry.hpp"
#include "dproc/util/rng.hpp"

namespace dproc::host {

using HostId = std::uint32_t;

struct HostConfig {
  std::string name;
  CpuConfig cpu{};
  std::uint64_t memory_bytes = 512ULL << 20;  // paper hardware: 512 MB
  DiskConfig disk{};
};

class Host {
 public:
  Host(sim::Engine& engine, HostId id, HostConfig config, Rng rng)
      : engine_(engine),
        id_(id),
        name_(config.name),
        rng_(rng),
        cpu_(engine, config.cpu),
        memory_(config.memory_bytes),
        disk_(engine, config.disk),
        flight_(&engine) {
    // Engine-level instrumentation: the dispatch count is pulled from the
    // engine at read time, so the hot event loop carries no telemetry code.
    telemetry_.gauge("sim", "events_dispatched").set_source([&engine] {
      return static_cast<double>(engine.events_processed());
    });
  }

  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  [[nodiscard]] sim::Engine& engine() { return engine_; }
  [[nodiscard]] HostId id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Rng& rng() { return rng_; }

  [[nodiscard]] Cpu& cpu() { return cpu_; }
  [[nodiscard]] Memory& memory() { return memory_; }
  [[nodiscard]] Disk& disk() { return disk_; }
  [[nodiscard]] Pmc& pmc() { return pmc_; }

  /// This node's self-monitoring instrument registry (disabled by default;
  /// the kernel services instrument themselves through it).
  [[nodiscard]] telemetry::Registry& telemetry() { return telemetry_; }
  [[nodiscard]] const telemetry::Registry& telemetry() const {
    return telemetry_;
  }

  /// This node's flight recorder (inert until configured and enabled by the
  /// cluster layer; kernel services record state transitions into it).
  [[nodiscard]] telemetry::FlightRecorder& flight() { return flight_; }
  [[nodiscard]] const telemetry::FlightRecorder& flight() const {
    return flight_;
  }

 private:
  sim::Engine& engine_;
  HostId id_;
  std::string name_;
  Rng rng_;
  Cpu cpu_;
  Memory memory_;
  Disk disk_;
  Pmc pmc_;
  telemetry::Registry telemetry_;
  telemetry::FlightRecorder flight_;
};

}  // namespace dproc::host
