// Simulated device runtime: a mesh of tiles, each driven by one host
// thread during a run. Real data lives in ordinary process memory; the
// Tile's SimClock carries the modeled device time.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "sim/clock.hpp"
#include "sim/config.hpp"
#include "sim/dma.hpp"
#include "sim/fault.hpp"
#include "sim/mem_model.hpp"
#include "sim/topology.hpp"

namespace tilesim {

class Device;
class Probe;       // sim/probe.hpp
class Rendezvous;  // sim/rendezvous.hpp

/// One tile of the mesh. Owned by Device; bound 1:1 to a host thread for
/// the duration of a Device::run() call (tile 0 to the caller, the others
/// to the Device's crew).
class Tile {
 public:
  Tile(Device& device, int id);

  Tile(const Tile&) = delete;
  Tile& operator=(const Tile&) = delete;

  [[nodiscard]] int id() const noexcept { return id_; }
  [[nodiscard]] Device& device() const noexcept { return *device_; }
  [[nodiscard]] SimClock& clock() noexcept { return clock_; }
  [[nodiscard]] const SimClock& clock() const noexcept { return clock_; }

  /// Charge compute-model costs to this tile's clock.
  void charge_int_ops(std::uint64_t n);
  void charge_fp_ops(std::uint64_t n);
  void charge_mem_ops(std::uint64_t n);
  void charge_calls(std::uint64_t n);

  /// Charge a modeled memory copy: MemModel::copy_cost_ps(req), which is
  /// a pure function of the request, so the tile keeps the last request
  /// and its cost and charges a repeat without calling the model.
  void charge_copy(const CopyRequest& req);

  /// This tile's asynchronous DMA engine (non-blocking TSHMEM transfers).
  [[nodiscard]] DmaEngine& dma() noexcept { return *dma_; }
  [[nodiscard]] const DmaEngine& dma() const noexcept { return *dma_; }

 private:
  friend class Device;

  Device* device_;
  int id_;
  SimClock clock_;
  // charge_copy's memo; written, like clock_, only by the clock's owner.
  CopyRequest last_copy_;
  ps_t last_copy_ps_;
  std::unique_ptr<DmaEngine> dma_;
};

/// The whole simulated processor. Construct once per device config; call
/// run() to execute a SPMD function across `active_tiles` tiles.
class Device {
 public:
  explicit Device(const DeviceConfig& cfg);
  ~Device();

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  [[nodiscard]] const DeviceConfig& config() const noexcept { return *cfg_; }
  [[nodiscard]] const Topology& topology() const noexcept { return topo_; }
  [[nodiscard]] const MemModel& mem_model() const noexcept { return mem_; }

  [[nodiscard]] int tile_count() const noexcept { return cfg_->tile_count(); }

  [[nodiscard]] Tile& tile(int id);
  [[nodiscard]] const Tile& tile(int id) const;

  /// Runs `fn(tile)` on `active_tiles` host threads, one per tile (tiles
  /// 0..active_tiles-1 in *virtual* CPU numbering): tile 0 on the calling
  /// thread, tiles 1.. on the Device's crew, host threads it starts on
  /// demand and keeps until it is destroyed. Returns once every tile has,
  /// rethrowing the first exception any tile raised. Clocks reset at
  /// entry.
  void run(int active_tiles, const std::function<void(Tile&)>& fn);

  /// Harness-level (zero virtual cost) rendezvous of all active tiles.
  /// Valid only on a tile thread inside run(). Bounded by the watchdog: a
  /// tile that never arrives surfaces as the watchdog's error. A tile that
  /// throws leaves it, so the survivors' later host_syncs still complete.
  void host_sync();

  /// Tile bound to the calling thread, or nullptr outside run().
  [[nodiscard]] static Tile* current() noexcept;

  /// Tiles inside run() across every Device of the process: the count
  /// tilesim::spin_before_park (sim/guarded_wait.hpp) compares to
  /// usable_cpus(). Idle crew threads are not counted.
  [[nodiscard]] static int running_tile_threads() noexcept;

  /// CPUs this process may run on (its sched_getaffinity set; read once).
  [[nodiscard]] static int usable_cpus() noexcept;

  /// Resets every tile clock to zero. Call only between run()s or from a
  /// single tile after host_sync() (the helper sync_and_reset_clocks does
  /// this safely from inside a run). Also resets each tile's DMA-engine
  /// timeline; throws std::logic_error if any engine still has in-flight
  /// transfers (quiesce before resetting).
  void reset_clocks();

  /// host_sync(); tile 0 resets all clocks; host_sync() again. Benchmarks
  /// use this between measurement phases.
  void sync_and_reset_clocks();

  /// Monotone counter bumped by every reset_clocks(). Components that keep
  /// auxiliary timelines (the interrupt controller's service contexts)
  /// compare it to re-zero themselves lazily at job/phase boundaries.
  [[nodiscard]] std::uint64_t clock_generation() const noexcept {
    return clock_generation_.load(std::memory_order_acquire);
  }

  /// Attach (or detach with nullptr) a fault-injection engine. The engine
  /// must outlive its attachment. With no engine attached every hardened
  /// layer takes its zero-cost fast path.
  void attach_fault(FaultEngine* fault) noexcept { fault_ = fault; }
  [[nodiscard]] FaultEngine* fault() const noexcept { return fault_; }

  /// Attach (or detach with nullptr) the blocking-wait watchdog consulted
  /// by UDN receives, barriers, waits, and locks. Must outlive attachment.
  void attach_watchdog(const Watchdog* wd) noexcept { watchdog_ = wd; }
  [[nodiscard]] const Watchdog* watchdog() const noexcept {
    return watchdog_ && watchdog_->enabled() ? watchdog_ : nullptr;
  }

  /// Adds `probe` to the consumers every instrumented op reports to
  /// (sim/probe.hpp); reset_clocks() notifies each at every epoch
  /// boundary. The probe must outlive its attachment. Throws
  /// std::logic_error inside run(): tile threads read the list unlocked.
  void attach_probe(Probe* probe);
  void detach_probe(Probe* probe);
  [[nodiscard]] const std::vector<Probe*>& probes() const noexcept {
    return probes_;
  }

 private:
  class Crew;  // device.cpp
  struct Job;  // device.cpp: one run()'s function and first error

  /// Runs tile `id` of `job` on the calling thread.
  void run_tile(int id, Job& job);

  const DeviceConfig* cfg_;
  Topology topo_;
  MemModel mem_;
  std::vector<std::unique_ptr<Tile>> tiles_;
  std::unique_ptr<Rendezvous> host_sync_;  ///< one per run()
  std::vector<Probe*> probes_;
  FaultEngine* fault_ = nullptr;
  const Watchdog* watchdog_ = nullptr;
  std::atomic<std::uint64_t> clock_generation_{0};
  std::unique_ptr<Crew> crew_;  ///< last member: its threads use the rest
};

}  // namespace tilesim
