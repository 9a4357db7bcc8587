// Simulated device runtime: a mesh of tiles, each driven by one host
// thread. Real data lives in ordinary process memory; the Tile's SimClock
// carries the modeled device time.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "sim/cache_sim.hpp"
#include "sim/clock.hpp"
#include "sim/config.hpp"
#include "sim/dma.hpp"
#include "sim/fault.hpp"
#include "sim/mem_model.hpp"
#include "sim/topology.hpp"
#include "sim/trace.hpp"

namespace tilesim {

class Device;
class SyncObserver;  // sim/sync_observer.hpp
class ProfileSink;   // sim/profile_hook.hpp
class FlightSink;    // sim/flight_hook.hpp

/// One tile of the mesh. Owned by Device; bound 1:1 to a host thread for
/// the duration of a Device::run() call.
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

  /// Charge a modeled memory copy.
  void charge_copy(const CopyRequest& req);

  /// This tile's asynchronous DMA engine (non-blocking TSHMEM transfers).
  [[nodiscard]] DmaEngine& dma() noexcept { return *dma_; }
  [[nodiscard]] const DmaEngine& dma() const noexcept { return *dma_; }

  /// Mechanistic cache probe (metrics only; see Device::enable_cache_probes).
  /// Null until this tile's first charged copy with probes enabled. Purely
  /// observational — it never contributes to virtual time; the analytic
  /// MemModel stays authoritative.
  [[nodiscard]] const CacheSim* cache_probe() const noexcept {
    return probe_.get();
  }

 private:
  friend class Device;

  Device* device_;
  int id_;
  SimClock clock_;
  // Probe state is mutex-guarded because interrupt emulation lets another
  // tile's thread charge copies to this tile (tmc/interrupt.hpp).
  std::mutex probe_mu_;
  std::unique_ptr<CacheSim> probe_;
  std::unique_ptr<DmaEngine> dma_;
  std::uint64_t probe_cursor_ = std::uint64_t{1} << 40;  ///< synthetic addrs
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
  [[nodiscard]] int active_tiles() const noexcept { return active_tiles_; }

  [[nodiscard]] Tile& tile(int id);
  [[nodiscard]] const Tile& tile(int id) const;

  /// Runs `fn(tile)` on `active_tiles` host threads, one per tile (tiles
  /// 0..active_tiles-1 in *virtual* CPU numbering). Joins all threads and
  /// rethrows the first exception any tile raised. Clocks reset at entry.
  void run(int active_tiles, const std::function<void(Tile&)>& fn);

  /// Harness-level (zero virtual cost) rendezvous of all active tiles.
  /// Valid only on a tile thread inside run(). Bounded by the watchdog: a
  /// tile that never arrives surfaces as the watchdog's error.
  void host_sync();

  /// Tile bound to the calling thread, or nullptr outside run().
  [[nodiscard]] static Tile* current() noexcept;

  /// Tile threads inside run() across every Device of the process: the
  /// count tilesim::spin_before_park (sim/guarded_wait.hpp) compares to
  /// usable_cpus().
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

  /// Attach (or detach with nullptr) a virtual-time tracer; compute/copy
  /// charges on every tile are recorded while attached. The recorder must
  /// outlive its attachment and cover tile_count() tiles.
  void attach_tracer(TraceRecorder* tracer) noexcept { tracer_ = tracer; }
  [[nodiscard]] TraceRecorder* tracer() const noexcept { return tracer_; }

  /// Streams every charged copy through a per-tile CacheSim (metrics
  /// instrumentation: per-tile L1/L2/DDC/DRAM hit counts). A tile's probe
  /// is built at its first charged copy, so tiles that never copy cost
  /// nothing. Zero virtual-time cost; host-side cost only, so it is opt-in.
  /// Idempotent.
  void enable_cache_probes() noexcept { cache_probes_ = true; }
  [[nodiscard]] bool cache_probes_enabled() const noexcept {
    return cache_probes_;
  }

  /// Attach (or detach with nullptr) a fault-injection engine. The engine
  /// must outlive its attachment. With no engine attached every hardened
  /// layer takes its zero-cost fast path (same contract as the tracer).
  void attach_fault(FaultEngine* fault) noexcept { fault_ = fault; }
  [[nodiscard]] FaultEngine* fault() const noexcept { return fault_; }

  /// Attach (or detach with nullptr) the blocking-wait watchdog consulted
  /// by UDN receives, barriers, waits, and locks. Must outlive attachment.
  void attach_watchdog(const Watchdog* wd) noexcept { watchdog_ = wd; }
  [[nodiscard]] const Watchdog* watchdog() const noexcept {
    return watchdog_ && watchdog_->enabled() ? watchdog_ : nullptr;
  }

  /// Attach (or detach with nullptr) a rendezvous-synchronization observer
  /// (sim/sync_observer.hpp): the TMC spin/sync barriers report arrival
  /// and release of every participant while attached. Same contract as
  /// the tracer/fault engine: must outlive the attachment, never advances
  /// virtual time, and the nullptr default keeps the fast path zero-cost.
  void attach_sync_observer(SyncObserver* observer) noexcept {
    sync_observer_ = observer;
  }
  [[nodiscard]] SyncObserver* sync_observer() const noexcept {
    return sync_observer_;
  }

  /// Attach (or detach with nullptr) the virtual-time profiler sink
  /// (sim/profile_hook.hpp): span begin/end and wait-for edges are reported
  /// while attached, and reset_clocks() notifies it at every epoch
  /// boundary. Same contract as the tracer/fault engine: must outlive the
  /// attachment, never advances virtual time, and the nullptr default keeps
  /// the fast path zero-cost.
  void attach_profiler(ProfileSink* profiler) noexcept {
    profiler_ = profiler;
  }
  [[nodiscard]] ProfileSink* profiler() const noexcept { return profiler_; }

  /// Attach (or detach with nullptr) the flight-recorder sink
  /// (sim/flight_hook.hpp): instrumented operations report compact event
  /// records while attached, and reset_clocks() notifies it at every epoch
  /// boundary. Also plumbs the sink into each tile's DMA engine (which has
  /// no Device back-pointer). Same contract as the tracer/fault engine:
  /// must outlive the attachment, never advances virtual time, and the
  /// nullptr default keeps the fast path zero-cost.
  void attach_flight(FlightSink* flight) noexcept;
  [[nodiscard]] FlightSink* flight() const noexcept { return flight_; }

 private:
  struct HostBarrier;  // host_sync's generation barrier, one per run()

  const DeviceConfig* cfg_;
  Topology topo_;
  MemModel mem_;
  std::vector<std::unique_ptr<Tile>> tiles_;
  std::unique_ptr<HostBarrier> host_barrier_;
  int active_tiles_ = 0;
  std::vector<std::uint64_t> host_sync_seq_;  // per-tile host_sync phase
  TraceRecorder* tracer_ = nullptr;
  FaultEngine* fault_ = nullptr;
  const Watchdog* watchdog_ = nullptr;
  SyncObserver* sync_observer_ = nullptr;
  ProfileSink* profiler_ = nullptr;
  FlightSink* flight_ = nullptr;
  bool cache_probes_ = false;
  std::atomic<std::uint64_t> clock_generation_{0};
};

}  // namespace tilesim
