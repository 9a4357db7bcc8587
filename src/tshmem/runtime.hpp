// TSHMEM runtime: the library's equivalent of the executable launcher plus
// per-PE environment (paper §IV-A).
//
// The paper's launcher creates TMC common memory, sets up the UDN, forks
// one process per tile and exec()s the application; start_pes() then
// partitions the shared space symmetrically. Here Runtime::run() spawns one
// tile thread per PE, carves the symmetric partitions out of CommonMemory,
// and hands each thread a Context. Static symmetric objects (link-time
// layout in the paper) are emulated by a StaticRegistry handing out stable
// offsets into per-PE private arenas.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "analysis/race.hpp"
#include "obs/flightrec.hpp"
#include "obs/metrics.hpp"
#include "obs/op_metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/timeseries.hpp"
#include "sim/device.hpp"
#include "tmc/barrier.hpp"
#include "tmc/common_memory.hpp"
#include "tmc/interrupt.hpp"
#include "tmc/udn.hpp"
#include "tshmem/token_barrier.hpp"
#include "tshmem/types.hpp"

namespace tshmem {

using tilesim::Device;
using tilesim::DeviceConfig;
using tilesim::ps_t;
using tilesim::Tile;

class Context;

/// Emulates the link-time layout of static symmetric variables: every
/// registered name receives a stable offset; each PE's copy lives at that
/// offset inside its private arena (same device virtual address, private
/// physical storage — see DESIGN.md §2).
class StaticRegistry {
 public:
  explicit StaticRegistry(std::size_t arena_bytes);

  struct Entry {
    std::size_t offset;
    std::size_t bytes;
  };

  /// Registers (or looks up) a named object. Re-registration with a
  /// different size throws — the "executable" can only have one layout.
  Entry reserve(const std::string& name, std::size_t bytes,
                std::size_t alignment);

  [[nodiscard]] std::size_t arena_bytes() const noexcept {
    return arena_bytes_;
  }
  [[nodiscard]] std::size_t bytes_used() const;
  [[nodiscard]] std::size_t object_count() const;
  /// True when [offset, offset + bytes) lies inside one registered object
  /// (the TSHMEM_DEBUG bounds check for static transfers).
  [[nodiscard]] bool contains_range(std::size_t offset,
                                    std::size_t bytes) const;

 private:
  std::size_t arena_bytes_;
  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
  std::map<std::size_t, std::size_t> extents_;  // offset -> bytes
  std::size_t next_offset_ = 0;
};

struct RuntimeOptions {
  std::size_t heap_per_pe = std::size_t{32} << 20;    ///< symmetric partition
  /// Static arena per PE, kept from a PE's first job to the Runtime's end.
  std::size_t private_per_pe = std::size_t{8} << 20;
  /// Debug aid: verify collectively at every shmalloc/shfree that all PEs
  /// passed matching arguments (the symmetry precondition of paper SIV-A).
  /// Uses host-level synchronization only — zero virtual-time cost — so it
  /// can stay on during benchmarking without perturbing results.
  bool validate_symmetry = false;
  /// Enable the metrics/telemetry subsystem (src/obs): per-PE op counters,
  /// gauges, and virtual-time histograms from the obs::OpMetrics probe
  /// consumer, plus every layer's own counts scraped at the end of each
  /// run(). Purely observational — instrumentation never advances a
  /// SimClock, so virtual-time results are bit-identical with metrics on
  /// or off. The TSHMEM_METRICS environment variable overrides this field
  /// ("0"/"false"/"off" disable, any other value enables).
  bool metrics = false;
  /// Enable the virtual-time critical-path profiler (src/obs/profiler;
  /// docs/PROFILING.md): per-PE span stacks, wait-for edges, and a
  /// critical-path report, exported as tshmem.profile.v1 JSON, collapsed
  /// flamegraph stacks, and Perfetto flow events. Purely observational —
  /// the profiler never advances a SimClock, so virtual-time results are
  /// bit-identical with profiling on or off (CI-enforced). The
  /// TSHMEM_PROFILE environment variable overrides this field.
  bool profile = false;
  /// Opt-in debug validation (docs/ROBUSTNESS.md): put/get/NBI arguments
  /// are checked for invalid PEs, non-symmetric addresses, and
  /// out-of-bounds transfers, surfacing structured tshmem::Error codes.
  /// Host-side checks only — zero virtual-time cost — but they walk heap
  /// metadata per transfer, so they are off by default. The TSHMEM_DEBUG
  /// environment variable overrides this field.
  bool debug_validation = false;
  /// Host-time budget (milliseconds) for any single blocking wait (UDN
  /// receive/send-space, barriers, shmem_wait_until, locks). On expiry the
  /// stuck PE throws tshmem::Error(kWatchdogTimeout) carrying a per-PE
  /// diagnostic snapshot instead of hanging forever. 0 disables. The
  /// TSHMEM_WATCHDOG_MS environment variable overrides this field.
  int watchdog_ms = 120000;
  /// Deterministic fault-injection plan (docs/ROBUSTNESS.md). An empty
  /// plan attaches no engine — the default — and keeps every figure
  /// bit-identical. The TSHMEM_FAULT_PLAN environment variable, when set,
  /// replaces this field (parsed by tilesim::FaultPlan::parse).
  tilesim::FaultPlan fault_plan;
  /// tshmem-check: virtual-time happens-before race detection over the
  /// symmetric heap (src/analysis; docs/ANALYSIS.md). kOff attaches no
  /// detector (zero cost); kReport collects structured RaceReports
  /// (Runtime::race_reports()); kFail additionally throws
  /// Error(kRaceDetected) when a run ends with findings. Instrumentation
  /// never advances a SimClock, so virtual time stays bit-identical in
  /// every mode. The TSHMEM_RACECHECK environment variable overrides this
  /// field ("0"/"off" -> kOff, "fail"/"2" -> kFail, else kReport).
  analysis::RaceMode racecheck = analysis::RaceMode::kOff;
  /// Shadow-memory granule in bytes (power of two in [1, 64]); accesses
  /// to disjoint bytes of one granule never conflict thanks to per-byte
  /// masks, so the granule trades host memory for lookup locality only.
  /// The TSHMEM_RACECHECK_GRANULE environment variable overrides it; the
  /// constructor rejects any value outside that set.
  std::size_t racecheck_granule = 8;
  /// Enable the per-PE flight recorder (src/obs/flightrec;
  /// docs/OBSERVABILITY.md): a fixed-capacity ring of compact event records
  /// per PE, written from every instrumented layer. Purely observational —
  /// recording never advances a SimClock, so virtual-time results are
  /// bit-identical recorder on/off (CI-enforced). The TSHMEM_FLIGHTREC
  /// environment variable overrides this field.
  bool flightrec = false;
  /// Ring capacity per PE (events); the newest overwrite the oldest.
  std::size_t flightrec_capacity = obs::FlightRecorder::kDefaultCapacity;
  /// Fixed virtual-time window width for the time-series aggregator
  /// (src/obs/timeseries): per-window event counts and latency quantiles,
  /// exported as tshmem.timeseries.v1. 0 disables. A positive width
  /// attaches an obs::TimeSeries probe consumer, which counts the
  /// "event.*" series and folds epochs itself. The
  /// TSHMEM_TIMESERIES_WINDOW_PS environment variable overrides this field.
  ps_t timeseries_window_ps = 0;
  /// When non-empty, any tshmem::Error escaping a job (watchdog timeouts
  /// included) writes a tshmem.blackbox.v1 post-mortem dump to this path
  /// before teardown — the last-N events of every PE, merged by virtual
  /// time, plus the diagnostic board and active fault plan. Render it with
  /// tools/triage.py. Implies flightrec. The TSHMEM_BLACKBOX environment
  /// variable overrides this field.
  std::string blackbox_path;
};

class Runtime {
 public:
  explicit Runtime(const DeviceConfig& cfg, RuntimeOptions opts = {});
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Launch `npes` PEs (bound 1:1 to tiles 0..npes-1) and run `fn` on each.
  /// Blocks until all PEs return; rethrows the first PE exception.
  void run(int npes, const std::function<void(Context&)>& fn);

  // --- topology of the running job ----------------------------------------
  [[nodiscard]] Device& device() noexcept { return device_; }
  [[nodiscard]] const DeviceConfig& config() const noexcept {
    return device_.config();
  }
  [[nodiscard]] tmc::CommonMemory& cmem() noexcept { return cmem_; }
  [[nodiscard]] tmc::UdnFabric& udn() noexcept { return udn_; }
  [[nodiscard]] tmc::InterruptController& interrupts() noexcept {
    return intc_;
  }
  [[nodiscard]] StaticRegistry& statics() noexcept { return statics_; }
  [[nodiscard]] const RuntimeOptions& options() const noexcept {
    return opts_;
  }

  [[nodiscard]] int npes() const noexcept { return npes_; }

  /// Base of PE `pe`'s symmetric partition (valid during run()).
  [[nodiscard]] std::byte* partition_base(int pe) const;
  /// Base of PE `pe`'s private (static symmetric) arena (valid during
  /// run(); the arena itself lives as long as the Runtime).
  [[nodiscard]] std::byte* private_base(int pe) const;

  [[nodiscard]] Context& context(int pe) const;

  /// Context bound to the calling thread, or nullptr outside run().
  [[nodiscard]] static Context* current() noexcept;

  // --- services used by Context -------------------------------------------
  /// Timestamp (atomic max) of the last completed remote store delivered
  /// into PE `pe`'s memory; shmem_wait uses it to order virtual time.
  void note_delivery(int pe, ps_t completion);
  [[nodiscard]] ps_t last_delivery(int pe) const;

  /// Shared bounce buffer for static-static transfers and collective
  /// staging: a persistent per-PE slot grown on demand, so cmem placement
  /// and statistics replay bit-identically (the slot is recycled, and
  /// unmapped at job teardown).
  void* alloc_bounce(std::size_t bytes, int tile);

  /// Cached TMC spin barrier for an active set (BarrierAlgo::kTmcSpin).
  /// Lives until the job ends; each Context looks it up once per set.
  tmc::SpinBarrier& spin_barrier_for(const ActiveSet& as);
  /// Cached token-barrier rendezvous for an active set (the host
  /// realization of BarrierAlgo::kLinearToken when token_rendezvous()).
  /// Lives until the job ends; each Context looks it up once per set.
  TokenBarrier& token_barrier_for(const ActiveSet& as);
  /// True when this job's linear token barriers run as one host rendezvous
  /// per barrier instead of 2n UDN messages. Chosen once per job in
  /// setup_job: the messages stay only for the fault engine, whose
  /// verdicts act on each send, and for tshmem-check, whose vector clocks
  /// ride on each token. Both paths give the same virtual times, traffic
  /// counts and probe records.
  [[nodiscard]] bool token_rendezvous() const noexcept {
    return token_rendezvous_;
  }

  /// Symmetry validation (validate_symmetry option): every PE posts the
  /// argument of its collective allocation call; after a host rendezvous
  /// each PE checks agreement and throws std::logic_error on divergence.
  void check_symmetric_arg(int pe, std::uint64_t value, const char* what);

  // --- robustness (src/sim/fault.hpp; docs/ROBUSTNESS.md) ------------------
  /// Fault engine attached to this runtime's device; nullptr when the
  /// effective plan is empty (the default — zero-cost hardened paths).
  [[nodiscard]] tilesim::FaultEngine* fault_engine() noexcept {
    return fault_engine_.get();
  }
  [[nodiscard]] bool debug_validation() const noexcept {
    return debug_validation_;
  }

  /// Per-PE liveness board feeding the watchdog diagnostic: each Context
  /// posts the name of the operation it is entering (static strings only)
  /// and its lock hold count. Only PE `pe`'s own thread writes its entry
  /// (relaxed loads and stores, no read-modify-write); the diagnostic
  /// reads every entry. Zero virtual-time cost.
  void note_op(int pe, const char* op) noexcept;
  void note_lock_delta(int pe, int delta) noexcept;

  /// Diagnostic snapshot of every PE: last op, op count, virtual clock,
  /// held locks, UDN queue depths, DMA queue depth. Built on watchdog
  /// timeout, usable any time during run().
  [[nodiscard]] std::string watchdog_report() const;

  // --- race checking (src/analysis; docs/ANALYSIS.md) ----------------------
  /// Effective mode after the TSHMEM_RACECHECK override.
  [[nodiscard]] analysis::RaceMode racecheck_mode() const noexcept {
    return racecheck_mode_;
  }
  /// All findings accumulated across run() calls, canonically ordered.
  [[nodiscard]] const std::vector<analysis::RaceReport>& race_reports()
      const noexcept {
    return race_reports_;
  }

  // --- metrics (src/obs) ---------------------------------------------------
  [[nodiscard]] bool metrics_enabled() const noexcept {
    return metrics_enabled_;
  }
  /// Snapshot of everything recorded so far, annotated with the device
  /// short name and the PE count of the most recent job. Valid after
  /// run() returns (the teardown scrape has completed by then).
  [[nodiscard]] obs::MetricsSnapshot metrics() const;

  // --- profiling (src/obs/profiler; docs/PROFILING.md) ---------------------
  [[nodiscard]] bool profile_enabled() const noexcept {
    return profile_enabled_;
  }
  /// Critical-path profiler attached to this runtime's device; nullptr
  /// unless the profile option / TSHMEM_PROFILE enabled it. Call its
  /// report() only outside run().
  [[nodiscard]] obs::Profiler* profiler() noexcept { return profiler_.get(); }

  // --- flight recorder / time series (src/obs; docs/OBSERVABILITY.md) ------
  /// Flight recorder attached to this runtime's device; nullptr unless the
  /// flightrec option / TSHMEM_FLIGHTREC (or a blackbox path) enabled it.
  [[nodiscard]] obs::FlightRecorder* flightrec() noexcept {
    return flightrec_.get();
  }
  /// Windowed time-series aggregator; nullptr unless timeseries_window_ps /
  /// TSHMEM_TIMESERIES_WINDOW_PS is positive.
  [[nodiscard]] obs::TimeSeries* timeseries() noexcept {
    return timeseries_.get();
  }
  /// Writes a tshmem.blackbox.v1 dump describing `reason` to `os`. Returns
  /// false (writing nothing) when no flight recorder is attached. Usable
  /// any time; the runtime calls it itself, to blackbox_path, when a job
  /// dies with an exception.
  bool write_blackbox(std::ostream& os, const std::string& reason,
                      int errc = 0);

 private:
  RuntimeOptions opts_;
  Device device_;
  tmc::CommonMemory cmem_;
  tmc::UdnFabric udn_;
  tmc::InterruptController intc_;
  StaticRegistry statics_;

  // --- robustness state ----------------------------------------------------
  // One cache line per PE: every op of a PE writes its state (note_op),
  // so two PEs sharing a line would stall each other on every op. Only
  // the PE's own thread writes it.
  struct alignas(64) PeState {
    std::atomic<const char*> op{"idle"};   // static strings only
    std::atomic<std::uint64_t> op_seq{0};
    std::atomic<int> held_locks{0};
  };
  std::unique_ptr<tilesim::FaultEngine> fault_engine_;  // null = no faults
  tilesim::Watchdog watchdog_;
  bool debug_validation_ = false;
  analysis::RaceMode racecheck_mode_ = analysis::RaceMode::kOff;
  std::size_t racecheck_granule_ = 8;
  std::unique_ptr<analysis::RaceDetector> race_detector_;  // per-run
  std::vector<analysis::RaceReport> race_reports_;
  std::vector<PeState> pe_states_;
  std::atomic<bool> running_{false};

  int npes_ = 0;
  std::byte* partitions_ = nullptr;  // npes_ * heap_per_pe, in cmem_
  // Static arenas, one per PE any job has used, kept for the Runtime's
  // life like the paper's link-time globals. Each is an anonymous mapping
  // of kernel zero pages, so pages no job writes never become resident;
  // teardown_job re-zeroes the registered extent.
  struct ArenaUnmap {
    std::size_t bytes;
    void operator()(std::byte* p) const noexcept;
  };
  std::vector<std::unique_ptr<std::byte, ArenaUnmap>> private_arenas_;
  std::vector<std::unique_ptr<Context>> contexts_;

  // One cache line per PE: every put into a PE raises its delivery time,
  // which that PE's wait_until reads.
  struct alignas(64) DeliverySlot {
    std::atomic<ps_t> completion{0};
  };
  std::vector<DeliverySlot> delivery_;
  std::vector<std::uint64_t> symmetry_slots_;

  // Persistent per-PE bounce slots (see alloc_bounce): indexed by PE, each
  // touched only by its own PE's thread during a run.
  std::vector<void*> bounce_slots_;
  std::vector<std::size_t> bounce_slot_bytes_;

  std::mutex barrier_mu_;  // guards both barrier caches
  std::map<std::uint64_t, std::unique_ptr<tmc::SpinBarrier>> spin_barriers_;
  std::map<std::uint64_t, std::unique_ptr<TokenBarrier>> token_barriers_;
  bool token_rendezvous_ = false;

  // --- metrics state -------------------------------------------------------
  bool metrics_enabled_ = false;
  bool profile_enabled_ = false;
  std::string blackbox_path_;
  std::unique_ptr<obs::OpMetrics> op_metrics_;  // null unless metrics
  std::unique_ptr<obs::Profiler> profiler_;  // null unless profiling enabled
  std::unique_ptr<obs::TimeSeries> timeseries_;    // null unless windowed
  std::unique_ptr<obs::FlightRecorder> flightrec_; // null unless recording
  obs::MetricsRegistry registry_;
  int last_npes_ = 0;
  // Scrape baselines: the sim/tmc layers keep cumulative internal stats;
  // each end-of-run scrape adds only the delta since the previous scrape so
  // registry counters stay correct across multiple run() calls.
  std::vector<tmc::UdnFabric::TileTraffic> scraped_udn_;
  std::vector<std::uint64_t> scraped_interrupts_;
  tmc::CommonMemory::Stats scraped_cmem_;
  std::map<std::pair<int, int>, std::uint64_t> scraped_fault_;  // (site,tile)

  void setup_job(int npes);
  void teardown_job();
  /// Writes the post-mortem dump to blackbox_path_ (no-op when unset or no
  /// recorder). Called before teardown so the diagnostic board still sees
  /// the dying job's PEs.
  void maybe_dump_blackbox(const std::string& reason, int errc);
  /// cmem map with bounded retry against injected map faults (recovered
  /// attempts are counted in recovery.cmem.map_retries).
  void* map_with_retry(const std::string& name, std::size_t bytes,
                       tilesim::Homing homing, int tile);
  /// End-of-run scrape of layer-internal stats into the registry (UDN
  /// traffic, busy/idle time, heap/cmem occupancy, interrupts raised,
  /// injected faults and the NBI fallbacks they forced).
  void scrape_run_stats();
};

/// Convenience: build a runtime for a named device and run one SPMD job.
void run_spmd(const DeviceConfig& cfg, int npes,
              const std::function<void(Context&)>& fn,
              RuntimeOptions opts = {});

}  // namespace tshmem
