// The device's one observation interface. Every consumer that watches a
// run without acting on it (per-op metrics, profiler, flight recorder,
// time series, trace log, tshmem-check race detector) is a Probe attached
// to the Device; each callback defaults to a no-op. It lives in sim so
// tmc and tshmem report without an upward dependency.
//
// Contract: callbacks never advance a SimClock (outputs are bit-identical
// with any consumer attached; tools/ci.sh checks it). Every callback for a
// tile runs on that tile's thread in program order, stamped with its
// epoch-local clock. on_clock_reset runs only at reset_clocks()'s
// single-threaded safe points, so a consumer may read every tile's final
// clock there. Every arrive of a rendezvous returns before any release.
// Attaching a consumer never changes how the host runs a job: the linear
// token barrier's host rendezvous reports the records its token messages
// would (Context::barrier_linear).
//
// Outside src/obs/, report through ProbeSpan and the probe_* helpers (one
// check and a branch with no consumer); lint rule R005 flags the rest.
#pragma once

#include <cstdint>
#include <iterator>
#include <vector>

#include "sim/device.hpp"

namespace tilesim {

/// What a tile was doing: names every span, wait edge and point event.
enum class ProbeKind : std::uint8_t {
  kPut = 0,       ///< blocking shmem_put family
  kGet,           ///< blocking shmem_get family
  kPutNbi,        ///< non-blocking put issue
  kGetNbi,        ///< non-blocking get issue
  kQuiet,         ///< shmem_quiet completion
  kFence,         ///< shmem_fence
  kBarrier,       ///< shmem_barrier / barrier_all exit; TMC barrier release
  kBroadcast,     ///< broadcast collective exit
  kCollect,       ///< collect / fcollect exit
  kReduce,        ///< reduction exit
  kAtomic,        ///< atomic memory operation
  kLock,          ///< set/clear/test lock completion
  kAlloc,         ///< shmalloc / shrealloc / shmemalign
  kFree,          ///< shfree
  kCtrlSend,      ///< TSHMEM control-message send
  kCtrlRecv,      ///< TSHMEM control-message consume (tag-matched)
  kWaitBegin,     ///< entered a bounded blocking wait (guarded_wait/spin)
  kWaitEnd,       ///< left a bounded blocking wait; shmem_wait_until
  kUdnSend,       ///< UDN packet injected
  kUdnRecv,       ///< UDN packet consumed (clock-advancing receive)
  kDmaIssue,      ///< DMA descriptor posted
  kDmaDrain,      ///< DMA queue drained (quiet)
  kInterrupt,     ///< UDN interrupt serviced on a remote tile
  kFaultRetry,    ///< recovery retry (UDN backoff, cmem remap, ...)
  kError,         ///< structured tshmem::Error raised at this PE
  kSvcArrival,    ///< serving: query arrived
  kSvcComplete,   ///< serving: query completed
  kSvcShed,       ///< serving: query shed
  kSvcDegraded,   ///< serving: shard marked degraded
  kSvcRecovered,  ///< serving: shard recovered
  kSvcBatch,      ///< serving: batch dispatched to a shard
  kSvcCrash,      ///< serving: replica died (kShardCrash / kReplicaFlap)
  kSvcFailover,   ///< serving: queries moved to a surviving replica
  kSvcFailback,   ///< serving: a primary replica resumed serving
  kSvcDeadlineDrop,  ///< serving: admission control dropped a query
};  // kProbeKinds below names each kind, in this order

/// Where a PE's virtual time goes: the profiler's seven phases.
enum class ProfPhase : std::uint8_t {
  kCompute = 0,  ///< residual — time under no span
  kUdn,          ///< UDN receive / control-message wait
  kDma,          ///< data movement: put/get, NBI issue, quiet drain
  kBarrier,      ///< barrier algorithms (token, broadcast-release, spin)
  kCollective,   ///< broadcast / collect / reduce phases
  kLock,         ///< atomics and OpenSHMEM locks
  kWait,         ///< shmem_wait_until and other guarded waits
};

inline constexpr int kProfPhaseCount = 7;

[[nodiscard]] constexpr const char* prof_phase_name(ProfPhase p) noexcept {
  switch (p) {
    case ProfPhase::kCompute: return "compute";
    case ProfPhase::kUdn: return "udn_wait";
    case ProfPhase::kDma: return "dma";
    case ProfPhase::kBarrier: return "barrier";
    case ProfPhase::kCollective: return "collective";
    case ProfPhase::kLock: return "lock";
    case ProfPhase::kWait: return "guarded_wait";
  }
  return "?";
}

/// The kind table, in ProbeKind order: each kind's name (flight-recorder
/// dumps, "event.<name>" time series) and the phase it profiles as.
struct ProbeKindInfo {
  const char* name;
  ProfPhase phase;
};

inline constexpr ProbeKindInfo kProbeKinds[] = {
    {"put", ProfPhase::kDma},
    {"get", ProfPhase::kDma},
    {"put_nbi", ProfPhase::kDma},
    {"get_nbi", ProfPhase::kDma},
    {"quiet", ProfPhase::kDma},
    {"fence", ProfPhase::kDma},
    {"barrier", ProfPhase::kBarrier},
    {"broadcast", ProfPhase::kCollective},
    {"collect", ProfPhase::kCollective},
    {"reduce", ProfPhase::kCollective},
    {"atomic", ProfPhase::kLock},
    {"lock", ProfPhase::kLock},
    {"alloc", ProfPhase::kCompute},
    {"free", ProfPhase::kCompute},
    {"ctrl_send", ProfPhase::kUdn},
    {"ctrl_recv", ProfPhase::kUdn},
    {"wait_begin", ProfPhase::kWait},
    {"wait_end", ProfPhase::kWait},
    {"udn_send", ProfPhase::kUdn},
    {"udn_recv", ProfPhase::kUdn},
    {"dma_issue", ProfPhase::kDma},
    {"dma_drain", ProfPhase::kDma},
    {"interrupt", ProfPhase::kDma},
    {"fault_retry", ProfPhase::kCompute},
    {"error", ProfPhase::kCompute},
    {"svc_arrival", ProfPhase::kCompute},
    {"svc_complete", ProfPhase::kCompute},
    {"svc_shed", ProfPhase::kCompute},
    {"svc_degraded", ProfPhase::kCompute},
    {"svc_recovered", ProfPhase::kCompute},
    {"svc_batch", ProfPhase::kCompute},
    {"svc_crash", ProfPhase::kCompute},
    {"svc_failover", ProfPhase::kCompute},
    {"svc_failback", ProfPhase::kCompute},
    {"svc_deadline_drop", ProfPhase::kCompute},
};

inline constexpr int kProbeKindCount = 35;
static_assert(std::size(kProbeKinds) == kProbeKindCount);

[[nodiscard]] constexpr const char* probe_kind_name(ProbeKind k) noexcept {
  return kProbeKinds[static_cast<std::size_t>(k)].name;
}

[[nodiscard]] constexpr ProfPhase phase_of(ProbeKind k) noexcept {
  return kProbeKinds[static_cast<std::size_t>(k)].phase;
}

/// A point event: a tile did `kind` at `site` (a static string) at
/// epoch-local virtual time `vt`.
struct ProbeEvent {
  ProbeKind kind = ProbeKind::kPut;
  const char* site = "";
  ps_t vt = 0;
  int peer = -1;            ///< remote PE involved (-1 when none)
  std::uint64_t bytes = 0;  ///< payload size (or a kind-specific count)
  int errc = 0;             ///< tshmem::Errc value (0 = ok)
  /// kDmaIssue only: when the engine moves the descriptor's data.
  ps_t start_ps = 0;
  ps_t complete_ps = 0;
};

class Probe {
 public:
  Probe() = default;
  virtual ~Probe() = default;
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  /// Tile `tile` entered span (`kind`, `site`) at `now`; `site` is static.
  virtual void on_span_begin(int /*tile*/, ProbeKind /*kind*/,
                             const char* /*site*/, ps_t /*now*/) {}
  /// Tile `tile` left its innermost open span at `now`.
  virtual void on_span_end(int /*tile*/, ps_t /*now*/) {}
  /// Tile `tile`'s clock jumped from `from_ps` to `to_ps` (> from_ps)
  /// waiting on a timestamp produced by `src_tile` (-1 when unknown, the
  /// tile itself for its own DMA engine). `kind` classifies the wait when
  /// no span is open on the tile.
  virtual void on_wait_edge(int /*tile*/, int /*src_tile*/,
                            ProbeKind /*kind*/, const char* /*site*/,
                            ps_t /*from_ps*/, ps_t /*to_ps*/) {}
  virtual void on_event(int /*tile*/, const ProbeEvent& /*e*/) {}
  /// Tile `tile` arrived at rendezvous instance (`barrier`, `generation`).
  virtual void on_rendezvous_arrive(const void* /*barrier*/,
                                    std::uint64_t /*generation*/,
                                    int /*tile*/) {}
  /// Tile `tile` left the same instance; `parties` is its size.
  virtual void on_rendezvous_release(const void* /*barrier*/,
                                     std::uint64_t /*generation*/,
                                     int /*tile*/, int /*parties*/) {}
  /// Every tile clock is about to reset to zero (epoch boundary); the
  /// clocks still hold the finished epoch's final values.
  virtual void on_clock_reset() {}
};

/// One op, named once: reports span begin at construction and end at
/// destruction, and event() reports the op's point event under the same
/// kind and site. `site` must be static.
class ProbeSpan {
 public:
  ProbeSpan(const Tile& tile, ProbeKind kind, const char* site)
      : probes_(tile.device().probes()), tile_(tile), kind_(kind),
        site_(site) {
    for (Probe* p : probes_) {
      p->on_span_begin(tile.id(), kind, site, tile.clock().now());
    }
  }

  ~ProbeSpan() {
    for (Probe* p : probes_) p->on_span_end(tile_.id(), tile_.clock().now());
  }

  ProbeSpan(const ProbeSpan&) = delete;
  ProbeSpan& operator=(const ProbeSpan&) = delete;

  void event(ps_t vt, int peer = -1, std::uint64_t bytes = 0) const {
    for (Probe* p : probes_) {
      p->on_event(tile_.id(), {kind_, site_, vt, peer, bytes});
    }
  }

 private:
  const std::vector<Probe*>& probes_;
  const Tile& tile_;
  ProbeKind kind_;
  const char* site_;
};

inline void probe_event(const Tile& tile, const ProbeEvent& e) {
  for (Probe* p : tile.device().probes()) p->on_event(tile.id(), e);
}

/// Reports PE `pe`'s event to consumers that have no Device (the svc serve
/// loop's recorder and time series).
inline void probe_event(const std::vector<Probe*>& probes, int pe,
                        const ProbeEvent& e) {
  for (Probe* p : probes) p->on_event(pe, e);
}

/// Reports a wait edge (nothing when the clock did not actually jump).
inline void probe_wait_edge(const Tile& tile, int src_tile, ProbeKind kind,
                            const char* site, ps_t from_ps, ps_t to_ps) {
  if (to_ps <= from_ps) return;
  for (Probe* p : tile.device().probes()) {
    p->on_wait_edge(tile.id(), src_tile, kind, site, from_ps, to_ps);
  }
}

inline void probe_rendezvous_arrive(const Device& device, const void* barrier,
                                    std::uint64_t generation, int tile) {
  for (Probe* p : device.probes()) {
    p->on_rendezvous_arrive(barrier, generation, tile);
  }
}

inline void probe_rendezvous_release(const Device& device,
                                     const void* barrier,
                                     std::uint64_t generation, int tile,
                                     int parties) {
  for (Probe* p : device.probes()) {
    p->on_rendezvous_release(barrier, generation, tile, parties);
  }
}

inline void probe_clock_reset(const Device& device) {
  for (Probe* p : device.probes()) p->on_clock_reset();
}

}  // namespace tilesim
