// tshmem-check: a vector-clock happens-before race detector operating in
// *virtual time* over the symmetric heap (docs/ANALYSIS.md).
//
// Why a custom detector: ThreadSanitizer sees host threads and host
// synchronization, so a shmem_put that lands before the target PE's
// shmem_barrier_all is invisible to it — host-eager data movement means
// the host ordering is always "fine" even when the SHMEM-level ordering
// is a race. tshmem-check instead tracks the *modeled* happens-before
// relation:
//   - barriers (UDN token protocols and the TMC spin barrier) join the
//     participants' clocks,
//   - every control message carries the sender's clock snapshot, so
//     collectives inherit exactly the edges their real communication
//     pattern creates,
//   - shmem_quiet joins a PE's DMA pseudo-actor back into the PE,
//     ordering `_nbi` buffer reuse,
//   - elemental (4/8-byte) puts publish a release clock on the target
//     granule and shmem_wait_until acquires it (point-to-point sync),
//   - atomics and locks are acquire-release operations on their target
//     granule.
// Shadow memory at a configurable granule (default 8 B) records the last
// writer/reader epochs per symmetric-heap granule with per-byte masks;
// a conflicting, unordered access pair produces a structured RaceReport.
//
// The detector is opt-in (RuntimeOptions::racecheck / TSHMEM_RACECHECK)
// and never touches a SimClock: virtual time is bit-identical with the
// detector on or off.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/vector_clock.hpp"
#include "sim/probe.hpp"

namespace tshmem::analysis {

/// Detector mode (RuntimeOptions::racecheck / TSHMEM_RACECHECK).
enum class RaceMode : std::uint8_t {
  kOff = 0,     ///< no detector (zero cost)
  kReport = 1,  ///< collect RaceReports (Runtime::race_reports())
  kFail = 2,    ///< kReport + throw Error(kRaceDetected) after the run
};

enum class AccessKind : std::uint8_t { kRead = 0, kWrite = 1, kAtomic = 2 };

[[nodiscard]] const char* access_kind_name(AccessKind k) noexcept;

/// One side of a racing pair.
struct RaceEndpoint {
  int pe = -1;           ///< owning PE of the acting engine
  bool via_dma = false;  ///< access performed by the PE's DMA engine (_nbi)
  AccessKind kind = AccessKind::kRead;
  std::string site;           ///< operation name, e.g. "shmem_put"
  std::uint64_t vt_ps = 0;    ///< virtual timestamp of the access
};

/// A conflicting, unordered access pair on the symmetric heap. Reports are
/// canonicalized (endpoint order, merged extents) so the set returned by
/// RaceDetector::reports() is deterministic across host thread schedules.
struct RaceReport {
  RaceEndpoint first;   ///< canonical order: see RaceDetector::reports()
  RaceEndpoint second;
  int owner_pe = -1;        ///< PE whose copy of the object conflicted
  bool is_static = false;   ///< static arena vs dynamic partition
  std::uint64_t offset = 0; ///< lowest conflicting byte offset in the region
  std::uint64_t bytes = 0;  ///< extent of the conflicting range
  std::string suggestion;   ///< the sync op that would order the pair

  /// One-line human-readable rendering (stable; used by bench/ext_races
  /// and the determinism tests).
  [[nodiscard]] std::string describe() const;
};

[[nodiscard]] bool operator==(const RaceEndpoint& a, const RaceEndpoint& b);
[[nodiscard]] bool operator==(const RaceReport& a, const RaceReport& b);

/// JSON exporter ("tshmem.races.v1" schema).
void write_race_reports_json(std::ostream& os,
                             const std::vector<RaceReport>& reports);

class RaceDetector final : public tilesim::Probe {
 public:
  struct Options {
    std::size_t granule = 8;       ///< shadow granule, bytes; [1, 64]
    std::size_t max_reports = 256; ///< distinct reports kept (rest counted)
  };

  /// Granules the shadow memory supports: powers of two in [1, 64].
  [[nodiscard]] static constexpr bool valid_granule(std::size_t g) noexcept {
    return g >= 1 && g <= 64 && (g & (g - 1)) == 0;
  }

  /// Host-side accounting; scraped into `analysis.*` metrics.
  struct Stats {
    std::uint64_t checked_accesses = 0;  ///< instrumented accesses observed
    std::uint64_t checked_granules = 0;  ///< shadow cells examined
    std::uint64_t sync_edges = 0;        ///< happens-before joins performed
    std::uint64_t race_pairs = 0;        ///< raw conflicting pairs observed
    std::uint64_t dropped_reports = 0;   ///< pairs beyond max_reports keys
  };

  explicit RaceDetector(int npes);
  RaceDetector(int npes, Options opts);

  RaceDetector(const RaceDetector&) = delete;
  RaceDetector& operator=(const RaceDetector&) = delete;

  /// Registers a symmetric region (one call per PE partition / arena).
  /// Accesses outside every registered region are ignored.
  void add_region(int owner_pe, bool is_static, std::byte* base,
                  std::size_t bytes);

  // --- data accesses -------------------------------------------------------
  /// An access by PE `pe` (or, with via_dma, by its DMA engine) to
  /// [p, p+bytes). Non-symmetric addresses are ignored.
  void on_access(int pe, bool via_dma, AccessKind kind, const void* p,
                 std::size_t bytes, const char* site, std::uint64_t vt_ps);

  /// A non-blocking transfer issued to the PE's DMA engine: the engine
  /// (pseudo-actor) inherits the issuing PE's clock, then performs a read
  /// of `read_side` and a write of `write_side` that stay unordered with
  /// the PE's subsequent program until on_quiet.
  void on_nbi_issue(int pe, const void* read_side, const void* write_side,
                    std::size_t bytes, const char* site,
                    std::uint64_t issue_ps, std::uint64_t complete_ps);

  // --- synchronization edges ----------------------------------------------
  /// shmem_quiet: joins the PE's DMA pseudo-actor clock into the PE.
  void on_quiet(int pe);

  /// Control-message channel (UDN demux queues): the sender's clock
  /// snapshot rides a per-(src, dst, queue) FIFO keyed by tag; the
  /// receiver joins the exact snapshot of the message it consumed, so the
  /// detector follows the protocol's real communication edges.
  void on_ctrl_send(int src_pe, int dst_pe, int queue, int tag);
  void on_ctrl_consume(int dst_pe, int src_pe, int queue, int tag);

  /// Release-publish on the granule holding `p` (elemental puts; the
  /// writing PE's clock is joined into the granule's release clock).
  void on_release(int pe, const void* p);
  /// Acquire from the granule holding `p` (shmem_wait_until observers).
  void on_acquire(int pe, const void* p);

  /// Atomic op on `p`: acquire + shadow check (atomic kind) + release.
  void on_atomic(int pe, const void* p, std::size_t bytes, const char* site,
                 std::uint64_t vt_ps);

  /// shfree/shrealloc: forget shadow state and release clocks for the
  /// range (stale epochs on recycled blocks must not produce reports).
  void on_heap_free(const void* p, std::size_t bytes);

  // --- Probe: rendezvous (TMC spin/sync barriers, Device::host_sync) ------
  void on_rendezvous_arrive(const void* barrier, std::uint64_t generation,
                            int tile) override;
  void on_rendezvous_release(const void* barrier, std::uint64_t generation,
                             int tile, int parties) override;

  // --- results -------------------------------------------------------------
  /// Deduplicated reports in a canonical, schedule-independent order.
  [[nodiscard]] std::vector<RaceReport> reports() const;
  [[nodiscard]] Stats stats() const;

  [[nodiscard]] int npes() const noexcept { return npes_; }
  [[nodiscard]] std::size_t granule() const noexcept { return opts_.granule; }

  /// Current clock of actor `a` (PE a, or npes + pe for a DMA engine);
  /// exposed for the unit tests.
  [[nodiscard]] VectorClock clock_of(int actor) const;

 private:
  /// One recorded access epoch in a shadow cell. `mask` marks the bytes of
  /// the granule the access covered (granule <= 64 keeps it in a word):
  /// disjoint-byte accesses to one granule must not be reported.
  struct AccessRec {
    std::int32_t actor = -1;
    AccessKind kind = AccessKind::kRead;
    std::uint64_t clk = 0;
    std::uint64_t vt_ps = 0;
    const char* site = "";
    std::uint64_t mask = 0;
  };

  struct Cell {
    std::vector<AccessRec> writers;  // includes atomics (kind disambiguates)
    std::vector<AccessRec> readers;
  };

  struct Region {
    int owner_pe;
    bool is_static;
    std::byte* base;
    std::size_t bytes;
    std::unordered_map<std::uint64_t, Cell> cells;  // granule index -> cell
  };

  struct Resolved {
    Region* region = nullptr;
    std::size_t offset = 0;  // byte offset within the region
  };

  /// Dedup key: the unordered pair of (pe, via_dma, kind, site) endpoints
  /// plus the region. Merged values keep component-wise minima so the
  /// final report is independent of which access was observed second.
  struct PairKey {
    int region;
    std::int32_t actor_a, actor_b;
    std::uint8_t kind_a, kind_b;
    std::string site_a, site_b;
    bool operator<(const PairKey& o) const;
  };
  struct PairAgg {
    std::uint64_t min_offset;
    std::uint64_t max_end;
    std::uint64_t vt_a;
    std::uint64_t vt_b;
  };

  [[nodiscard]] Resolved resolve(const void* p) noexcept;
  [[nodiscard]] int dma_actor(int pe) const noexcept { return npes_ + pe; }
  void record_conflict(std::size_t region_idx, const AccessRec& prev,
                       const AccessRec& cur, std::uint64_t offset,
                       std::uint64_t end);
  void access_locked(int actor, AccessKind kind, const Resolved& r,
                     std::size_t bytes, const char* site,
                     std::uint64_t vt_ps);
  [[nodiscard]] static std::uint64_t byte_mask(std::size_t first,
                                               std::size_t last);

  int npes_;
  Options opts_;

  mutable std::mutex mu_;
  std::vector<VectorClock> clocks_;  // [0, npes): PEs; [npes, 2*npes): DMA
  std::vector<Region> regions_;

  // Release clocks per (region, granule) — elemental puts, atomics, locks.
  std::map<std::pair<int, std::uint64_t>, VectorClock> release_clocks_;

  // Control-message clock snapshots: (src, dst, queue) -> FIFO of
  // (tag, snapshot). Matching is protocol-determined, hence deterministic.
  std::map<std::uint64_t, std::deque<std::pair<int, VectorClock>>> channels_;

  // Rendezvous all-join slots: (barrier, generation) -> accumulator.
  struct RendezvousSlot {
    VectorClock joined;
    int released = 0;
  };
  std::map<std::pair<const void*, std::uint64_t>, RendezvousSlot>
      rendezvous_;

  std::map<PairKey, PairAgg> pairs_;
  Stats stats_;
};

}  // namespace tshmem::analysis
