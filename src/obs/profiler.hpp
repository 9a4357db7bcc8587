// Virtual-time critical-path profiler (ISSUE 7 tentpole).
//
// A tilesim::Probe consumer (sim/probe.hpp). Records per-PE span
// stacks (compute / UDN wait / DMA / barrier / collective / lock / guarded
// wait) plus wait-for edges — "PE d's clock jumped from A to B waiting on a
// timestamp produced by PE s" — and computes the critical path of a run:
// the chain of ops and PEs that bounds completion virtual time.
//
// Epoch model: every Device::reset_clocks() closes an *epoch* (a
// measurement phase between clock zeroes). The profiler reads each tile's
// final clock at that single-threaded safe point, integrates the epoch's
// span timeline into per-phase totals, folds self-times into cumulative
// flamegraph stacks, accumulates wait-edge totals, walks the critical path
// backward from the last-finishing PE, and keeps the path of the longest
// epoch seen so far. report() additionally folds the still-open tail epoch
// non-destructively (on copies), so it can be called after the last run
// without an explicit reset.
//
// Contract (CI-enforced, like metrics and tshmem-check): the profiler
// never advances a SimClock — every fig03–fig14 output is bit-identical
// with TSHMEM_PROFILE on or off.
//
// Exports (docs/PROFILING.md):
//   - write_profile_json: "tshmem.profile.v1" summary (per-phase totals,
//     critical-path segments, top-k wait edges);
//   - write_profile_folded: collapsed stacks ("pe0;barrier:shmem_barrier N")
//     for flamegraph.pl / speedscope / inferno;
//   - profile_flow_events: Perfetto flow arrows for the critical path's
//     wait edges, layered onto the trace log's Chrome trace export.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/exporters.hpp"
#include "sim/probe.hpp"

namespace obs {

inline constexpr const char* kProfileSchema = "tshmem.profile.v1";

/// Per-(phase, site) virtual-time attribution, aggregated across PEs and
/// epochs. `self_ps` excludes nested spans; `total_ps` includes them.
struct ProfileSite {
  std::string phase;
  std::string site;
  std::uint64_t calls = 0;
  ps_t self_ps = 0;
  ps_t total_ps = 0;
};

/// Aggregated wait-for edge: PE `dst_pe` spent `wait_ps` (over `count`
/// waits) blocked on timestamps produced by `src_pe` at `site`. src_pe is
/// -1 when the producer is unknown (pure delivery waits).
struct ProfileWaitEdge {
  int dst_pe = 0;
  int src_pe = -1;
  std::string site;
  std::uint64_t count = 0;
  ps_t wait_ps = 0;
};

/// One segment of the critical path, in forward virtual-time order.
/// kind "local": PE `pe` was executing (phase = dominant phase over the
/// interval). kind "wait": PE `pe` was blocked on `src_pe` at `site`; for
/// cross-PE edges the path hops to the producer, so the wait itself is
/// off-path attribution (the arrow Perfetto draws).
struct CritSegment {
  std::string kind;  ///< "local" | "wait"
  int pe = 0;
  int src_pe = -1;
  std::string phase;
  std::string site;
  ps_t from_ps = 0;
  ps_t to_ps = 0;
};

/// Everything report() derives; serialized by the exporters below.
struct ProfileReport {
  int npes = 0;
  std::uint64_t epochs = 0;
  ps_t total_vt_ps = 0;  ///< sum over epochs of max-PE completion vt
  std::uint64_t dropped_events = 0;

  /// Per-phase virtual-time totals across all PEs/epochs, indexed by
  /// tilesim::ProfPhase. "compute" is the residual under no open span.
  std::array<ps_t, tilesim::kProfPhaseCount> phase_ps{};
  /// Per-PE totals, same indexing; only PEs with activity appear.
  std::vector<std::pair<int, std::array<ps_t, tilesim::kProfPhaseCount>>>
      pe_phase_ps;

  std::vector<ProfileSite> sites;          ///< sorted by total_ps desc, name
  std::vector<ProfileWaitEdge> top_edges;  ///< sorted by wait_ps desc, top-k

  /// Critical path of the longest epoch, which starts `crit_epoch_base_ps`
  /// into the run (the earlier epochs' summed virtual time; not exported
  /// to JSON, it places the path on the trace log's timeline).
  ps_t crit_epoch_vt_ps = 0;
  ps_t crit_epoch_base_ps = 0;
  std::vector<CritSegment> critical_path;
  std::array<ps_t, tilesim::kProfPhaseCount> crit_phase_ps{};
  std::string dominant_phase;   ///< phase with the largest on-path share
  double dominant_share = 0.0;  ///< its fraction of on-path virtual time

  /// Collapsed flamegraph stacks: "pe0;barrier:shmem_barrier" -> self ps.
  std::map<std::string, ps_t> folded;
};

/// The profiler. Attach with Device::attach_probe; one instance per
/// Device. All span/edge callbacks for a PE arrive from that PE's own host
/// thread; epoch folding happens at reset_clocks()'s single-threaded safe
/// points (per-PE mutexes keep the handoff TSan-clean).
class Profiler final : public tilesim::Probe {
 public:
  explicit Profiler(const tilesim::Device& device);
  ~Profiler() override;

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  void on_span_begin(int tile, tilesim::ProbeKind kind, const char* site,
                     ps_t now) override;
  void on_span_end(int tile, ps_t now) override;
  void on_wait_edge(int tile, int src_tile, tilesim::ProbeKind kind,
                    const char* site, ps_t from_ps, ps_t to_ps) override;
  void on_clock_reset() override;

  /// Builds the cumulative report, folding the still-open tail epoch on a
  /// snapshot copy (the live state is untouched, so more runs may follow).
  /// Call from outside Device::run() only.
  [[nodiscard]] ProfileReport report() const;

  /// How many wait edges to keep in ProfileReport::top_edges.
  void set_top_k(std::size_t k) noexcept { top_k_ = k; }

 private:
  struct OpenSpan {
    tilesim::ProfPhase phase;
    const char* site;
    ps_t begin_ps;
    ps_t child_ps;  ///< virtual time consumed by nested spans
  };

  struct Edge {
    int src;
    tilesim::ProfPhase phase;
    const char* site;
    ps_t from_ps;
    ps_t to_ps;
  };

  /// State of the current (open) epoch for one PE. Written only by the
  /// owning PE's thread; read/consumed at epoch boundaries.
  struct PeEpoch {
    std::vector<OpenSpan> stack;
    /// Piecewise-constant innermost phase: (vt, phase-after-vt) change
    /// points; phase before the first entry is kCompute.
    std::vector<std::pair<ps_t, std::uint8_t>> timeline;
    std::vector<Edge> edges;  ///< to_ps monotone in program order
  };

  /// Cumulative (across epochs) state for one PE.
  struct PeCum {
    std::array<ps_t, tilesim::kProfPhaseCount> phase_ps{};
    std::map<std::pair<std::uint8_t, std::string>, ProfileSite> agg;
    std::map<std::string, ps_t> folded;
    /// (src_pe, site) -> (count, wait_ps)
    std::map<std::pair<int, std::string>,
             std::pair<std::uint64_t, ps_t>>
        edge_agg;
    std::uint64_t dropped = 0;
  };

  struct Globals {
    ps_t total_vt_ps = 0;
    std::uint64_t epochs = 0;
    ps_t best_epoch_vt = 0;
    ps_t best_epoch_base = 0;
    std::vector<CritSegment> best_path;
    std::array<ps_t, tilesim::kProfPhaseCount> best_crit{};
  };

  struct PeState {
    mutable std::mutex mu;
    PeEpoch epoch;
    PeCum cum;
  };

  /// Pops PE `pe`'s innermost open span at `end`, attributing it to `c`;
  /// returns the phase now innermost (the timeline's next value).
  static std::uint8_t close_span(int pe, PeEpoch& ep, PeCum& c, ps_t end);

  /// Folds one finished epoch (final_vts = per-PE completion clocks) into
  /// `cum`/`g`. Consumes `epochs` (timelines walked, stacks force-closed).
  static void fold_epoch(const std::vector<ps_t>& final_vts,
                         std::vector<PeEpoch>& epochs,
                         std::vector<PeCum*>& cum, Globals& g);

  static void critical_path(const std::vector<ps_t>& final_vts,
                            const std::vector<PeEpoch>& epochs, ps_t total,
                            std::vector<CritSegment>& path,
                            std::array<ps_t, tilesim::kProfPhaseCount>& attr);

  [[nodiscard]] std::vector<ps_t> final_clock_snapshot() const;

  const tilesim::Device* device_;
  std::vector<std::unique_ptr<PeState>> pes_;
  mutable std::mutex global_mu_;  ///< guards globals_ and epoch folding
  Globals globals_;
  std::size_t top_k_ = 16;
};

/// Writes the "tshmem.profile.v1" JSON summary. Deterministic: fixed key
/// order, sorted containers, fixed-precision floats.
void write_profile_json(std::ostream& os, const ProfileReport& report);

/// Writes collapsed-stack lines ("stack;frames self_ps"), sorted by stack.
void write_profile_folded(std::ostream& os, const ProfileReport& report);

/// Perfetto flow arrows for the critical path's wait edges (one "s"/"f"
/// pair per wait segment), on the trace log's run timeline, for layering
/// onto write_chrome_trace_json.
[[nodiscard]] std::vector<TraceFlow> profile_flow_events(
    const ProfileReport& report, int pid, std::uint64_t first_id = 0);

}  // namespace obs
