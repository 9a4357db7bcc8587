// Telemetry exporters (ISSUE 2 tentpole).
//
// Two machine-readable views of a run:
//   - a metrics JSON dump of MetricsSnapshot(s) with a stable, sorted
//     schema ("tshmem.metrics.v1"), suitable for diffing across PRs and for
//     feeding BENCH_*.json comparison tooling;
//   - a Chrome trace-event / Perfetto JSON export of a TraceLog, the probe
//     consumer that logs op spans, wait intervals and NBI descriptors:
//     virtual picoseconds mapped to trace microseconds, one pid per device
//     run, one tid (track) per tile plus one per tile's DMA engine. Load in
//     https://ui.perfetto.dev or chrome://tracing.
#pragma once

#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/probe.hpp"

namespace obs {

inline constexpr const char* kMetricsSchema = "tshmem.metrics.v1";

/// One complete ("X") trace event on track `tid`, times on the run's
/// timeline. `cat` and `name` are static strings.
struct TraceEvent {
  int tid = 0;
  const char* cat = "";
  const char* name = "";
  tilesim::ps_t begin_ps = 0;
  tilesim::ps_t end_ps = 0;
};

/// One device run's timeline: `pid`/`process_name` label the trace process
/// (benches sweeping several devices emit one track group per device).
/// Tracks [0, tiles) are the tiles; tile t's DMA engine is track tiles + t.
struct TraceTrack {
  int pid = 0;
  std::string process_name;
  int tiles = 0;
  std::vector<TraceEvent> events;
};

/// Writes `{"schema": ..., "runs": [snapshot, ...]}`. Counters, gauges and
/// histograms are sorted by (name, pe) inside each run; keys are emitted in
/// a fixed order, so byte-level diffs of two dumps are meaningful.
void write_metrics_json(std::ostream& os,
                        const std::vector<MetricsSnapshot>& runs);

/// Single-run convenience overload.
void write_metrics_json(std::ostream& os, const MetricsSnapshot& snapshot);

/// A wait-for dependency rendered as a Perfetto flow arrow: producer
/// (src_tile @ src_ps) -> consumer (dst_tile @ dst_ps) inside process
/// `pid`. Emitted as paired "s"/"f" events by write_chrome_trace_json.
struct TraceFlow {
  int pid = 0;
  std::uint64_t id = 0;  ///< flow id, unique within the trace
  std::string name;
  int src_tile = 0;
  tilesim::ps_t src_ps = 0;
  int dst_tile = 0;
  tilesim::ps_t dst_ps = 0;
};

/// Writes Chrome trace-event JSON: "X" complete events, profiler wait-edge
/// flow arrows ("s"/"f" events), and process/thread metadata naming every
/// track an event uses. Timestamps/durations convert ps -> us (fractional).
void write_chrome_trace_json(std::ostream& os,
                             const std::vector<TraceTrack>& tracks,
                             const std::vector<TraceFlow>& flows = {});

/// The probe consumer behind --trace-json: logs the spans and wait edges
/// the profiler sees (category = profile phase or "wait_edge", name =
/// site) and each NBI descriptor's transfer on its tile's DMA track
/// ("nbi"). Epochs are laid end to end, each offset by the earlier epochs'
/// final clocks, as the flight recorder and profile_flow_events fold them.
class TraceLog final : public tilesim::Probe {
 public:
  explicit TraceLog(const tilesim::Device& device);

  void on_span_begin(int tile, tilesim::ProbeKind kind, const char* site,
                     tilesim::ps_t now) override;
  void on_span_end(int tile, tilesim::ps_t now) override;
  void on_wait_edge(int tile, int src_tile, tilesim::ProbeKind kind,
                    const char* site, tilesim::ps_t from_ps,
                    tilesim::ps_t to_ps) override;
  void on_event(int tile, const tilesim::ProbeEvent& e) override;
  void on_clock_reset() override;

  /// The run so far as trace process `pid`, events sorted by begin time;
  /// spans still open end at their tile's clock. Outside run() only.
  [[nodiscard]] TraceTrack track(int pid, std::string process_name) const;

 private:
  struct OpenSpan {
    const char* cat;
    const char* site;
    tilesim::ps_t begin_ps;  ///< epoch-local
  };

  /// Written only by the tile's own thread, and at the single-threaded
  /// on_clock_reset; the mutex keeps that handoff TSan-clean.
  struct PerTile {
    mutable std::mutex mu;
    std::vector<OpenSpan> stack;
    std::vector<TraceEvent> events;
    tilesim::ps_t base_ps = 0;  ///< this epoch's start on the run timeline
  };

  static void close_span(int t, PerTile& pt, tilesim::ps_t end_ps);

  const tilesim::Device* device_;
  std::vector<std::unique_ptr<PerTile>> tiles_;
};

/// JSON string escaping per RFC 8259 (shared with the exporters; exposed
/// for tests).
[[nodiscard]] std::string json_escape(std::string_view s);

}  // namespace obs
