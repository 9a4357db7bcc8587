// Fixed-width virtual-time window aggregation (ISSUE 9 tentpole).
//
// A TimeSeries buckets named observations into consecutive windows of
// `window_ps` virtual picoseconds. Two ingestion forms:
//   - series_add: a counter delta (arrivals, sheds, retries, ...);
//   - series_sample: a value recorded into the window's log2 histogram
//     (latencies, barrier durations), with p50/p99/p999 extracted via
//     obs::quantiles at report time.
//
// Virtual times are epoch-local at ingestion: Device::reset_clocks()
// boundaries are folded in via fold_epoch(extent), which offsets every
// subsequent observation by the finished epoch's extent so one run's
// phases line up on a single monotone timeline (the profiler's epoch
// model, docs/PROFILING.md).
//
// Host-side cost only, zero virtual cost: ingestion never touches a
// SimClock, and the recorder-on/off bit-identity loop in tools/ci.sh
// covers it. Mutation outside src/obs/ must go through the null-safe
// obs::ts_add / obs::ts_sample helpers (lint rule R005).
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/config.hpp"

namespace obs {

inline constexpr const char* kTimeseriesSchema = "tshmem.timeseries.v1";

/// One window of one series, as reported.
struct SeriesWindow {
  std::uint64_t index = 0;        ///< window ordinal (start_ps / window_ps)
  tilesim::ps_t start_ps = 0;     ///< inclusive window start
  std::uint64_t count = 0;        ///< counter deltas + histogram samples
  bool has_samples = false;       ///< true when the histogram is populated
  std::uint64_t sum = 0;          ///< histogram sample sum
  std::uint64_t min = 0;          ///< histogram min (0 when empty)
  std::uint64_t max = 0;          ///< histogram max (0 when empty)
  std::uint64_t p50 = 0;
  std::uint64_t p99 = 0;
  std::uint64_t p999 = 0;
};

struct SeriesTimeline {
  std::string name;
  std::uint64_t total_count = 0;  ///< sum of window counts
  std::vector<SeriesWindow> windows;  ///< sorted by index; gaps elided
};

struct TimeSeriesReport {
  tilesim::ps_t window_ps = 0;
  std::vector<SeriesTimeline> series;  ///< sorted by name
};

class TimeSeries {
 public:
  /// `window_ps` must be positive.
  explicit TimeSeries(tilesim::ps_t window_ps);

  TimeSeries(const TimeSeries&) = delete;
  TimeSeries& operator=(const TimeSeries&) = delete;

  [[nodiscard]] tilesim::ps_t window_ps() const noexcept {
    return window_ps_;
  }

  /// Raw counter mutator: adds `delta` to series `name` in the window
  /// containing epoch-local virtual time `vt`. Call through obs::ts_add
  /// outside src/obs/ (lint rule R005).
  void series_add(const std::string& name, tilesim::ps_t vt,
                  std::uint64_t delta);

  /// Raw histogram mutator: records `value` into series `name`'s window
  /// histogram (and bumps its count). Call through obs::ts_sample outside
  /// src/obs/ (lint rule R005).
  void series_sample(const std::string& name, tilesim::ps_t vt,
                     std::uint64_t value);

  /// Raw bulk-counter mutator: adds `delta` directly to the cell of
  /// absolute window `window_index` (no epoch-base fold — the caller has
  /// already resolved the window). This is the FlightRecorder tap's flush
  /// path; it exists so the per-event hot path can batch counts per
  /// (PE, kind, window) instead of taking mu_ per event. Raw mutator under
  /// lint rule R005.
  void series_add_window(const std::string& name, std::uint64_t window_index,
                         std::uint64_t delta);

  /// Registers a callback invoked at the top of every report(), before the
  /// snapshot is taken. The FlightRecorder registers its tap flush here so
  /// batched event counts are always folded in no matter which call site
  /// asks for the report. Pass nullptr (default-constructed function) to
  /// clear.
  void set_flush_hook(std::function<void()> hook);

  /// Epoch boundary: every later observation's vt is offset by the
  /// finished epoch's `extent` (the max tile clock at reset). Raw mutator
  /// under lint rule R005; the FlightRecorder forwards its own fold here.
  void fold_epoch(tilesim::ps_t extent);

  [[nodiscard]] tilesim::ps_t epoch_base_ps() const;

  /// Stable snapshot: series sorted by name, windows by index, quantiles
  /// extracted from each window histogram.
  [[nodiscard]] TimeSeriesReport report() const;

 private:
  struct Cell {
    std::uint64_t count = 0;
    std::unique_ptr<Log2Histogram> hist;  ///< lazily created on first sample
  };

  Cell& cell_at(const std::string& name, tilesim::ps_t vt);

  tilesim::ps_t window_ps_;
  mutable std::mutex mu_;
  tilesim::ps_t epoch_base_ps_ = 0;
  std::map<std::string, std::map<std::uint64_t, Cell>> series_;
  std::function<void()> flush_hook_;  ///< guarded by mu_; run outside it
};

/// Writes the `tshmem.timeseries.v1` JSON document: schema, window width,
/// and every series timeline with per-window counts and quantiles. Keys are
/// emitted in a fixed order so byte-level diffs are meaningful.
void write_timeseries_json(std::ostream& os, const TimeSeriesReport& report);

/// Null-safe sanctioned entry points (the only way code outside src/obs/
/// may mutate a TimeSeries — lint rule R005).
inline void ts_add(TimeSeries* ts, const std::string& name, tilesim::ps_t vt,
                   std::uint64_t delta = 1) {
  if (ts != nullptr) ts->series_add(name, vt, delta);
}

inline void ts_sample(TimeSeries* ts, const std::string& name,
                      tilesim::ps_t vt, std::uint64_t value) {
  if (ts != nullptr) ts->series_sample(name, vt, value);
}

}  // namespace obs
