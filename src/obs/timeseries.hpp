// Fixed-width virtual-time window aggregation (ISSUE 9 tentpole).
//
// A TimeSeries buckets named observations into consecutive windows of
// `window_ps` virtual picoseconds. Two ingestion forms:
//   - series_add: a counter delta (arrivals, sheds, retries, ...);
//   - series_sample: a value recorded into the window's log2 histogram
//     (latencies, barrier durations), with p50/p99/p999 extracted via
//     obs::quantiles at report time.
//
// As a tilesim::Probe consumer it counts every event in its kind's
// "event.<kind>" series and samples each kBarrier event's `bytes` (the
// barrier's virtual duration) as "shmem.barrier.ps". Each PE batches both
// for its current window and merges them under the lock only when its
// window advances.
//
// Storage is compact: a series keeps one (window, count) cell per
// non-empty window and, for its samples, one row per non-empty (window,
// log2 bucket), both in ascending window order. A report reads a window's
// rows as a sparse HistogramSample, which obs::latency_quantiles reads
// exactly as it reads the dense Log2Histogram of the same samples.
//
// Virtual times are epoch-local at ingestion: fold_epoch(extent), called
// by the device-attached form at every Device::reset_clocks(), offsets
// every later observation, so one run's phases line up on a single
// monotone timeline (the profiler's epoch model, docs/PROFILING.md).
//
// Host-side cost only, zero virtual cost: ingestion never touches a
// SimClock, and the recorder-on/off bit-identity loop in tools/ci.sh
// covers it. Outside src/obs/, report through tilesim::probe_event and
// the null-safe obs::ts_add / obs::ts_sample (lint rule R005).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/probe.hpp"

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

class TimeSeries final : public tilesim::Probe {
 public:
  /// Standalone form (the svc serve loop, unit tests): counts the events
  /// of PEs [0, npes); with no tile clocks it folds no epochs itself.
  /// `window_ps` must be positive.
  explicit TimeSeries(tilesim::ps_t window_ps, int npes = 1);

  /// Device-attached form: one event cell per tile, and on_clock_reset
  /// folds the finished epoch.
  TimeSeries(const tilesim::Device& device, tilesim::ps_t window_ps);

  /// Batched per PE: takes the lock only when the PE's window advances.
  /// Events of PEs outside the cells are dropped, as the recorder drops
  /// them.
  void on_event(int pe, const tilesim::ProbeEvent& e) override;
  void on_clock_reset() override;

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

  /// Epoch boundary: every later observation's vt is offset by the
  /// finished epoch's `extent`. Raw mutator under lint rule R005.
  void fold_epoch(tilesim::ps_t extent);

  [[nodiscard]] tilesim::ps_t epoch_base_ps() const;

  /// Stable snapshot: series sorted by name, windows by index, quantiles
  /// extracted from each window's samples. Folds in the events the PEs
  /// have batched, so call it while no PE runs.
  [[nodiscard]] TimeSeriesReport report() const;

 private:
  /// One non-empty window of a series: counter deltas plus samples.
  struct Cell {
    std::uint64_t window = 0;
    std::uint64_t count = 0;
    [[nodiscard]] std::uint64_t key() const { return window; }
  };

  /// The samples of one window that fell in one log2 bucket.
  struct Bucket {
    std::uint64_t window = 0;
    int bucket = 0;
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    [[nodiscard]] std::pair<std::uint64_t, int> key() const {
      return {window, bucket};
    }
  };

  /// Both vectors ascend by key(); every bucket's window has a cell.
  struct Series {
    std::vector<Cell> cells;
    std::vector<Bucket> buckets;
  };

  /// One PE's event counts and barrier samples for its current window,
  /// written only by the PE's own thread and flushed into series_ when the
  /// window advances.
  struct alignas(64) EventCell {
    std::uint64_t window = 0;
    bool dirty = false;
    std::array<std::uint64_t, tilesim::kProbeKindCount> counts{};
    std::vector<std::uint64_t> barrier_ps;  ///< kBarrier durations
  };

  /// Absolute window of epoch-local `vt`.
  [[nodiscard]] std::uint64_t window_of(tilesim::ps_t vt) const;
  /// Adds `value` to window `window`'s samples of `s` (not to its count).
  static void add_sample(Series& s, std::uint64_t window,
                         std::uint64_t value);
  void flush(EventCell& c) const;  ///< requires mu_

  tilesim::ps_t window_ps_;
  const tilesim::Device* device_ = nullptr;
  mutable std::mutex mu_;
  // Atomic, not mutex-guarded: on_event reads it for every event, while
  // folds only happen where no PE runs.
  std::atomic<tilesim::ps_t> epoch_base_ps_{0};
  // report() flushes the batched events: that changes where a count is
  // kept, not what a report shows.
  mutable std::map<std::string, Series> series_;
  mutable std::vector<EventCell> cells_;
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
