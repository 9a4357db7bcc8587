// Virtual-time metrics core (ISSUE 2 tentpole).
//
// The paper's evaluation is built on per-tile device-time measurement, and
// Tilera's Eclipse IDE shipped per-tile state trackers (paper §III). This
// subsystem is the library equivalent: a process-wide MetricsRegistry owns
// per-PE counters, gauges, and log2-bucketed virtual-time histograms that
// the runtime, tmc, and sim layers feed. Everything here is host-side only
// — recording a metric never touches a SimClock, so enabling metrics can
// never perturb modeled virtual-time results (the same contract as
// RuntimeOptions::validate_symmetry).
//
// Hot-path cost: a metric handle is a stable pointer resolved once through
// the sharded registry; updates are relaxed atomics on that handle. The
// registry itself is lock-sharded so concurrent registration from many PE
// threads does not serialize.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/units.hpp"

namespace obs {

using tshmem_util::ps_t;

// ===========================================================================
// Instruments
// ===========================================================================

/// Monotone event/byte counter.
class Counter {
 public:
  void add(std::uint64_t delta) noexcept {
    v_.fetch_add(delta, std::memory_order_relaxed);
  }
  void inc() noexcept { add(1); }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Instantaneous signed level (bytes in use, blocks live, ...).
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    v_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t delta) noexcept {
    v_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Log2-bucketed histogram of unsigned samples (virtual-time durations in
/// ps, transfer sizes in bytes). Bucket 0 holds exact zeros; bucket b >= 1
/// holds samples in [2^(b-1), 2^b - 1] — i.e. the bucket index is the bit
/// width of the sample. 64-bit samples therefore need 65 buckets.
class Log2Histogram {
 public:
  static constexpr int kBuckets = 65;

  void record(std::uint64_t sample) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  /// Smallest/largest recorded sample; min() is UINT64_MAX and max() is 0
  /// while the histogram is empty.
  [[nodiscard]] std::uint64_t min() const noexcept {
    return min_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t max() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bucket_count(int bucket) const noexcept {
    return buckets_[static_cast<std::size_t>(bucket)].load(
        std::memory_order_relaxed);
  }

  /// Bucket index a sample lands in (the sample's bit width).
  [[nodiscard]] static int bucket_of(std::uint64_t sample) noexcept;
  /// Inclusive [lower, upper] value range of a bucket.
  [[nodiscard]] static std::uint64_t bucket_lower(int bucket) noexcept;
  [[nodiscard]] static std::uint64_t bucket_upper(int bucket) noexcept;

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~std::uint64_t{0}};
  std::atomic<std::uint64_t> max_{0};
  std::atomic<std::uint64_t> buckets_[kBuckets]{};
};

// ===========================================================================
// Snapshot (the stable, diffable view the JSON exporter serializes)
// ===========================================================================

struct CounterSample {
  std::string name;
  int pe = 0;
  std::uint64_t value = 0;

  friend bool operator==(const CounterSample&, const CounterSample&) = default;
};

struct GaugeSample {
  std::string name;
  int pe = 0;
  std::int64_t value = 0;

  friend bool operator==(const GaugeSample&, const GaugeSample&) = default;
};

struct HistogramBucket {
  int bucket = 0;  ///< log2 bucket index (see Log2Histogram)
  std::uint64_t count = 0;

  friend bool operator==(const HistogramBucket&,
                         const HistogramBucket&) = default;
};

struct HistogramSample {
  std::string name;
  int pe = 0;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;  ///< 0 when empty
  std::uint64_t max = 0;
  std::vector<HistogramBucket> buckets;  ///< only non-empty buckets

  friend bool operator==(const HistogramSample&,
                         const HistogramSample&) = default;
};

/// Point-in-time view of every metric, sorted by (name, pe) so two
/// snapshots (or their JSON dumps) diff cleanly across PRs.
struct MetricsSnapshot {
  std::string device;  ///< short device name ("gx36"); may be empty
  int npes = 0;
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  friend bool operator==(const MetricsSnapshot&,
                         const MetricsSnapshot&) = default;
};

// ===========================================================================
// Registry
// ===========================================================================

/// Lock-sharded owner of all per-PE metrics. Registration (name, pe) hashes
/// to one of `shards` independently locked maps; the returned handle is
/// stable for the registry's lifetime, so hot paths resolve once and then
/// update lock-free. Re-registering the same (name, pe) returns the same
/// instrument; re-registering under a different kind throws.
class MetricsRegistry {
 public:
  explicit MetricsRegistry(int shards = 16);
  ~MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  [[nodiscard]] Counter& counter(std::string_view name, int pe);
  [[nodiscard]] Gauge& gauge(std::string_view name, int pe);
  [[nodiscard]] Log2Histogram& histogram(std::string_view name, int pe);

  [[nodiscard]] std::size_t metric_count() const;

  /// Sorted, stable snapshot of every registered metric. `device`/`npes`
  /// annotate the snapshot header (exporter metadata).
  [[nodiscard]] MetricsSnapshot snapshot(std::string device = {},
                                         int npes = 0) const;

 private:
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };

  struct Cell {
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Log2Histogram> histogram;
  };

  struct Shard;

  Cell& cell_for(std::string_view name, int pe, Kind kind);

  std::vector<std::unique_ptr<Shard>> shards_;
};

// ===========================================================================
// Sanctioned instrumentation entry points (lint rule R005)
// ===========================================================================
//
// Instrumentation sites outside src/obs/ must resolve handles and mutate
// metrics through these helpers, not by calling MetricsRegistry::counter /
// gauge / histogram directly — tools/tshmem_lint.py rule R005 audits that,
// which keeps every instrumentation site greppable and reviewable in one
// place. (Inside src/obs/ and in tests the raw registry API is fine.)

/// Resolves a stable counter handle (hot paths resolve once, then update
/// lock-free through the pointer).
[[nodiscard]] inline Counter* counter_handle(MetricsRegistry& reg,
                                             std::string_view name, int pe) {
  return &reg.counter(name, pe);
}

[[nodiscard]] inline Log2Histogram* histogram_handle(MetricsRegistry& reg,
                                                     std::string_view name,
                                                     int pe) {
  return &reg.histogram(name, pe);
}

/// One-shot counter add for cold paths (scrapes, error paths) that have no
/// cached handle.
inline void add_count(MetricsRegistry& reg, std::string_view name, int pe,
                      std::uint64_t delta) {
  reg.counter(name, pe).add(delta);
}

/// One-shot gauge set for cold paths.
inline void set_level(MetricsRegistry& reg, std::string_view name, int pe,
                      std::int64_t v) {
  reg.gauge(name, pe).set(v);
}

}  // namespace obs
