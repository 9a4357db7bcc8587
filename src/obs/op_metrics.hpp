// Per-PE op metrics as a probe consumer: every shmem.* call, byte and
// virtual-latency metric (docs/OBSERVABILITY.md), computed from the spans
// and events Context reports anyway. An op with a latency histogram counts
// its call when its span begins and records the span's duration when it
// ends, so a call that throws still counts, with its partial wait; every
// other count comes from the op's event. Nothing here advances a clock.
// Every callback for a PE runs on that PE's thread (the Probe contract),
// and no one else writes these metrics, so a PE's cells are owner-written:
// Counter::owner_add and Log2Histogram::owner_record, never a locked
// read-modify-write.
#pragma once

#include <array>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/probe.hpp"

namespace obs {

class OpMetrics final : public tilesim::Probe {
 public:
  OpMetrics(const tilesim::Device& device, MetricsRegistry& registry);

  /// Between runs: resolves PEs [0, npes)'s handles, registering each
  /// metric at zero so every job reports the whole catalogue, and clears
  /// per-tile state.
  void begin_job(int npes);

  void on_span_begin(int tile, tilesim::ProbeKind kind, const char* site,
                     tilesim::ps_t now) override;
  void on_span_end(int tile, tilesim::ps_t now) override;
  void on_event(int tile, const tilesim::ProbeEvent& e) override;

 private:
  template <typename T>
  using PerKind = std::array<T*, tilesim::kProbeKindCount>;

  /// Written only by the tile's own thread (the Probe contract), and so
  /// are the registry cells it points at.
  struct alignas(64) Pe {
    PerKind<Counter> calls{};
    PerKind<Counter> bytes{};
    PerKind<Log2Histogram> latency{};
    Counter* nbi_retired = nullptr;
    Gauge* nbi_queue_depth = nullptr;
    Log2Histogram* nbi_quiet_wait = nullptr;
    Log2Histogram* nbi_overlap = nullptr;
    /// Open spans: the latency histogram (or null) and the begin clock.
    std::vector<std::pair<Log2Histogram*, tilesim::ps_t>> open;
    std::int64_t dma_pending = 0;   ///< descriptors issued since the drain
    tilesim::ps_t dma_busy_ps = 0;  ///< their summed transfer time
  };

  const tilesim::Device* device_;
  MetricsRegistry* registry_;
  std::vector<Pe> pes_;
};

}  // namespace obs
