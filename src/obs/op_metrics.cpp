#include "obs/op_metrics.hpp"

namespace obs {

namespace {

using tilesim::ProbeKind;

/// What each metered kind feeds: `calls` counts span begins when the kind
/// has a `latency`, else events; `bytes` sums the event's bytes.
struct Meter {
  ProbeKind kind;
  const char* calls;
  const char* bytes;
  const char* latency;
};

constexpr Meter kMeters[] = {
    {ProbeKind::kPut, "shmem.put.calls", "shmem.put.bytes",
     "shmem.put.latency_ps"},
    {ProbeKind::kGet, "shmem.get.calls", "shmem.get.bytes",
     "shmem.get.latency_ps"},
    {ProbeKind::kBarrier, "shmem.barrier.calls", nullptr,
     "shmem.barrier.wait_ps"},
    {ProbeKind::kBroadcast, "shmem.broadcast.calls", "shmem.broadcast.bytes",
     "shmem.collective.wait_ps"},
    {ProbeKind::kCollect, "shmem.collect.calls", "shmem.collect.bytes",
     "shmem.collective.wait_ps"},
    {ProbeKind::kReduce, "shmem.reduce.calls", "shmem.reduce.bytes",
     "shmem.collective.wait_ps"},
    // The only kWaitEnd span is shmem_wait_until's.
    {ProbeKind::kWaitEnd, "shmem.wait.calls", nullptr,
     "shmem.wait.latency_ps"},
    {ProbeKind::kAtomic, "shmem.atomic.calls", nullptr, nullptr},
    {ProbeKind::kLock, "shmem.lock.ops", nullptr, nullptr},
    {ProbeKind::kAlloc, "shmem.heap.alloc.calls", nullptr, nullptr},
    {ProbeKind::kFree, "shmem.heap.free.calls", nullptr, nullptr},
    {ProbeKind::kDmaIssue, "shmem.nbi.issued", "shmem.nbi.bytes", nullptr},
};

constexpr std::size_t at(ProbeKind k) { return static_cast<std::size_t>(k); }

}  // namespace

OpMetrics::OpMetrics(const tilesim::Device& device, MetricsRegistry& registry)
    : device_(&device),
      registry_(&registry),
      pes_(static_cast<std::size_t>(device.tile_count())) {}

void OpMetrics::begin_job(int npes) {
  for (int pe = 0; pe < static_cast<int>(pes_.size()); ++pe) {
    Pe& p = pes_[static_cast<std::size_t>(pe)];
    p.open.clear();
    p.dma_pending = 0;
    p.dma_busy_ps = 0;
    if (pe >= npes) continue;
    MetricsRegistry& reg = *registry_;
    for (const Meter& m : kMeters) {
      p.calls[at(m.kind)] = &reg.counter(m.calls, pe);
      if (m.bytes != nullptr) p.bytes[at(m.kind)] = &reg.counter(m.bytes, pe);
      if (m.latency != nullptr) {
        p.latency[at(m.kind)] = &reg.histogram(m.latency, pe);
      }
    }
    p.nbi_retired = &reg.counter("shmem.nbi.retired", pe);
    p.nbi_queue_depth = &reg.gauge("shmem.nbi.queue_depth", pe);
    p.nbi_quiet_wait = &reg.histogram("shmem.nbi.quiet_wait_ps", pe);
    p.nbi_overlap = &reg.histogram("shmem.nbi.overlap_pct", pe);
  }
}

void OpMetrics::on_span_begin(int tile, ProbeKind kind, const char* /*site*/,
                              tilesim::ps_t now) {
  Pe& p = pes_[static_cast<std::size_t>(tile)];
  Log2Histogram* latency = p.latency[at(kind)];
  if (latency != nullptr) p.calls[at(kind)]->inc();
  p.open.emplace_back(latency, now);
}

void OpMetrics::on_span_end(int tile, tilesim::ps_t now) {
  Pe& p = pes_[static_cast<std::size_t>(tile)];
  if (p.open.empty()) return;
  const auto [latency, begin] = p.open.back();
  p.open.pop_back();
  if (latency != nullptr) latency->record(now - begin);
}

void OpMetrics::on_event(int tile, const tilesim::ProbeEvent& e) {
  Pe& p = pes_[static_cast<std::size_t>(tile)];
  const std::size_t k = at(e.kind);
  if (p.latency[k] == nullptr && p.calls[k] != nullptr) p.calls[k]->inc();
  if (p.bytes[k] != nullptr) p.bytes[k]->add(e.bytes);
  if (e.kind == ProbeKind::kDmaIssue) {
    ++p.dma_pending;
    p.dma_busy_ps += e.complete_ps - e.start_ps;
    p.nbi_queue_depth->set(p.dma_pending);
  } else if (e.kind == ProbeKind::kDmaDrain) {
    // Reported before the drain merges its completion into the clock:
    // `bytes` is the retired count and `vt` the latest completion.
    const tilesim::ps_t before = device_->tile(tile).clock().now();
    const tilesim::ps_t wait = e.vt > before ? e.vt - before : 0;
    p.nbi_retired->add(e.bytes);
    p.nbi_queue_depth->set(0);
    p.nbi_quiet_wait->record(wait);
    if (p.dma_busy_ps > 0) {
      // How much of the engine's transfer time hid behind computation
      // since issue (100 = fully overlapped).
      const tilesim::ps_t hidden =
          p.dma_busy_ps > wait ? p.dma_busy_ps - wait : 0;
      p.nbi_overlap->record(100 * hidden / p.dma_busy_ps);
    }
    p.dma_pending = 0;
    p.dma_busy_ps = 0;
  }
}

}  // namespace obs
