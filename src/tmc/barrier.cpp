#include "tmc/barrier.hpp"

#include <atomic>
#include <stdexcept>

#include "sim/probe.hpp"

namespace tmc {

VtBarrier::VtBarrier(int parties, ReleaseFn release_fn)
    : release_fn_(std::move(release_fn)),
      meet_(parties, "barrier wait",
            tilesim::RendezvousReport::kSyncAndWait) {
  if (!release_fn_) {
    throw std::invalid_argument("VtBarrier needs a release function");
  }
}

void VtBarrier::wait(Tile& self, int index) {
  const ps_t arrival = self.clock().now();
  meet_.arrive(self, index, [&](std::span<const ps_t> clocks,
                                std::span<const int> tiles) {
    // Name the latest arriver as the release's producer (the profiler's
    // edge). Ties keep the lowest member, the lowest tile, so the
    // attribution is the same on every schedule.
    std::size_t src = 0;
    for (std::size_t i = 1; i < clocks.size(); ++i) {
      if (clocks[i] > clocks[src]) src = i;
    }
    release_time_ = release_fn_(clocks[src], parties());
    release_src_ = tiles[src];
  });
  self.clock().advance_to(release_time_);
  tilesim::probe_wait_edge(self, release_src_, tilesim::ProbeKind::kBarrier,
                           "tmc_barrier", arrival, self.clock().now());
}

SpinBarrier::SpinBarrier(Device& device, int parties)
    : barrier_(parties,
               [cfg = &device.config()](ps_t max_arrival, int n) -> ps_t {
                 return max_arrival + model_latency_ps(*cfg, n);
               }) {}

ps_t SpinBarrier::model_latency_ps(const tilesim::DeviceConfig& cfg,
                                   int parties) {
  return cfg.barrier.spin_base_ps +
         static_cast<ps_t>(parties) * cfg.barrier.spin_per_tile_ps;
}

SyncBarrier::SyncBarrier(Device& device, int parties)
    : barrier_(parties,
               [cfg = &device.config()](ps_t max_arrival, int n) -> ps_t {
                 return max_arrival + model_latency_ps(*cfg, n);
               }) {}

ps_t SyncBarrier::model_latency_ps(const tilesim::DeviceConfig& cfg,
                                   int parties) {
  return cfg.barrier.sync_base_ps +
         static_cast<ps_t>(parties) * cfg.barrier.sync_per_tile_ps;
}

void mem_fence(Tile& self) {
  std::atomic_thread_fence(std::memory_order_seq_cst);
  // Draining the store buffer costs a handful of cycles when no DMA is
  // outstanding; all TSHMEM copies complete synchronously in this model.
  self.clock().advance(self.device().config().cycle_ps() * 8);
}

}  // namespace tmc
