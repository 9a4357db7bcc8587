#include "tmc/barrier.hpp"

#include <atomic>
#include <stdexcept>

#include "sim/guarded_wait.hpp"
#include "sim/probe.hpp"

namespace tmc {

VtBarrier::VtBarrier(int parties, ReleaseFn release_fn, const Device* device)
    : parties_(parties), release_fn_(std::move(release_fn)), device_(device) {
  if (parties < 1) {
    throw std::invalid_argument("VtBarrier needs at least one party");
  }
  if (!release_fn_) {
    throw std::invalid_argument("VtBarrier needs a release function");
  }
}

std::uint64_t VtBarrier::waits() const {
  std::scoped_lock lk(mu_);
  return waits_;
}

void VtBarrier::wait(Tile& self) {
  const ps_t arrival = self.clock().now();
  std::unique_lock lk(mu_);
  ++waits_;
  // Track which tile produced max_arrival_ so the profiler's release edge
  // can name its producer. Strictly-later arrival wins; ties keep the
  // lowest tile id so the attribution is deterministic across schedules.
  if (arrived_ == 0 || arrival > max_arrival_ ||
      (arrival == max_arrival_ && self.id() < max_arrival_tile_)) {
    max_arrival_ = std::max(max_arrival_, arrival);
    max_arrival_tile_ = self.id();
  }
  const std::uint64_t my_generation = generation_;
  // Arrivals are reported under the barrier lock — every arrive completes
  // before any release — so tshmem-check's all-join is deterministic.
  if (device_ != nullptr) {
    tilesim::probe_rendezvous_arrive(*device_, this, my_generation,
                                     self.id());
  }
  if (++arrived_ == parties_) {
    release_time_ = release_fn_(max_arrival_, parties_);
    release_src_ = max_arrival_tile_;
    arrived_ = 0;
    max_arrival_ = 0;
    max_arrival_tile_ = -1;
    ++generation_;
    const int release_src = release_src_;
    lk.unlock();
    cv_.notify_all();
    if (device_ != nullptr) {
      tilesim::probe_rendezvous_release(*device_, this, my_generation,
                                        self.id(), parties_);
    }
    self.clock().advance_to(release_time_);
    tilesim::probe_wait_edge(self, release_src, tilesim::ProbeKind::kBarrier,
                             "tmc_barrier", arrival, self.clock().now());
    return;
  }
  tilesim::guarded_wait(device_, lk, cv_, self.id(), "barrier wait",
                        [&] { return generation_ != my_generation; });
  const ps_t release = release_time_;
  const int release_src = release_src_;
  lk.unlock();
  if (device_ != nullptr) {
    tilesim::probe_rendezvous_release(*device_, this, my_generation,
                                      self.id(), parties_);
  }
  self.clock().advance_to(release);
  tilesim::probe_wait_edge(self, release_src, tilesim::ProbeKind::kBarrier,
                           "tmc_barrier", arrival, self.clock().now());
}

SpinBarrier::SpinBarrier(Device& device, int parties)
    : barrier_(
          parties,
          [cfg = &device.config()](ps_t max_arrival, int n) -> ps_t {
            return max_arrival + model_latency_ps(*cfg, n);
          },
          &device) {}

ps_t SpinBarrier::model_latency_ps(const tilesim::DeviceConfig& cfg,
                                   int parties) {
  return cfg.barrier.spin_base_ps +
         static_cast<ps_t>(parties) * cfg.barrier.spin_per_tile_ps;
}

SyncBarrier::SyncBarrier(Device& device, int parties)
    : barrier_(
          parties,
          [cfg = &device.config()](ps_t max_arrival, int n) -> ps_t {
            return max_arrival + model_latency_ps(*cfg, n);
          },
          &device) {}

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
