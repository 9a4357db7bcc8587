#include "tmc/interrupt.hpp"

#include <algorithm>
#include <stdexcept>

#include "sim/fault.hpp"
#include "sim/probe.hpp"
#include "util/owner_add.hpp"

namespace tmc {

InterruptController::InterruptController(Device& device) : device_(&device) {
  per_tile_.reserve(static_cast<std::size_t>(device.tile_count()));
  for (int i = 0; i < device.tile_count(); ++i) {
    per_tile_.push_back(std::make_unique<PerTile>());
  }
}

void InterruptController::raise(Tile& requester, int target_tile,
                                const std::function<void(Tile&)>& handler) {
  tshmem_util::owner_add(
      per_tile_[static_cast<std::size_t>(requester.id())]->raised,
      std::uint64_t{1});
  if (!supported()) {
    throw std::runtime_error(
        "UDN interrupts are not supported on " + device_->config().name +
        " (static symmetric transfers unavailable, paper SIV-B2)");
  }
  if (target_tile < 0 || target_tile >= device_->tile_count()) {
    throw std::invalid_argument("interrupt target tile out of range");
  }
  if (target_tile == requester.id()) {
    throw std::invalid_argument("a tile cannot interrupt itself");
  }
  const auto& cfg = device_->config();
  PerTile& state = *per_tile_[static_cast<std::size_t>(target_tile)];

  // Dispatch: the requester pays to form and route the interrupt packet.
  requester.clock().advance(cfg.interrupt_dispatch_ps);
  const ps_t raise_time = requester.clock().now();

  ps_t completion;
  {
    std::scoped_lock lk(state.mu);
    // The handler runs in the target's interrupt service context. Its
    // clock is only ever touched under state.mu — never raced by the
    // target's own thread — so service timing (and therefore any replayed
    // run) is independent of host scheduling. Back-to-back services on
    // the same target queue on this timeline.
    if (!state.service) {
      state.service = std::make_unique<Tile>(*device_, target_tile);
      state.clock_gen = device_->clock_generation();
    } else if (state.clock_gen != device_->clock_generation()) {
      state.service->clock().reset();
      state.clock_gen = device_->clock_generation();
    }
    Tile& service = *state.service;
    // The handler cannot start before the interrupt arrives at the target
    // nor before the previous service on this target completed.
    service.clock().advance_to(raise_time);
    // Injected tile stall: the servicing tile loses a window of virtual
    // time (modeling an OS preemption / competing interrupt) before the
    // handler runs. Decided deterministically by the fault engine.
    if (tilesim::FaultEngine* fault = device_->fault(); fault != nullptr) {
      const ps_t stall =
          fault->tile_stall(target_tile, service.clock().now());
      if (stall > 0) service.clock().advance(stall);
    }
    service.clock().advance(cfg.interrupt_service_ps);
    handler(service);
    completion = service.clock().now();
    ++state.serviced;
  }
  // The requester learns of completion (an acknowledgment over the UDN).
  tilesim::probe_wait_edge(requester, target_tile,
                           tilesim::ProbeKind::kInterrupt, "interrupt",
                           raise_time, completion);
  requester.clock().advance_to(completion);
}

std::uint64_t InterruptController::serviced(int tile) const {
  if (tile < 0 || tile >= device_->tile_count()) {
    throw std::invalid_argument("tile out of range");
  }
  std::scoped_lock lk(per_tile_[static_cast<std::size_t>(tile)]->mu);
  return per_tile_[static_cast<std::size_t>(tile)]->serviced;
}

std::uint64_t InterruptController::raised(int tile) const {
  if (tile < 0 || tile >= device_->tile_count()) {
    throw std::invalid_argument("tile out of range");
  }
  return per_tile_[static_cast<std::size_t>(tile)]->raised.load(
      std::memory_order_relaxed);
}

}  // namespace tmc
