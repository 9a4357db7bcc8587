#include "sim/device.hpp"

#include <algorithm>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

#include "sim/probe.hpp"
#include "sim/rendezvous.hpp"

namespace tilesim {

namespace {
thread_local Tile* g_current_tile = nullptr;
std::atomic<int> g_running_tile_threads{0};
}  // namespace

Tile::Tile(Device& device, int id)
    : device_(&device),
      id_(id),
      dma_(std::make_unique<DmaEngine>(device.config(), id)) {}

void Tile::charge_int_ops(std::uint64_t n) {
  clock_.advance(n * device_->config().compute.int_op_ps);
}

void Tile::charge_fp_ops(std::uint64_t n) {
  clock_.advance(n * device_->config().compute.fp_op_ps);
}

void Tile::charge_mem_ops(std::uint64_t n) {
  clock_.advance(n * device_->config().compute.mem_op_ps);
}

void Tile::charge_calls(std::uint64_t n) {
  clock_.advance(n * device_->config().compute.call_ps);
}

void Tile::charge_copy(const CopyRequest& req) {
  clock_.advance(device_->mem_model().copy_cost_ps(req));
}

Device::Device(const DeviceConfig& cfg)
    : cfg_(&cfg), topo_(cfg), mem_(cfg) {
  tiles_.reserve(static_cast<std::size_t>(cfg.tile_count()));
  for (int i = 0; i < cfg.tile_count(); ++i) {
    tiles_.push_back(std::make_unique<Tile>(*this, i));
  }
}

Device::~Device() = default;

Tile& Device::tile(int id) {
  if (id < 0 || id >= tile_count()) {
    throw std::out_of_range("tile id out of range");
  }
  return *tiles_[static_cast<std::size_t>(id)];
}

const Tile& Device::tile(int id) const {
  if (id < 0 || id >= tile_count()) {
    throw std::out_of_range("tile id out of range");
  }
  return *tiles_[static_cast<std::size_t>(id)];
}

Tile* Device::current() noexcept { return g_current_tile; }

int Device::running_tile_threads() noexcept {
  return g_running_tile_threads.load(std::memory_order_relaxed);
}

int Device::usable_cpus() noexcept {
  static const int cpus = [] {
#if defined(__linux__)
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      return std::max(1, CPU_COUNT(&set));
    }
#endif
    return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  }();
  return cpus;
}

void Device::attach_probe(Probe* probe) {
  if (host_sync_) {
    throw std::logic_error("attach_probe called inside Device::run");
  }
  probes_.push_back(probe);
}

void Device::detach_probe(Probe* probe) {
  if (host_sync_) {
    throw std::logic_error("detach_probe called inside Device::run");
  }
  std::erase(probes_, probe);
}

void Device::reset_clocks() {
  // Epoch boundary: reset_clocks() is only legal from single-threaded safe
  // points, so the probes may read every tile's final clock value here,
  // before anything is zeroed.
  probe_clock_reset(*this);
  // DMA engines first: an engine with in-flight transfers must fail the
  // reset *before* any clock is zeroed (stale future completion timestamps
  // would otherwise poison advance_to after the reset).
  for (auto& t : tiles_) t->dma().reset();
  for (auto& t : tiles_) t->clock().reset();
  // Layered components keeping their own timelines (e.g. the interrupt
  // controller's per-target service contexts) re-zero lazily by comparing
  // this generation, so they stay in step with every job/phase boundary.
  clock_generation_.fetch_add(1, std::memory_order_acq_rel);
}

void Device::host_sync() {
  Tile* self = current();
  if (!host_sync_ || self == nullptr || &self->device() != this) {
    throw std::logic_error("host_sync called outside Device::run");
  }
  host_sync_->arrive(*self, self->id());
}

void Device::sync_and_reset_clocks() {
  Tile* self = current();
  if (self == nullptr) {
    throw std::logic_error("sync_and_reset_clocks called outside run()");
  }
  host_sync();
  if (self->id() == 0) reset_clocks();
  host_sync();
}

void Device::run(int active_tiles, const std::function<void(Tile&)>& fn) {
  if (active_tiles < 1 || active_tiles > tile_count()) {
    throw std::invalid_argument("active_tiles must be in [1, tile_count]");
  }
  if (host_sync_) {
    throw std::logic_error("Device::run is not reentrant");
  }
  // A host rendezvous is a real synchronization of every active tile (it
  // is how benchmarks separate measurement phases), so tshmem-check sees
  // it as one.
  host_sync_ = std::make_unique<Rendezvous>(active_tiles, "host_sync",
                                            RendezvousReport::kSync);
  // Force-clear DMA engines: a previous job that threw with outstanding
  // non-blocking transfers must not leak descriptors into this one.
  for (auto& t : tiles_) t->dma().clear();
  reset_clocks();

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(active_tiles));
  std::exception_ptr first_error;
  std::mutex error_mu;

  // Counted before any thread starts, so the first tiles to wait already
  // see the whole run.
  g_running_tile_threads.fetch_add(active_tiles, std::memory_order_relaxed);
  for (int i = 0; i < active_tiles; ++i) {
    threads.emplace_back([this, i, &fn, &first_error, &error_mu] {
      Tile& self = *tiles_[static_cast<std::size_t>(i)];
      g_current_tile = &self;
      try {
        fn(self);
      } catch (...) {
        std::scoped_lock lk(error_mu);
        if (!first_error) first_error = std::current_exception();
        // A dead tile must not deadlock the others on the host barrier, so
        // a throwing tile drops its participation. Benchmarks/tests treat
        // any exception as fatal and the rethrow below surfaces it.
        host_sync_->drop(i);
      }
      g_running_tile_threads.fetch_sub(1, std::memory_order_relaxed);
      g_current_tile = nullptr;
    });
  }
  for (auto& t : threads) t.join();
  host_sync_.reset();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace tilesim
