#include "sim/device.hpp"

#include <algorithm>
#include <cstdint>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

#include "sim/guarded_wait.hpp"
#include "sim/probe.hpp"
#include "sim/rendezvous.hpp"

namespace tilesim {

namespace {
thread_local Tile* g_current_tile = nullptr;
std::atomic<int> g_running_tile_threads{0};
}  // namespace

struct Device::Job {
  const std::function<void(Tile&)>* fn;
  std::mutex error_mu;
  std::exception_ptr first_error;
};

/// The host threads that run tiles 1..n-1 of every run(): worker w runs
/// tile w + 1. They start on demand, live as long as the Device, and wait
/// between jobs in a slot of their own, a cache line holding `go`, the
/// number of the last job handed to the worker, and the lot it parks in.
/// The caller publishes a job, stores each active worker's `go` and wakes
/// its lot; the worker that finishes last wakes the caller. No hand-off
/// locks anything unless someone parked (ParkingLot).
class Device::Crew {
 public:
  explicit Crew(Device& device) : device_(&device) {}

  Crew(const Crew&) = delete;
  Crew& operator=(const Crew&) = delete;

  ~Crew() {
    for (auto& slot : slots_) {
      slot->go.store(kStop, std::memory_order_seq_cst);
      slot->lot.wake_all();
    }
    for (auto& t : threads_) t.join();
  }

  /// Starts workers until there are `workers`. Throws std::system_error
  /// when a thread cannot start, keeping the workers started so far.
  void grow(int workers) {
    const auto want = static_cast<std::size_t>(workers);
    if (threads_.size() >= want) return;
    slots_.reserve(want);
    threads_.reserve(want);
    while (threads_.size() < want) {
      // Each worker keeps a reference to its own slot, never an index
      // into slots_: the vector reallocates here while older workers spin.
      slots_.push_back(std::make_unique<Slot>());
      Slot& slot = *slots_.back();
      const int tile = static_cast<int>(threads_.size()) + 1;
      try {
        threads_.emplace_back([this, &slot, tile] { work(slot, tile); });
      } catch (...) {
        slots_.pop_back();
        throw;
      }
      size_.store(static_cast<int>(threads_.size()),
                  std::memory_order_relaxed);
    }
  }

  /// Hands `job` to workers 0..workers-1, which grow() has started.
  void start(int workers, Job& job) {
    if (workers == 0) return;
    job_ = &job;
    busy_.store(workers, std::memory_order_relaxed);
    const std::uint64_t number = ++jobs_;
    for (int w = 0; w < workers; ++w) {
      Slot& slot = *slots_[static_cast<std::size_t>(w)];
      slot.go.store(number, std::memory_order_seq_cst);
      slot.lot.wake_all();
    }
  }

  /// Blocks until every worker start() handed the job to has finished it.
  void wait() {
    done_.wait_idle(idle_threads(), [this] {
      return busy_.load(std::memory_order_seq_cst) == 0;
    });
  }

 private:
  static constexpr std::uint64_t kStop = ~std::uint64_t{0};

  struct alignas(64) Slot {
    std::atomic<std::uint64_t> go{0};
    ParkingLot lot;
  };

  /// The crew and the caller: the threads that wait idle between jobs.
  int idle_threads() const noexcept {
    return size_.load(std::memory_order_relaxed) + 1;
  }

  void work(Slot& slot, int tile) {
    std::uint64_t served = 0;
    for (;;) {
      slot.lot.wait_idle(idle_threads(), [&] {
        return slot.go.load(std::memory_order_seq_cst) != served;
      });
      // `go` moves again only after this worker has finished the job.
      served = slot.go.load(std::memory_order_acquire);
      if (served == kStop) return;
      device_->run_tile(tile, *job_);
      if (busy_.fetch_sub(1, std::memory_order_seq_cst) == 1) {
        done_.wake_all();
      }
    }
  }

  Device* device_;
  std::vector<std::unique_ptr<Slot>> slots_;
  std::atomic<int> size_{0};  ///< threads_.size(), for the workers
  Job* job_ = nullptr;        ///< published by each `go` store
  std::uint64_t jobs_ = 0;    ///< jobs handed out so far
  // Every worker writes it at the end of a job while the caller polls it.
  alignas(64) std::atomic<int> busy_{0};
  ParkingLot done_;  ///< where the caller parks
  std::vector<std::thread> threads_;  ///< last: they use the rest
};

Tile::Tile(Device& device, int id)
    : device_(&device),
      id_(id),
      last_copy_ps_(device.mem_model().copy_cost_ps(last_copy_)),
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
  if (req != last_copy_) {
    last_copy_ = req;
    last_copy_ps_ = device_->mem_model().copy_cost_ps(req);
  }
  clock_.advance(last_copy_ps_);
}

Device::Device(const DeviceConfig& cfg)
    : cfg_(&cfg),
      topo_(cfg),
      mem_(cfg),
      crew_(std::make_unique<Crew>(*this)) {
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
  // Before anything else: a thread that fails to start leaves the Device
  // as it was, ready for another run.
  crew_->grow(active_tiles - 1);
  // A host rendezvous is a real synchronization of every active tile (it
  // is how benchmarks separate measurement phases), so tshmem-check sees
  // it as one.
  host_sync_ = std::make_unique<Rendezvous>(active_tiles, "host_sync",
                                            RendezvousReport::kSync);
  // Force-clear DMA engines: a previous job that threw with outstanding
  // non-blocking transfers must not leak descriptors into this one.
  for (auto& t : tiles_) t->dma().clear();
  reset_clocks();

  Job job{&fn, {}, nullptr};
  // Counted before any tile starts, so the first tiles to wait already
  // see the whole run.
  g_running_tile_threads.fetch_add(active_tiles, std::memory_order_relaxed);
  crew_->start(active_tiles - 1, job);
  run_tile(0, job);
  crew_->wait();
  host_sync_.reset();
  if (job.first_error) std::rethrow_exception(job.first_error);
}

void Device::run_tile(int id, Job& job) {
  Tile& self = *tiles_[static_cast<std::size_t>(id)];
  // The caller may itself be a tile of another Device's run.
  Tile* const outer = g_current_tile;
  g_current_tile = &self;
  try {
    (*job.fn)(self);
  } catch (...) {
    std::scoped_lock lk(job.error_mu);
    if (!job.first_error) job.first_error = std::current_exception();
    // A dead tile must not deadlock the others on the host barrier, so a
    // throwing tile drops its participation. Benchmarks/tests treat any
    // exception as fatal and run() rethrows it.
    host_sync_->drop(id);
  }
  g_running_tile_threads.fetch_sub(1, std::memory_order_relaxed);
  g_current_tile = outer;
}

}  // namespace tilesim
