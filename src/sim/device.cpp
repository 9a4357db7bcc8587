#include "sim/device.hpp"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

#include "sim/flight_hook.hpp"
#include "sim/guarded_wait.hpp"
#include "sim/profile_hook.hpp"
#include "sim/sync_observer.hpp"

namespace tilesim {

namespace {
thread_local Tile* g_current_tile = nullptr;
std::atomic<int> g_running_tile_threads{0};
}  // namespace

/// host_sync's rendezvous: a generation barrier whose waits go through
/// guarded_host_wait, so they spin like every other tile wait and the
/// watchdog bounds them. A tile that throws drops out (drop()), so the
/// survivors' later host_syncs still complete.
struct Device::HostBarrier {
  explicit HostBarrier(int parties) : members(parties) {}

  /// Opens the current generation. Called with `lk` held; releases it.
  void open(std::unique_lock<std::mutex>& lk) {
    arrived = 0;
    ++generation;
    lk.unlock();
    cv.notify_all();
  }

  void drop() {
    std::unique_lock lk(mu);
    --members;
    if (arrived > 0 && arrived == members) open(lk);
  }

  std::mutex mu;
  std::condition_variable cv;
  int members;  ///< tiles still taking part
  int arrived = 0;
  std::uint64_t generation = 0;
};

namespace {
// Records a charge interval against the device tracer when one is attached.
void trace_charge(Device& device, int tile, TraceKind kind, ps_t begin,
                  ps_t end) {
  if (TraceRecorder* tracer = device.tracer(); tracer != nullptr) {
    tracer->record(tile, kind, begin, end);
  }
}
}  // namespace

Tile::Tile(Device& device, int id)
    : device_(&device),
      id_(id),
      dma_(std::make_unique<DmaEngine>(device.config(), id)) {}

void Tile::charge_int_ops(std::uint64_t n) {
  const ps_t t0 = clock_.now();
  clock_.advance(n * device_->config().compute.int_op_ps);
  trace_charge(*device_, id_, TraceKind::kCompute, t0, clock_.now());
}

void Tile::charge_fp_ops(std::uint64_t n) {
  const ps_t t0 = clock_.now();
  clock_.advance(n * device_->config().compute.fp_op_ps);
  trace_charge(*device_, id_, TraceKind::kCompute, t0, clock_.now());
}

void Tile::charge_mem_ops(std::uint64_t n) {
  const ps_t t0 = clock_.now();
  clock_.advance(n * device_->config().compute.mem_op_ps);
  trace_charge(*device_, id_, TraceKind::kCompute, t0, clock_.now());
}

void Tile::charge_calls(std::uint64_t n) {
  clock_.advance(n * device_->config().compute.call_ps);
}

void Tile::charge_copy(const CopyRequest& req) {
  const ps_t t0 = clock_.now();
  clock_.advance(device_->mem_model().copy_cost_ps(req));
  trace_charge(*device_, id_, TraceKind::kCopy, t0, clock_.now());
  if (device_->cache_probes_enabled()) {
    std::scoped_lock lk(probe_mu_);
    if (!probe_) probe_ = std::make_unique<CacheSim>(device_->config());
    std::uint64_t src = req.src_addr;
    std::uint64_t dst = req.dst_addr;
    if (src == 0 && dst == 0) {
      // No endpoint addresses supplied: walk a synthetic fresh-address
      // stream (conservative — counts as streaming new memory).
      src = probe_cursor_;
      dst = probe_cursor_ + req.bytes;
      probe_cursor_ += 2 * req.bytes;
    }
    probe_->observe_copy(src, dst, req.bytes, req.homing);
  }
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

void Device::attach_flight(FlightSink* flight) noexcept {
  flight_ = flight;
  // DMA engines carry no Device back-pointer (they predate the sink and are
  // constructible standalone), so the attachment is fanned out to them.
  for (auto& t : tiles_) t->dma().set_flight(flight);
}

void Device::reset_clocks() {
  // Epoch boundary for the profiler and flight recorder: reset_clocks() is
  // only legal from single-threaded safe points, so the sinks may read every
  // tile's final clock value here, before anything is zeroed.
  if (profiler_ != nullptr) {
    profiler_->on_clock_reset();  // tshmem-lint: allow(R005)
  }
  if (flight_ != nullptr) {
    flight_->on_clock_reset();  // tshmem-lint: allow(R005, R006)
  }
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
  if (!host_barrier_ || self == nullptr || &self->device() != this) {
    throw std::logic_error("host_sync called outside Device::run");
  }
  HostBarrier& b = *host_barrier_;
  // A host rendezvous is a real synchronization of every active tile (it is
  // how benchmarks separate measurement phases), so it is reported to the
  // sync observer (tshmem-check) as a rendezvous. The arrive callback runs
  // before this tile arrives, and the generation opens only after every
  // member arrived, so all arrive callbacks complete before any release
  // callback — the SyncObserver contract. Each tile participates in every
  // host_sync of a run, so its own call count is a consistent generation.
  SyncObserver* observer = sync_observer_;
  std::uint64_t seq = 0;
  if (observer != nullptr) {
    seq = host_sync_seq_[static_cast<std::size_t>(self->id())]++;
    observer->on_rendezvous_arrive(&b, seq, self->id());
  }
  std::unique_lock lk(b.mu);
  const std::uint64_t my_generation = b.generation;
  if (++b.arrived == b.members) {
    b.open(lk);
  } else {
    try {
      guarded_host_wait(*this, lk, b.cv, self->id(), "host_sync",
                        [&] { return b.generation != my_generation; });
    } catch (...) {
      // The watchdog fired: withdraw this arrival before the tile drops
      // out, so the tiles still waiting keep waiting for the missing one.
      if (!lk.owns_lock()) lk.lock();
      if (b.generation == my_generation) --b.arrived;
      throw;
    }
  }
  if (lk.owns_lock()) lk.unlock();
  if (observer != nullptr) {
    observer->on_rendezvous_release(&b, seq, self->id(), active_tiles_);
  }
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
  if (host_barrier_) {
    throw std::logic_error("Device::run is not reentrant");
  }
  active_tiles_ = active_tiles;
  host_barrier_ = std::make_unique<HostBarrier>(active_tiles);
  host_sync_seq_.assign(tiles_.size(), 0);
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
        host_barrier_->drop();
      }
      g_running_tile_threads.fetch_sub(1, std::memory_order_relaxed);
      g_current_tile = nullptr;
    });
  }
  for (auto& t : threads) t.join();
  host_barrier_.reset();
  active_tiles_ = 0;
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace tilesim
