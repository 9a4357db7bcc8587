// Host-time microbenchmarks of TSHMEM implementation internals (google-
// benchmark). Unlike the figure benches, these measure *wall-clock* cost of
// the library's own machinery: symmetric-heap operations, UDN queue
// round-trips, address classification, and the virtual-clock primitives.
#include <benchmark/benchmark.h>

#include <utility>
#include <vector>

#include "sim/cache_sim.hpp"
#include "sim/clock.hpp"
#include "sim/device.hpp"
#include "sim/mem_model.hpp"
#include "sim/topology.hpp"
#include "tshmem/symheap.hpp"
#include "util/rng.hpp"

namespace {

void BM_SymHeapAllocFree(benchmark::State& state) {
  const auto block = static_cast<std::size_t>(state.range(0));
  std::vector<std::byte> storage(8 << 20);
  tshmem::SymHeap heap(storage.data(), storage.size());
  for (auto _ : state) {
    void* p = heap.alloc(block);
    benchmark::DoNotOptimize(p);
    heap.free(p);
  }
}
BENCHMARK(BM_SymHeapAllocFree)->Arg(64)->Arg(4096)->Arg(1 << 20);

void BM_SymHeapFragmentedAlloc(benchmark::State& state) {
  std::vector<std::byte> storage(8 << 20);
  tshmem::SymHeap heap(storage.data(), storage.size());
  // Build a fragmented heap: allocate many, free every other block.
  std::vector<void*> blocks;
  for (int i = 0; i < 512; ++i) blocks.push_back(heap.alloc(4096));
  for (std::size_t i = 0; i < blocks.size(); i += 2) heap.free(blocks[i]);
  for (auto _ : state) {
    void* p = heap.alloc(2048);  // fits in a freed slot (first fit scan)
    benchmark::DoNotOptimize(p);
    heap.free(p);
  }
}
BENCHMARK(BM_SymHeapFragmentedAlloc);

void BM_RouteComputation(benchmark::State& state) {
  const tilesim::Topology topo(6, 6);
  tshmem_util::Xoshiro256 rng(1);
  for (auto _ : state) {
    const int a = static_cast<int>(rng.below(36));
    const int b = static_cast<int>(rng.below(36));
    benchmark::DoNotOptimize(topo.hops(a, b));
  }
}
BENCHMARK(BM_RouteComputation);

void BM_MemModelCopyCost(benchmark::State& state) {
  const tilesim::MemModel model(tilesim::tile_gx36());
  tilesim::CopyRequest req;
  req.bytes = static_cast<std::size_t>(state.range(0));
  req.src = tilesim::MemSpace::kShared;
  req.dst = tilesim::MemSpace::kShared;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.copy_cost_ps(req));
  }
}
BENCHMARK(BM_MemModelCopyCost)->Arg(8)->Arg(64)->Arg(1 << 20);

// Tile::charge_copy for the one-word get behind every ctx.g. With
// alternate=0 each charge repeats the tile's last request, which its memo
// answers; with alternate=1 gets and puts take turns, so every charge
// evaluates the model.
void BM_TileChargeCopy(benchmark::State& state) {
  tilesim::Device device(tilesim::tile_gx36());
  tilesim::Tile& tile = device.tile(0);
  tilesim::CopyRequest get;
  get.bytes = 8;
  get.src = tilesim::MemSpace::kShared;
  get.dst = tilesim::MemSpace::kPrivate;
  tilesim::CopyRequest put = get;
  std::swap(put.src, put.dst);
  const bool alternate = state.range(0) != 0;
  bool odd = false;
  for (auto _ : state) {
    tile.charge_copy(alternate && (odd = !odd) ? put : get);
  }
  benchmark::DoNotOptimize(tile.clock().now());
}
BENCHMARK(BM_TileChargeCopy)->ArgName("alternate")->Arg(0)->Arg(1);

void BM_SimClockAdvance(benchmark::State& state) {
  tilesim::SimClock clock;
  for (auto _ : state) {
    clock.advance(1000);
    benchmark::DoNotOptimize(clock.now());
  }
}
BENCHMARK(BM_SimClockAdvance);

void BM_CacheSimAccess(benchmark::State& state) {
  tilesim::CacheSim sim(tilesim::tile_gx36());
  std::uint64_t addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim.access(addr, tilesim::Homing::kHashForHome));
    addr += 64;
    if (addr > (1 << 22)) addr = 0;
  }
}
BENCHMARK(BM_CacheSimAccess);

void BM_Xoshiro(benchmark::State& state) {
  tshmem_util::Xoshiro256 rng(9);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_Xoshiro);

}  // namespace

BENCHMARK_MAIN();
