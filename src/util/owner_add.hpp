// Adds to an atomic cell that has one writer at a time.
//
// Per-tile and per-PE state (a tile's clock, its UDN traffic counts, a
// PE's op count and its metric cells) is written only by the thread that
// runs that tile, or by whoever holds the lock that serializes its
// writers; other threads only read it. Such a cell needs no locked
// read-modify-write: its writer loads its own last value and stores the
// sum. The cell stays atomic so readers always see a whole value, and the
// writer's program order keeps it monotone for them. A second concurrent
// writer would lose updates, so every caller names who owns the cell.
#pragma once

#include <atomic>

namespace tshmem_util {

template <typename T>
inline void owner_add(std::atomic<T>& cell, T delta,
                      std::memory_order order =
                          std::memory_order_relaxed) noexcept {
  cell.store(cell.load(std::memory_order_relaxed) + delta, order);
}

}  // namespace tshmem_util
