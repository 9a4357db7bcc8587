// TMC "common memory" equivalent (paper §III-B).
//
// Tilera's tmc_cmem gives cooperating processes a shared-memory region
// mapped at the same virtual address in every process, so pointers can be
// shared directly, and lets *any* process create new mappings that become
// visible to the others. With tiles as threads both properties are native;
// this class provides the named allocation/mapping API over one reserved
// arena, with a homing attribute per mapping.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "sim/config.hpp"

namespace tmc {

using tilesim::Homing;

class CommonMemory {
 public:
  /// One backing arena of `bytes`, reserved with an anonymous mmap: pages
  /// are committed only when first touched, so the arena may exceed the
  /// host's memory as long as the mappings actually used fit. All mappings
  /// are carved from it. Throws std::bad_alloc when the mmap fails.
  explicit CommonMemory(std::size_t bytes);
  ~CommonMemory();

  CommonMemory(const CommonMemory&) = delete;
  CommonMemory& operator=(const CommonMemory&) = delete;

  struct Mapping {
    std::string name;
    void* addr = nullptr;
    std::size_t bytes = 0;
    Homing homing = Homing::kHashForHome;
    int creator_tile = -1;
  };

  /// Creates a new named mapping visible to every tile; returns its base.
  /// Alignment is at least 64 bytes. Throws std::bad_alloc when the arena
  /// is exhausted, std::invalid_argument on duplicate names, and
  /// tshmem::Error(kCmemMapFailed) when an installed map-fault hook fires.
  void* map(const std::string& name, std::size_t bytes, Homing homing,
            int creator_tile);

  /// Fault-injection hook consulted at every map() attempt: return true to
  /// make that attempt fail with tshmem::Error(kCmemMapFailed). The runtime
  /// installs one forwarding to the device's FaultEngine; nullptr (the
  /// default) disables injection entirely.
  using MapFaultHook = std::function<bool(const std::string& name,
                                          int creator_tile)>;
  void set_map_fault_hook(MapFaultHook hook);

  /// Removes a mapping and returns its space to the arena.
  void unmap(const std::string& name);

  [[nodiscard]] std::optional<Mapping> lookup(const std::string& name) const;

  [[nodiscard]] std::size_t bytes_mapped() const;
  [[nodiscard]] std::size_t mapping_count() const;

  /// Cumulative allocation activity since construction (metrics scrape).
  struct Stats {
    std::uint64_t maps = 0;          // successful map() calls
    std::uint64_t unmaps = 0;        // successful unmap() calls
    std::size_t peak_bytes = 0;      // high-water mark of bytes_mapped()
  };
  [[nodiscard]] Stats stats() const;

 private:
  struct FreeBlock {
    std::size_t offset;
    std::size_t bytes;
  };

  mutable std::mutex mu_;
  // Page-aligned, so mapped segments stay line-aligned.
  std::byte* arena_ = nullptr;
  std::size_t arena_bytes_ = 0;
  std::vector<FreeBlock> free_list_;         // sorted by offset
  std::map<std::string, Mapping> mappings_;  // by name
  std::size_t mapped_bytes_ = 0;             // current bytes mapped
  Stats stats_;
  MapFaultHook map_fault_hook_;

  [[nodiscard]] std::size_t offset_of(const void* p) const noexcept;
  void coalesce();
};

}  // namespace tmc
