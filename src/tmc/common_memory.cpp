#include "tmc/common_memory.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <new>
#include <stdexcept>

#include "util/error.hpp"

namespace tmc {

namespace {
constexpr std::size_t kAlign = 64;

std::size_t align_up(std::size_t v) { return (v + kAlign - 1) & ~(kAlign - 1); }
}  // namespace

CommonMemory::CommonMemory(std::size_t bytes) {
  if (bytes == 0) {
    throw std::invalid_argument("CommonMemory needs a non-empty arena");
  }
  arena_bytes_ = align_up(bytes);
  free_list_.push_back(FreeBlock{0, arena_bytes_});
  // MAP_NORESERVE: no swap or commit charge up front, so a 27 GB arena
  // (pro64 at fig14 --full) reserves address space only.
  void* arena = ::mmap(nullptr, arena_bytes_, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (arena == MAP_FAILED) throw std::bad_alloc();
  arena_ = static_cast<std::byte*>(arena);
}

CommonMemory::~CommonMemory() { ::munmap(arena_, arena_bytes_); }

std::size_t CommonMemory::offset_of(const void* p) const noexcept {
  return static_cast<std::size_t>(static_cast<const std::byte*>(p) - arena_);
}

void CommonMemory::set_map_fault_hook(MapFaultHook hook) {
  std::scoped_lock lk(mu_);
  map_fault_hook_ = std::move(hook);
}

void* CommonMemory::map(const std::string& name, std::size_t bytes,
                        Homing homing, int creator_tile) {
  if (bytes == 0) throw std::invalid_argument("cannot map zero bytes");
  std::scoped_lock lk(mu_);
  if (map_fault_hook_ && map_fault_hook_(name, creator_tile)) {
    throw tshmem::Error(
        tshmem::Errc::kCmemMapFailed,
        "common-memory map of '" + name + "' (" + std::to_string(bytes) +
            " bytes) by PE " + std::to_string(creator_tile) +
            " failed (injected)");
  }
  if (mappings_.count(name) != 0) {
    throw std::invalid_argument("duplicate common-memory mapping '" + name +
                                "'");
  }
  const std::size_t want = align_up(bytes);
  // First-fit over the sorted free list.
  for (std::size_t i = 0; i < free_list_.size(); ++i) {
    FreeBlock& blk = free_list_[i];
    if (blk.bytes >= want) {
      const std::size_t offset = blk.offset;
      blk.offset += want;
      blk.bytes -= want;
      if (blk.bytes == 0) {
        free_list_.erase(free_list_.begin() + static_cast<std::ptrdiff_t>(i));
      }
      Mapping m;
      m.name = name;
      m.addr = arena_ + offset;
      m.bytes = want;
      m.homing = homing;
      m.creator_tile = creator_tile;
      mappings_.emplace(name, m);
      mapped_bytes_ += want;
      ++stats_.maps;
      stats_.peak_bytes = std::max(stats_.peak_bytes, mapped_bytes_);
      return m.addr;
    }
  }
  throw std::bad_alloc();
}

void CommonMemory::unmap(const std::string& name) {
  std::scoped_lock lk(mu_);
  const auto it = mappings_.find(name);
  if (it == mappings_.end()) {
    throw std::invalid_argument("unmap of unknown mapping '" + name + "'");
  }
  const std::size_t offset = offset_of(it->second.addr);
  free_list_.push_back(FreeBlock{offset, it->second.bytes});
  mapped_bytes_ -= it->second.bytes;
  ++stats_.unmaps;
  mappings_.erase(it);
  coalesce();
}

void CommonMemory::coalesce() {
  std::sort(free_list_.begin(), free_list_.end(),
            [](const FreeBlock& a, const FreeBlock& b) {
              return a.offset < b.offset;
            });
  std::vector<FreeBlock> merged;
  for (const FreeBlock& blk : free_list_) {
    if (!merged.empty() &&
        merged.back().offset + merged.back().bytes == blk.offset) {
      merged.back().bytes += blk.bytes;
    } else {
      merged.push_back(blk);
    }
  }
  free_list_ = std::move(merged);
}

std::optional<CommonMemory::Mapping> CommonMemory::lookup(
    const std::string& name) const {
  std::scoped_lock lk(mu_);
  const auto it = mappings_.find(name);
  if (it == mappings_.end()) return std::nullopt;
  return it->second;
}

std::size_t CommonMemory::bytes_mapped() const {
  std::scoped_lock lk(mu_);
  return mapped_bytes_;
}

std::size_t CommonMemory::mapping_count() const {
  std::scoped_lock lk(mu_);
  return mappings_.size();
}

CommonMemory::Stats CommonMemory::stats() const {
  std::scoped_lock lk(mu_);
  return stats_;
}

}  // namespace tmc
