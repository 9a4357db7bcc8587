// Per-tile asynchronous DMA engine (ISSUE 3 tentpole).
//
// Models the Tilera per-tile DMA offload (mPIPE eDMA/iDMA on the TILE-Gx;
// a software pseudo-DMA loop on the TILEPro): a virtual-time queue of
// in-flight transfer descriptors. The issuing tile pays only a small
// descriptor-post cost; the engine "moves" the data in the background and
// the descriptor's completion timestamp is computed analytically at issue
// time from the same MemModel costs the blocking path charges:
//
//   start_ps    = max(issue_ps, engine_free_ps)       (one channel, FIFO)
//   complete_ps = start_ps + dma_setup_ps + copy_cost_ps(request)
//   engine_free_ps' = complete_ps
//
// Because completion times depend only on virtual-time inputs available at
// issue, results are independent of host scheduling — the same contract as
// SimClock. Completion is merged into tile clocks exclusively through
// SimClock::advance_to() (shmem_quiet on the issuer; last-delivery
// timestamps on the target).
//
// The engine is FIFO with a single channel: descriptors retire in issue
// order, which makes per-destination delivery ordering (shmem_fence)
// inherent — see docs/NBI.md for the full ordering contract.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "sim/config.hpp"

namespace tilesim {

/// One in-flight (or retired) transfer owned by a tile's DMA engine.
struct DmaDescriptor {
  std::uint64_t id = 0;   ///< per-engine monotone issue ordinal
  int peer = -1;          ///< remote PE of the transfer (== self for local)
  bool is_put = false;    ///< direction: put (write remote) / get (read)
  std::size_t bytes = 0;
  ps_t issue_ps = 0;      ///< issuing tile's clock at issue
  ps_t start_ps = 0;      ///< when the engine begins moving data
  ps_t complete_ps = 0;   ///< when the transfer fully retires
};

/// Host-side engine statistics (observability only, never timed).
struct DmaStats {
  std::uint64_t issued = 0;
  std::uint64_t retired = 0;
  std::uint64_t bytes = 0;
  std::uint64_t peak_pending = 0;  ///< high-water mark of the queue depth
};

class DmaEngine {
 public:
  /// `tile_id` names the owning tile in failure diagnostics (reset with
  /// in-flight descriptors); -1 means "unattributed" (standalone tests).
  explicit DmaEngine(const DeviceConfig& cfg, int tile_id = -1)
      : cfg_(&cfg), tile_id_(tile_id) {}

  DmaEngine(const DmaEngine&) = delete;
  DmaEngine& operator=(const DmaEngine&) = delete;

  /// Enqueues a transfer issued at virtual time `issue_ps` whose data
  /// movement costs `transfer_cost_ps` (MemModel::copy_cost_ps of the same
  /// request the blocking path would charge). Returns the full descriptor,
  /// including the computed completion timestamp. `stall_ps` is an injected
  /// channel stall (fault engine): the transfer starts that much later.
  DmaDescriptor issue(int peer, bool is_put, std::size_t bytes, ps_t issue_ps,
                      ps_t transfer_cost_ps, ps_t stall_ps = 0);

  [[nodiscard]] std::size_t pending() const;
  /// Virtual time at which the engine's single channel next goes idle.
  [[nodiscard]] ps_t engine_free_ps() const;

  struct DrainResult {
    ps_t max_complete_ps = 0;  ///< latest completion among retired transfers
    std::uint64_t retired = 0;
    ps_t busy_ps = 0;          ///< sum of (complete - start) over retired
  };

  /// Retires every pending descriptor (shmem_quiet). The caller merges
  /// max_complete_ps into its clock via advance_to().
  DrainResult drain_all();

  /// Copy of the pending queue in issue order (tests/diagnostics).
  [[nodiscard]] std::vector<DmaDescriptor> pending_snapshot() const;

  [[nodiscard]] DmaStats stats() const;

  /// Zeroes the engine timeline and statistics alongside a clock reset
  /// (Device::reset_clocks). Throws std::logic_error when transfers are
  /// still in flight — resetting clocks under outstanding NBI traffic would
  /// leave stale future completion timestamps poisoning advance_to().
  void reset();

  /// Unconditional wipe, including in-flight descriptors. Used at
  /// Device::run() entry so a previous job that aborted with outstanding
  /// transfers cannot leak state into the next one.
  void clear();

 private:
  const DeviceConfig* cfg_;
  int tile_id_ = -1;
  // The queue is mutex-guarded: the owning tile is the only issuer, but
  // tests and the metrics scrape inspect engines from other host threads.
  mutable std::mutex mu_;
  std::vector<DmaDescriptor> pending_;
  ps_t engine_free_ps_ = 0;
  std::uint64_t next_id_ = 1;
  DmaStats stats_;
};

}  // namespace tilesim
