// Per-PE flight recorder: fixed-capacity ring buffers of compact event
// records, plus the tshmem.blackbox.v1 post-mortem dump (ISSUE 9 tentpole).
//
// The recorder is a tilesim::Probe consumer (sim/probe.hpp) of point
// events. Each PE owns a ring of `capacity` FrEvent records;
// recording overwrites the oldest. Because every event is reported from the
// owning PE's thread in program order with that PE's own virtual time, ring
// contents are deterministic across host schedules for deterministic
// protocols — the property the blackbox dump relies on to be a faithful
// reproduction artifact.
//
// Epoch model: virtual times arrive epoch-local; at every
// Device::reset_clocks() the recorder folds the finished epoch (max tile
// clock) into epoch_base_ps_, so stored vts form one monotone timeline per
// run and cross-PE merges are meaningful.
//
// Zero virtual cost: nothing here touches a SimClock; the recorder-on/off
// bit-identity loop in tools/ci.sh enforces it. Mutation outside src/obs/
// must go through tilesim::probe_event (lint rule R005).
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/probe.hpp"

namespace obs {

/// One recorded event. `vt` is epoch-folded (monotone within a run).
struct FrEvent {
  tilesim::ps_t vt = 0;
  std::uint64_t seq = 0;  ///< per-PE monotone ordinal (0-based)
  int pe = 0;
  tilesim::ProbeKind kind = tilesim::ProbeKind::kPut;
  const char* site = "";
  std::int32_t peer = -1;
  std::uint64_t bytes = 0;
  std::int32_t errc = 0;
};

class FlightRecorder final : public tilesim::Probe {
 public:
  static constexpr std::size_t kDefaultCapacity = 256;

  /// Standalone form (the svc serve loop, unit tests): `npes` rings, no
  /// device — on_clock_reset folds nothing (there are no tile clocks).
  explicit FlightRecorder(int npes,
                          std::size_t capacity = kDefaultCapacity);

  /// Device-attached form: on_clock_reset reads every tile's final clock
  /// (legal — reset_clocks runs single-threaded) and folds the max into
  /// the epoch base. One ring per tile.
  explicit FlightRecorder(const tilesim::Device& device,
                          std::size_t capacity = kDefaultCapacity);

  /// Records one event of PE `pe` with an epoch-local `vt`. Call through
  /// tilesim::probe_event outside src/obs/ (lint rule R005).
  void on_event(int pe, const tilesim::ProbeEvent& e) override;
  void on_clock_reset() override;

  [[nodiscard]] int npes() const noexcept { return npes_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] tilesim::ps_t epoch_base_ps() const;

  /// Events ever recorded for `pe` (ring overwrites don't decrement).
  [[nodiscard]] std::uint64_t total_recorded(int pe) const;

  /// Surviving events of one PE, oldest to newest.
  [[nodiscard]] std::vector<FrEvent> snapshot(int pe) const;

  /// All PEs' surviving events merged by (vt, pe, seq).
  [[nodiscard]] std::vector<FrEvent> merged() const;

 private:
  // Single-writer ring: the Probe contract guarantees every event for
  // one PE is reported from that PE's own thread, so the write path needs
  // no lock — slot stores are published by a release store of next_seq,
  // and a concurrent snapshot drops any prefix the writer may have
  // overwritten during the copy (see snapshot()). A mutex here measurably
  // throttles put-heavy benches (one lock per shmem op per PE). One cache
  // line per PE: every recorded event writes its PE's next_seq.
  struct alignas(64) PeRing {
    std::vector<FrEvent> ring;  ///< capacity_ slots, seq % capacity_
    std::atomic<std::uint64_t> next_seq{0};
  };

  int npes_;
  std::size_t capacity_;
  const tilesim::Device* device_ = nullptr;
  // Atomic, not mutex-guarded: on_event reads it on every event from
  // every PE thread (a shared mutex here measurably throttles put-heavy
  // benches), while stores only happen at the single-threaded safe points
  // on_clock_reset() is contractually confined to.
  std::atomic<tilesim::ps_t> epoch_base_ps_{0};
  std::vector<PeRing> rings_;
};

inline constexpr const char* kBlackboxSchema = "tshmem.blackbox.v1";

/// Context of a post-mortem dump: why it was taken and what the runtime
/// knew at that moment.
struct BlackboxInfo {
  std::string reason;     ///< human-readable trigger description
  int errc = 0;           ///< tshmem::Errc value (0 when not an Error)
  std::string errc_name;  ///< tshmem::errc_name(errc) (empty when 0)
  std::string board;      ///< per-PE diagnostic board (watchdog_report)
  std::string fault_plan; ///< active TSHMEM_FAULT_PLAN spec ("" when none)
  std::string source = "runtime";  ///< "runtime" or "svc"
};

/// Writes the `tshmem.blackbox.v1` JSON document: the trigger info, every
/// PE's surviving ring (oldest to newest), and the merged cross-PE
/// timeline. Keys are emitted in a fixed order.
void write_blackbox_json(std::ostream& os, const FlightRecorder& fr,
                         const BlackboxInfo& info);

}  // namespace obs
