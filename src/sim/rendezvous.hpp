// The one place tile threads meet. Every host-side rendezvous in the tree
// is this class with its own release math: Device::host_sync (none), the
// TMC spin and sync barriers and compare::ForkJoin's fork through
// tmc::VtBarrier (max arrival plus the barrier model), the linear token
// barrier (tshmem::linear_token_schedule), and Cluster::run's start and
// finish gates (none).
//
// Members arrive by index with their clock. The last to arrive runs the
// caller's release function over every arrival, then opens the next
// generation and wakes everyone once. No virtual time moves here: the
// caller applies what its release computed.
//
// One atomic state word counts the arrivals:
//
//   bits 63..32  generation  generations opened so far, modulo 2^32
//   bits 31..16  live        members that have not dropped out
//   bits 15..0   arrived     members counted in the current generation
//
// so a rendezvous holds at most 65535 members (checked at construction).
//  - Arriving: a member writes its clock and tile slot, reads the
//    generation, reports the arrival to its probes, then counts itself
//    with one fetch_add. The generation cannot open before that count, so
//    every arrive report precedes every release (the Probe contract), and
//    the opener's fetch_add acquires every member's slot.
//  - Opening: the member whose count makes arrived == live runs release,
//    then stores generation + 1 with arrived = 0. Until that store, no
//    member can arrive again, withdraw or drop: every live member is in
//    the generation being opened.
//  - Waiting: the others spin on the word with no lock while
//    spin_before_park allows and return the moment the generation moves;
//    past the spin budget they park in a ParkingLot (sim/guarded_wait.hpp,
//    whose header gives the Dekker pair that makes the wake-up safe), and
//    the watchdog of their own tile's device bounds them.
//  - Withdraw and drop are compare-and-swap loops on the same word.
//
// An earlier version counted arrivals under a mutex that every spinning
// waiter also polled with try_lock. glibc's std::mutex puts a contended
// locker to sleep in the kernel at once, so whenever two members touched
// it together the rendezvous paid a futex sleep and wake, the cost TMC's
// scheduler-assisted sync barrier pays (Fig 5). Now the lock is taken only
// to park and, when someone parked, to wake.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "sim/guarded_wait.hpp"
#include "sim/probe.hpp"

namespace tilesim {

/// What each member reports to its own device's probes.
enum class RendezvousReport : std::uint8_t {
  /// Nothing: the members span devices, and each device's probes would
  /// see only their own (Cluster::run).
  kNone,
  /// The arrive/release pair tshmem-check orders accesses by. No wait
  /// bracket: a harness rendezvous charges no virtual time, and a member
  /// may reset every clock between two of them (Device::host_sync).
  kSync,
  /// kSync's pair plus one kWaitBegin/kWaitEnd bracket at the member's
  /// arrival clock, whatever order the members arrived in.
  kSyncAndWait,
};

class Rendezvous {
 public:
  /// The most members one state word can count.
  static constexpr int kMaxMembers = 0xffff;

  /// `what` (static) names the wait in its bracket and in the watchdog's
  /// diagnostic.
  Rendezvous(int members, const char* what, RendezvousReport report)
      : what_(what),
        report_(report),
        size_(checked(members)),
        clocks_(static_cast<std::size_t>(members)),
        tiles_(clocks_.size()),
        dropped_(clocks_.size()),
        state_(static_cast<std::uint64_t>(members) << kLiveShift) {}

  Rendezvous(const Rendezvous&) = delete;
  Rendezvous& operator=(const Rendezvous&) = delete;

  /// Member `index` (0..size()-1) arrives on `self` with its clock and
  /// blocks until every live member has arrived. The last to arrive calls
  /// release(clocks, tiles), each member's arrival clock and tile by index.
  /// Whatever release stores stays put for a member until that member
  /// arrives again: the next generation cannot complete without it. A
  /// member whose watchdog fires withdraws its arrival and rethrows.
  template <typename Release>
  void arrive(Tile& self, int index, Release&& release) {
    const Device& device = self.device();
    const ps_t clock = self.clock().now();
    const bool sync = report_ != RendezvousReport::kNone;
    const bool bracket = report_ == RendezvousReport::kSyncAndWait;
    if (bracket) probe_event(self, {ProbeKind::kWaitBegin, what_, clock});
    if constexpr (!std::is_same_v<std::decay_t<Release>, NoRelease>) {
      // Only a release reads the slots; the count below publishes them.
      const auto i = static_cast<std::size_t>(index);
      clocks_[i] = clock;
      tiles_[i] = self.id();
    }
    const std::uint64_t generation =
        generation_of(state_.load(std::memory_order_acquire));
    if (sync) probe_rendezvous_arrive(device, this, generation, self.id());
    const std::uint64_t counted =
        state_.fetch_add(kOneArrival, std::memory_order_acq_rel) +
        kOneArrival;
    if (complete(counted)) {
      release(std::span<const ps_t>(clocks_), std::span<const int>(tiles_));
      open(counted);
    } else {
      try {
        lot_.wait(device, self.id(), what_, [&] {
          return generation_of(state_.load(std::memory_order_seq_cst)) !=
                 generation;
        });
      } catch (...) {
        // The watchdog fired: withdraw this arrival, so the members still
        // waiting keep waiting for the missing one.
        withdraw(generation);
        throw;
      }
    }
    if (sync) {
      probe_rendezvous_release(device, this, generation, self.id(), size_);
    }
    if (bracket) probe_event(self, {ProbeKind::kWaitEnd, what_, clock});
  }

  /// arrive() for a rendezvous whose release computes nothing: it records
  /// no arrival.
  void arrive(Tile& self, int index) { arrive(self, index, NoRelease{}); }

  /// Member `index` leaves for good (its tile died); a no-op once it has.
  /// Not for a member that is waiting. A generation its departure
  /// completes opens without a release computation, so only rendezvous
  /// whose release computes nothing drop members.
  void drop(int index) {
    if (dropped_[static_cast<std::size_t>(index)].exchange(
            true, std::memory_order_relaxed)) {
      return;
    }
    std::uint64_t s = state_.load(std::memory_order_relaxed);
    while (!state_.compare_exchange_weak(s, s - kOneLive,
                                         std::memory_order_acq_rel,
                                         std::memory_order_relaxed)) {
    }
    const std::uint64_t left = s - kOneLive;
    if ((left & kArrivedMask) != 0 && complete(left)) open(left);
  }

  [[nodiscard]] int size() const noexcept { return size_; }

  /// Generations completed so far, modulo 2^32.
  [[nodiscard]] std::uint64_t generations() const noexcept {
    return generation_of(state_.load(std::memory_order_acquire));
  }

 private:
  struct NoRelease {
    void operator()(std::span<const ps_t>, std::span<const int>) const {}
  };

  static constexpr int kLiveShift = 16;
  static constexpr int kGenerationShift = 32;
  static constexpr std::uint64_t kArrivedMask = 0xffff;
  static constexpr std::uint64_t kOneArrival = 1;
  static constexpr std::uint64_t kOneLive = std::uint64_t{1} << kLiveShift;

  static constexpr std::uint64_t generation_of(std::uint64_t s) noexcept {
    return s >> kGenerationShift;
  }
  /// Every live member is counted in the current generation.
  static constexpr bool complete(std::uint64_t s) noexcept {
    return (s & kArrivedMask) == ((s >> kLiveShift) & kArrivedMask);
  }

  static int checked(int members) {
    if (members < 1 || members > kMaxMembers) {
      throw std::invalid_argument(
          "a rendezvous needs between 1 and 65535 members");
    }
    return members;
  }

  /// Opens the next generation from `counted`, the word in which every
  /// live member arrived, and wakes whoever parked.
  void open(std::uint64_t counted) {
    const std::uint64_t live = counted & (kArrivedMask << kLiveShift);
    state_.store((generation_of(counted) + 1) << kGenerationShift | live,
                 std::memory_order_seq_cst);
    lot_.wake_all();
  }

  /// Takes back one arrival of `generation`, unless it has opened or its
  /// last arrival is opening it: then the arrival was counted.
  void withdraw(std::uint64_t generation) {
    std::uint64_t s = state_.load(std::memory_order_relaxed);
    while (generation_of(s) == generation && !complete(s)) {
      if (state_.compare_exchange_weak(s, s - kOneArrival,
                                       std::memory_order_acq_rel,
                                       std::memory_order_relaxed)) {
        return;
      }
    }
  }

  const char* what_;
  RendezvousReport report_;
  int size_;
  std::vector<ps_t> clocks_;  ///< arrival clock, by member index
  std::vector<int> tiles_;    ///< arriving tile, by member index
  std::vector<std::atomic<bool>> dropped_;
  // Every arrival writes the word and every spinning waiter reads it, so
  // its line moves between members all the time: it starts a line of its
  // own. The lot's parked count shares it: the opener reads it right after
  // its store.
  alignas(64) std::atomic<std::uint64_t> state_;
  ParkingLot lot_;
};

}  // namespace tilesim
