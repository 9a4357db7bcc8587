// The one place tile threads meet. Every host-side rendezvous in the tree
// is this class with its own release math: Device::host_sync (none), the
// TMC spin and sync barriers and compare::ForkJoin's fork through
// tmc::VtBarrier (max arrival plus the barrier model), the linear token
// barrier (tshmem::linear_token_schedule), and Cluster::run's start and
// finish gates (none).
//
// Members arrive by index with their clock. The last to arrive runs the
// caller's release function over every arrival under the one lock, then
// wakes everyone once; the others wait through guarded_host_wait, so they
// spin before they park and the watchdog of their own tile's device bounds
// them. No virtual time moves here: the caller applies what its release
// computed.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
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
  /// `what` (static) names the wait in its bracket and in the watchdog's
  /// diagnostic.
  Rendezvous(int members, const char* what, RendezvousReport report)
      : what_(what),
        report_(report),
        size_(checked(members)),
        clocks_(static_cast<std::size_t>(members)),
        tiles_(clocks_.size()),
        dropped_(clocks_.size()),
        live_(members) {}

  Rendezvous(const Rendezvous&) = delete;
  Rendezvous& operator=(const Rendezvous&) = delete;

  /// Member `index` (0..size()-1) arrives on `self` with its clock and
  /// blocks until every live member has arrived. The last to arrive calls
  /// release(clocks, tiles), each member's arrival clock and tile by index,
  /// under the lock. Whatever release stores stays put for a member until
  /// that member arrives again: the next generation cannot complete
  /// without it. A member whose watchdog fires withdraws its arrival and
  /// rethrows.
  template <typename Release>
  void arrive(Tile& self, int index, Release&& release) {
    const Device& device = self.device();
    const ps_t clock = self.clock().now();
    const bool sync = report_ != RendezvousReport::kNone;
    const bool bracket = report_ == RendezvousReport::kSyncAndWait;
    if (bracket) probe_event(self, {ProbeKind::kWaitBegin, what_, clock});
    std::unique_lock lk(mu_);
    if constexpr (!std::is_same_v<std::decay_t<Release>, NoRelease>) {
      // Only a release reads the slots, and a store to them is a
      // cache-line transfer inside the critical section.
      const auto i = static_cast<std::size_t>(index);
      clocks_[i] = clock;
      tiles_[i] = self.id();
    }
    const std::uint64_t generation = generation_;
    // Under the lock and before counting: every arrive is reported before
    // the generation opens, so before any release (the Probe contract).
    if (sync) probe_rendezvous_arrive(device, this, generation, self.id());
    if (++arrived_ == live_) {
      release(std::span<const ps_t>(clocks_), std::span<const int>(tiles_));
      open(lk);
    } else {
      try {
        guarded_host_wait(device, lk, cv_, self.id(), what_,
                          [&] { return generation_ != generation; });
      } catch (...) {
        // The watchdog fired: withdraw this arrival, so the members still
        // waiting keep waiting for the missing one.
        if (!lk.owns_lock()) lk.lock();
        if (generation_ == generation) --arrived_;
        throw;
      }
      lk.unlock();
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
    std::unique_lock lk(mu_);
    const auto i = static_cast<std::size_t>(index);
    if (dropped_[i]) return;
    dropped_[i] = true;
    --live_;
    if (arrived_ > 0 && arrived_ == live_) open(lk);
  }

  [[nodiscard]] int size() const noexcept { return size_; }

  /// Generations completed so far.
  [[nodiscard]] std::uint64_t generations() const {
    std::scoped_lock lk(mu_);
    return generation_;
  }

 private:
  struct NoRelease {
    void operator()(std::span<const ps_t>, std::span<const int>) const {}
  };

  static int checked(int members) {
    if (members < 1) {
      throw std::invalid_argument("a rendezvous needs at least one member");
    }
    return members;
  }

  /// Completes the current generation. Called with `lk` held; releases it.
  void open(std::unique_lock<std::mutex>& lk) {
    arrived_ = 0;
    ++generation_;
    lk.unlock();
    cv_.notify_all();
  }

  const char* what_;
  RendezvousReport report_;
  int size_;
  std::vector<ps_t> clocks_;  ///< arrival clock, by member index
  std::vector<int> tiles_;    ///< arriving tile, by member index
  std::vector<bool> dropped_;
  // Every arrival and every spinning poll takes the lock, so its line moves
  // between members all the time; the fields above never change after
  // construction and stay off that line.
  alignas(64) mutable std::mutex mu_;
  std::condition_variable cv_;
  int live_;  ///< members that have not dropped out
  int arrived_ = 0;
  std::uint64_t generation_ = 0;
};

}  // namespace tilesim
