// Watchdog-aware blocking primitives, shared by every blocking wait in the
// tree (UDN queues, mPIPE/STN receives, SHMEM waits and locks, and every
// host rendezvous through sim/rendezvous.hpp). These are the ONLY place
// src/ is allowed to block on a condition variable, barrier, latch or
// atomic wait, or to spin-yield:
// tools/tshmem_lint.py (rules raw-blocking-wait and unbounded-spin)
// machine-checks that every other blocking wait routes through here, so the
// "every blocking wait is bounded by the watchdog" invariant of
// docs/ROBUSTNESS.md holds by construction, not convention.
//
// A wait first spins, then parks. While the process's running tile threads
// fit on its usable CPUs (spin_before_park), the thread that will satisfy
// the wait is already running on another CPU, so the waiter polls for a
// few microseconds, less than one park and wake cost, before it parks
// (competitive spinning, Karlin et al., SOSP 1991). With more tile threads
// than CPUs the waker may be queued behind the spinner, so the wait parks
// at once. Either way this is host time only: no clock moves here.
//
// The spin holds no lock. It polls a caller-supplied ready() that reads
// only atomics: a queue's depth, which the queue writes under its mutex
// beside the deque it mirrors, or tilesim::Rendezvous's state word. A spin
// that polled the real predicate would need the wait's mutex, and that
// mutex is the one the waker needs: glibc's std::mutex puts a contended
// locker to sleep in the kernel at once, so spinners that try_lock'ed it
// turned a wait meant to save a park into a futex sleep and wake on the
// critical path. A queue wait takes its lock only once ready() holds,
// checks its real predicate there, and keeps waiting if another consumer
// won (guarded_host_wait).
//
// Two kinds of waker, two parks:
//  - A queue's waker changes the predicate under the wait's mutex and
//    notifies its condition variable, so the park is exactly
//    cv.wait(lk, pred).
//  - A lock-free waker (tilesim::Rendezvous) publishes with one atomic
//    store and takes no lock unless someone parked (ParkingLot). A waiter
//    that outlasts its spin locks the lot's mutex, counts itself in
//    `parked`, then re-checks ready() and sleeps. The waker stores its
//    state, then reads `parked`, and only when it is non-zero passes
//    through the mutex and notifies. That is a Dekker pair: each side
//    writes its own word and then reads the other's. With all four
//    accesses seq_cst, at least one side sees the other's write, so either
//    the waiter sees the new state and does not sleep, or the waker sees
//    the waiter and wakes it. With any of them weaker, both may read the
//    old values, and the waiter sleeps through its wake-up.
//
// With no watchdog attached a park waits as long as it takes; with one
// attached it wakes every `timeout` and hands control to on_timeout, which
// is expected to throw a diagnostic tshmem::Error instead of letting the
// tile hang.
//
// One wait is not a tile's: a thread of a Device's crew waiting between
// jobs for its next tile, and Device::run's caller waiting for the crew to
// finish a job (ParkingLot::wait_idle). No tile is blocked there, so no
// watchdog bounds it. It spins longer than a tile wait, across the host
// work between two short jobs, and only while the crew and the caller fit
// on the usable CPUs.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <thread>

#include "sim/device.hpp"
#include "sim/fault.hpp"
#include "sim/probe.hpp"

namespace tilesim {

/// The spin decision: spin before parking only while every running tile
/// thread can hold a CPU of its own. One CPU never spins: the waker would
/// be waiting for the spinner to give it up.
[[nodiscard]] constexpr bool spin_before_park(int running_tile_threads,
                                              int usable_cpus) noexcept {
  return usable_cpus > 1 && running_tile_threads <= usable_cpus;
}

namespace detail {

/// Below the cost of one park and wake (a two-thread condition-variable
/// round trip takes ~15 µs on a 4-vCPU x86 KVM guest): a longer budget
/// burns CPU on waits that end up parking anyway.
inline constexpr std::chrono::microseconds kSpinBudget{5};

/// How long an idle crew thread or run()'s caller spins (wait_idle). It
/// covers the host work between two short jobs (a tshmem job's set-up and
/// teardown): with kSpinBudget, idle threads often parked between jobs,
/// and every job paid their wake-up.
inline constexpr std::chrono::microseconds kIdleSpinBudget{50};

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

/// When a wait that starts now stops spinning, or nullopt when it must
/// park at once (spin_before_park).
inline std::optional<std::chrono::steady_clock::time_point>
spin_deadline() noexcept {
  if (!spin_before_park(Device::running_tile_threads(),
                        Device::usable_cpus())) {
    return std::nullopt;
  }
  return std::chrono::steady_clock::now() + kSpinBudget;
}

/// The spin of every wait that parks: polls the lock-free ready() with no
/// lock held until it holds (true) or `deadline` passes (false).
template <typename Ready>
bool spin_until(Ready& ready, std::chrono::steady_clock::time_point deadline) {
  while (!ready()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    cpu_relax();
  }
  return true;
}

/// Parks on `cv` under `lk` (held on entry and on return) until pred()
/// holds, bounded by the device's watchdog.
template <typename Pred>
void park(const Device& device, std::unique_lock<std::mutex>& lk,
          std::condition_variable& cv, int tile, const char* what,
          Pred& pred) {
  const Watchdog* wd = device.watchdog();
  if (wd == nullptr) {
    cv.wait(lk, pred);
    return;
  }
  while (!cv.wait_for(lk, wd->timeout, pred)) {
    // Release the wait's lock around the callback: the diagnostic snapshot
    // reads queue depths and per-PE state, which may need this same lock.
    lk.unlock();
    wd->on_timeout(tile, what);
    lk.lock();
  }
}

}  // namespace detail

/// guarded_wait without the flight-recorder bracket. UdnFabric::recv_raw
/// waits through this: its tag-matching caller brackets the whole receive
/// once. `lk` is held on entry and on return, and pred() is only evaluated
/// under it; ready() reads only atomics and says when pred() may hold.
template <typename Ready, typename Pred>
void guarded_host_wait(const Device& device,
                       std::unique_lock<std::mutex>& lk,
                       std::condition_variable& cv, int tile,
                       const char* what, Ready ready, Pred pred) {
  if (pred()) return;
  if (const auto deadline = detail::spin_deadline()) {
    lk.unlock();
    do {
      if (!detail::spin_until(ready, *deadline)) break;
      lk.lock();
      if (pred()) return;
      lk.unlock();  // another consumer won: keep spinning
    } while (std::chrono::steady_clock::now() < *deadline);
    lk.lock();
  }
  detail::park(device, lk, cv, tile, what, pred);
}

template <typename Ready, typename Pred>
void guarded_wait(const Device& device, std::unique_lock<std::mutex>& lk,
                  std::condition_variable& cv, int tile, const char* what,
                  Ready ready, Pred pred) {
  // Flight-recorder bracket: the clock cannot advance inside a wait, so
  // begin and end carry the same virtual time — host-schedule independent.
  const Tile& self = device.tile(tile);
  const ps_t wait_vt = self.clock().now();
  probe_event(self, {ProbeKind::kWaitBegin, what, wait_vt});
  guarded_host_wait(device, lk, cv, tile, what, ready, pred);
  probe_event(self, {ProbeKind::kWaitEnd, what, wait_vt});
}

/// Where the waiters of a lock-free waker park (tilesim::Rendezvous): the
/// Dekker pair of the header comment. The waker publishes with a seq_cst
/// store and then calls wake_all().
class ParkingLot {
 public:
  /// Blocks until ready() holds: spins while spin_before_park allows, then
  /// parks, bounded by `device`'s watchdog. ready() must read the waker's
  /// state with seq_cst loads. A watchdog error leaves the lot as found.
  template <typename Ready>
  void wait(const Device& device, int tile, const char* what, Ready ready) {
    if (ready()) return;
    if (const auto deadline = detail::spin_deadline();
        deadline && detail::spin_until(ready, *deadline)) {
      return;
    }
    park([&](std::unique_lock<std::mutex>& lk) {
      detail::park(device, lk, cv_, tile, what, ready);
    });
  }

  /// Blocks until ready() holds, for a thread that waits between tiles
  /// rather than in one (Device's crew and run()'s caller): spins for up
  /// to kIdleSpinBudget while `threads` fit on the usable CPUs
  /// (spin_before_park), then parks with no watchdog. ready() must read
  /// the waker's state with seq_cst loads.
  template <typename Ready>
  void wait_idle(int threads, Ready ready) {
    if (ready()) return;
    if (spin_before_park(threads, Device::usable_cpus()) &&
        detail::spin_until(ready, std::chrono::steady_clock::now() +
                                      detail::kIdleSpinBudget)) {
      return;
    }
    park([&](std::unique_lock<std::mutex>& lk) { cv_.wait(lk, ready); });
  }

  /// Wakes every parked waiter. Call after the seq_cst store that makes
  /// their ready() hold; it locks nothing when nobody parked.
  void wake_all() {
    if (parked_.load(std::memory_order_seq_cst) == 0) return;
    // Passing through the mutex orders this wake after a waiter that
    // counted itself and saw the old state: it is inside cv_.wait by now.
    { std::scoped_lock lk(mu_); }
    cv_.notify_all();
  }

 private:
  /// The waiter's half of the Dekker pair: counts itself in parked_ under
  /// the lot's mutex, then sleep(lk) re-checks ready() and sleeps on cv_.
  template <typename Sleep>
  void park(Sleep sleep) {
    std::unique_lock lk(mu_);
    parked_.fetch_add(1, std::memory_order_seq_cst);
    struct Leave {
      std::atomic<int>& parked;
      ~Leave() { parked.fetch_sub(1, std::memory_order_seq_cst); }
    } leave{parked_};
    sleep(lk);
  }

  std::atomic<int> parked_{0};
  std::mutex mu_;
  std::condition_variable cv_;
};

/// Watchdog-aware spin loop: retries `attempt` (which may have side
/// effects — e.g. a CAS that advances virtual time per try) until it
/// returns true, yielding between tries. Used by shmem_wait_until and
/// shmem_set_lock, whose progress comes from another PE's plain store
/// rather than a condition variable.
template <typename Attempt>
void guarded_spin(const Device& device, int tile, const char* what,
                  Attempt attempt) {
  // Begin-only bracket: attempts may advance virtual time (a failed lock
  // CAS charges the atomic cost model), so the matching end event belongs
  // to the caller, which records it after merging the final timestamp.
  const Tile& self = device.tile(tile);
  probe_event(self, {ProbeKind::kWaitBegin, what, self.clock().now()});
  const Watchdog* wd = device.watchdog();
  auto deadline = wd != nullptr
                      ? std::chrono::steady_clock::now() + wd->timeout
                      : std::chrono::steady_clock::time_point::max();
  while (!attempt()) {
    std::this_thread::yield();
    if (wd != nullptr && std::chrono::steady_clock::now() >= deadline) {
      wd->on_timeout(tile, what);
      deadline = std::chrono::steady_clock::now() + wd->timeout;
    }
  }
}

}  // namespace tilesim
