// Extension — tshmem-check race gallery (src/analysis/, docs/ANALYSIS.md).
//
// A curated set of classic OpenSHMEM synchronization bugs, each run twice:
// the racy form, which the virtual-time happens-before detector must flag,
// and the corrected form, which must come back clean. The gallery doubles
// as living documentation of what a RaceReport looks like and as the
// dynamic half of the CI `racecheck` stage (tools/ci.sh); the structured
// reports printed here are deterministic across reruns and host schedules
// (canonical endpoint ordering + commutative merging in the detector).
//
// Kernels:
//   put-before-barrier     PE 0 puts into PE 1's buffer; PE 1 reads it with
//                          no intervening barrier or flag wait.
//   missing-quiet-nbi      PE 0 issues shmem_putmem_nbi and reuses the
//                          source buffer before shmem_quiet(); the DMA
//                          engine may still be reading it.
//   unlocked-accumulate    two PEs run a read-modify-write cycle on PE 0's
//                          counter with no lock or atomic.
//
// Host-level determinism note: the racy kernels order their conflicting
// *host* accesses with a plain std::atomic token so the underlying memory
// is never touched concurrently (keeps TSan quiet); the token is invisible
// to the detector, which tracks only modeled SHMEM synchronization, so the
// modeled race is still reported.
#include <atomic>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/race.hpp"
#include "bench_common.hpp"
#include "tshmem/context.hpp"
#include "tshmem/runtime.hpp"

namespace {

using tshmem::Context;
using tshmem::analysis::RaceReport;

constexpr int kPes = 4;
constexpr std::size_t kWords = 16;  // per-buffer payload (ints)

/// Runs `kernel` under a fresh kReport-mode runtime and returns the
/// detector's canonical report set.
std::vector<RaceReport> run_gallery(
    const tilesim::DeviceConfig& cfg,
    const std::function<void(Context&)>& kernel) {
  tshmem::RuntimeOptions opts;
  opts.racecheck = tshmem::analysis::RaceMode::kReport;
  tshmem::Runtime rt(cfg, opts);
  rt.run(kPes, kernel);
  return rt.race_reports();
}

// --- kernel 1: put with no barrier before the consumer reads -------------

void put_before_barrier(Context& ctx, bool fixed) {
  auto* buf = static_cast<int*>(ctx.shmalloc(kWords * sizeof(int)));
  static std::atomic<int> token;
  if (ctx.my_pe() == 0) token.store(0, std::memory_order_relaxed);
  ctx.barrier_all();

  if (ctx.my_pe() == 0) {
    std::vector<int> payload(kWords, 42);
    ctx.put(buf, payload.data(), kWords * sizeof(int), 1);
    token.store(1, std::memory_order_release);
  }
  if (fixed) ctx.barrier_all();  // the missing sync op
  if (ctx.my_pe() == 1) {
    while (token.load(std::memory_order_acquire) == 0) {
    }
    int sum = 0;
    for (std::size_t i = 0; i < kWords; ++i) sum += ctx.sym_load(&buf[i]);
    (void)sum;
  }
  ctx.shfree(buf);
}

// --- kernel 2: _nbi source buffer reused before quiet --------------------

void missing_quiet_nbi(Context& ctx, bool fixed) {
  auto* dst = static_cast<int*>(ctx.shmalloc(kWords * sizeof(int)));
  auto* src = static_cast<int*>(ctx.shmalloc(kWords * sizeof(int)));
  ctx.barrier_all();

  if (ctx.my_pe() == 0) {
    ctx.put_nbi(dst, src, kWords * sizeof(int), 1);
    if (fixed) ctx.quiet();
    // Reuse the source buffer "for the next iteration".
    for (std::size_t i = 0; i < kWords; ++i) {
      ctx.sym_store(&src[i], static_cast<int>(i));
    }
    if (!fixed) ctx.quiet();  // quiet after the damage is done
  }
  ctx.barrier_all();
  ctx.shfree(src);
  ctx.shfree(dst);
}

// --- kernel 3: read-modify-write on a shared counter with no lock --------

void unlocked_accumulate(Context& ctx, bool fixed) {
  auto* counter = static_cast<long*>(ctx.shmalloc(sizeof(long)));
  auto* lock = static_cast<long*>(ctx.shmalloc(sizeof(long)));
  static std::atomic<int> token;
  if (ctx.my_pe() == 0) {
    ctx.sym_store(counter, 0L);
    ctx.sym_store(lock, 0L);
    token.store(1, std::memory_order_release);
  }
  ctx.barrier_all();

  if (ctx.my_pe() == 1 || ctx.my_pe() == 2) {
    // Host-order the two PEs' turns with the token so the underlying
    // bytes are never written concurrently; the modeled accesses remain
    // unordered (no SHMEM sync between them) unless the lock is taken.
    while (token.load(std::memory_order_acquire) != ctx.my_pe()) {
    }
    if (fixed) ctx.set_lock(lock);
    long v = 0;
    ctx.get(&v, counter, sizeof(long), 0);
    v += ctx.my_pe();
    ctx.put(counter, &v, sizeof(long), 0);
    if (fixed) ctx.clear_lock(lock);
    token.store(ctx.my_pe() + 1, std::memory_order_release);
  }
  ctx.barrier_all();
  ctx.shfree(lock);
  ctx.shfree(counter);
}

// --- harness -------------------------------------------------------------

struct GalleryCase {
  const char* name;
  void (*kernel)(Context&, bool);
};

constexpr GalleryCase kGallery[] = {
    {"put-before-barrier", put_before_barrier},
    {"missing-quiet-nbi", missing_quiet_nbi},
    {"unlocked-accumulate", unlocked_accumulate},
};

}  // namespace

static int run_main(int argc, char** argv) {
  // The gallery sets its own mode per runtime; the CI racecheck stage runs
  // everything else with TSHMEM_RACECHECK=fail, which must not leak in here.
  ::unsetenv("TSHMEM_RACECHECK");

  const tshmem_util::Cli cli(argc, argv, {"csv"});
  const auto devices = bench::devices_from_cli(cli);
  cli.reject_unknown();
  tshmem_util::print_banner(
      std::cout, "Extension — race gallery",
      "tshmem-check: racy kernels must be flagged, corrected ones clean");

  int failures = 0;
  for (const auto* cfg : devices) {
    std::cout << "\n=== device " << cfg->name << " ===\n";
    for (const auto& gc : kGallery) {
      const auto racy = run_gallery(
          *cfg, [&gc](Context& ctx) { gc.kernel(ctx, /*fixed=*/false); });
      const auto fixed = run_gallery(
          *cfg, [&gc](Context& ctx) { gc.kernel(ctx, /*fixed=*/true); });

      std::cout << "\n[" << gc.name << "] racy form: " << racy.size()
                << " report(s)\n";
      for (const auto& r : racy) std::cout << "  " << r.describe() << "\n";
      std::cout << "[" << gc.name << "] corrected form: " << fixed.size()
                << " report(s)\n";
      for (const auto& r : fixed) std::cout << "  " << r.describe() << "\n";

      if (racy.empty()) {
        std::cout << "FAIL: racy form of '" << gc.name << "' not flagged\n";
        ++failures;
      }
      if (!fixed.empty()) {
        std::cout << "FAIL: corrected form of '" << gc.name
                  << "' produced reports\n";
        ++failures;
      }
    }
  }

  std::cout << "\next_races: " << (failures == 0 ? "PASS" : "FAIL") << "\n";
  return failures == 0 ? 0 : 1;
}

int main(int argc, char** argv) {
  return tshmem_util::cli_main(argc, argv, run_main);
}
