// Quickstart: the canonical TSHMEM "hello world" — launch PEs on a
// simulated Tilera device, allocate symmetric memory, pass data around a
// ring with one-sided puts, synchronize with barriers, and reduce.
//
//   ./quickstart --device gx36 --pes 8
//
// The code inside run_spmd() is plain OpenSHMEM v1.0 (paper Table I): it
// would compile against any compliant SHMEM library with the namespace
// qualifier removed. It checks its own results: stdout is the same on every
// run, and the exit status is 1 when the ring, the tickets or the sum is
// wrong.
#include <atomic>
#include <cstdio>
#include <vector>

#include "tshmem/api.hpp"
#include "tshmem/runtime.hpp"
#include "util/cli.hpp"

static int run_main(int argc, char** argv) {
  const tshmem_util::Cli cli(argc, argv);
  const auto& device =
      cli.get_as("device", "gx36", tilesim::device_by_name);
  const int npes = static_cast<int>(cli.get_int("pes", 8));
  cli.reject_unknown();
  std::printf("quickstart: %d PEs on %s\n", npes, device.name.c_str());

  // PE 0 gathers every result and prints it in PE order, so stdout does not
  // depend on how the host schedules the PEs; any wrong result fails.
  std::atomic<bool> ok{true};
  tshmem::run_spmd(device, npes, [&ok](tshmem::Context& ctx) {
    using namespace tshmem::api;
    start_pes(0);
    const int me = _my_pe();
    const int n = _num_pes();
    auto* gathered = static_cast<long*>(shmalloc(n * sizeof(long)));

    // --- one-sided ring put ------------------------------------------------
    auto* slot = static_cast<long*>(shmalloc(sizeof(long)));
    *slot = -1;
    shmem_barrier_all();
    shmem_long_p(slot, 100L + me, (me + 1) % n);  // put my id to my neighbor
    shmem_barrier_all();
    shmem_long_p(&gathered[me], *slot, 0);
    shmem_barrier_all();
    if (me == 0) {
      for (int pe = 0; pe < n; ++pe) {
        const int from = (pe + n - 1) % n;
        std::printf("PE %d received token %ld from PE %d\n", pe, gathered[pe],
                    from);
        if (gathered[pe] != 100L + from) ok = false;
      }
    }
    shmem_barrier_all();

    // --- atomic ticket counter ----------------------------------------------
    // Which PE draws which ticket follows the host's order of the
    // fetch-adds, so only the set of tickets is checked and printed.
    auto* tickets = static_cast<long*>(shmalloc(sizeof(long)));
    if (me == 0) *tickets = 0;
    shmem_barrier_all();
    shmem_long_p(&gathered[me], shmem_long_finc(tickets, 0), 0);
    shmem_barrier_all();
    if (me == 0) {
      std::vector<bool> drawn(static_cast<std::size_t>(n), false);
      bool permutation = true;
      for (int pe = 0; pe < n; ++pe) {
        const long t = gathered[pe];
        if (t < 0 || t >= n || drawn[static_cast<std::size_t>(t)]) {
          permutation = false;
        } else {
          drawn[static_cast<std::size_t>(t)] = true;
        }
      }
      std::printf("tickets drawn: %s permutation of 0..%d\n",
                  permutation ? "a" : "NOT a", n - 1);
      if (!permutation) ok = false;
    }
    shmem_barrier_all();

    // --- reduction -----------------------------------------------------------
    auto* psync = static_cast<long*>(
        shmalloc(SHMEM_REDUCE_SYNC_SIZE * sizeof(long)));
    auto* pwrk = static_cast<int*>(
        shmalloc(SHMEM_REDUCE_MIN_WRKDATA_SIZE * sizeof(int)));
    auto* src = static_cast<int*>(shmalloc(sizeof(int)));
    auto* sum = static_cast<int*>(shmalloc(sizeof(int)));
    *src = me + 1;
    shmem_barrier_all();
    shmem_int_sum_to_all(sum, src, 1, 0, 0, n, pwrk, psync);
    if (me == 0) {
      std::printf("sum over PEs of (pe+1) = %d (expected %d)\n", *sum,
                  n * (n + 1) / 2);
      if (*sum != n * (n + 1) / 2) ok = false;
      std::printf("virtual device time elapsed: %.2f us\n",
                  tshmem_util::ps_to_us(ctx.clock().now()));
    }
    shmem_barrier_all();

    shfree(sum);
    shfree(src);
    shfree(pwrk);
    shfree(psync);
    shfree(tickets);
    shfree(slot);
    shfree(gathered);
    shmem_finalize();  // the paper's proposed teardown extension (SIV-E)
  });
  if (!ok) {
    std::printf("quickstart: FAILED\n");
    return 1;
  }
  return 0;
}

int main(int argc, char** argv) {
  return tshmem_util::cli_main(argc, argv, run_main);
}
