// Heat-diffusion stencil: a fourth example exercising the halo-exchange
// pattern SHMEM was designed for — each PE owns a slab of a 2D grid and
// exchanges boundary rows with its neighbors via one-sided puts plus
// point-to-point synchronization (shmem_wait), then the PEs jointly track
// convergence with a max-reduction.
//
//   ./heat_stencil --device gx36 --pes 8 --n 256 --iters 200
#include <cmath>
#include <cstdio>
#include <vector>

#include "tshmem/api.hpp"
#include "tshmem/runtime.hpp"
#include "util/cli.hpp"

namespace {

/// Serial reference for verification.
std::vector<double> serial_heat(std::size_t n, int iters) {
  std::vector<double> grid(n * n, 0.0), next(n * n, 0.0);
  for (std::size_t c = 0; c < n; ++c) grid[c] = next[c] = 100.0;  // hot top edge
  for (int it = 0; it < iters; ++it) {
    for (std::size_t r = 1; r + 1 < n; ++r) {
      for (std::size_t c = 1; c + 1 < n; ++c) {
        next[r * n + c] = 0.25 * (grid[(r - 1) * n + c] + grid[(r + 1) * n + c] +
                                  grid[r * n + c - 1] + grid[r * n + c + 1]);
      }
    }
    std::swap(grid, next);
    next = grid;  // keep boundaries
  }
  return grid;
}

}  // namespace

static int run_main(int argc, char** argv) {
  const tshmem_util::Cli cli(argc, argv);
  const auto& device =
      cli.get_as("device", "gx36", tilesim::device_by_name);
  const int npes = static_cast<int>(cli.get_int("pes", 8));
  const auto n = static_cast<std::size_t>(cli.get_int("n", 128));
  const int iters = static_cast<int>(cli.get_int("iters", 100));
  cli.reject_unknown();
  if (n % static_cast<std::size_t>(npes) != 0) {
    std::fprintf(stderr, "n (%zu) must be divisible by pes (%d)\n", n, npes);
    return 2;
  }
  std::printf("heat stencil %zux%zu, %d iterations, %d PEs on %s\n", n, n,
              iters, npes, device.name.c_str());

  std::vector<double> result(n * n);
  tilesim::ps_t elapsed = 0;
  tshmem::run_spmd(device, npes, [&](tshmem::Context& ctx) {
    using namespace tshmem::api;
    start_pes(0);
    const int me = _my_pe();
    const int np = _num_pes();
    const std::size_t rows = n / static_cast<std::size_t>(np);

    // Slab with one halo row above and below.
    auto* slab = static_cast<double*>(shmalloc((rows + 2) * n * sizeof(double)));
    auto* next = static_cast<double*>(shmalloc((rows + 2) * n * sizeof(double)));
    auto* halo_flags = static_cast<long*>(shmalloc(2 * sizeof(long)));
    halo_flags[0] = halo_flags[1] = 0;
    for (std::size_t i = 0; i < (rows + 2) * n; ++i) slab[i] = next[i] = 0.0;
    if (me == 0) {
      for (std::size_t c = 0; c < n; ++c) slab[1 * n + c] = next[1 * n + c] = 100.0;
    }
    shmem_barrier_all();
    ctx.harness_sync_reset();
    const auto t0 = ctx.clock().now();

    for (int it = 0; it < iters; ++it) {
      // Halo exchange: push my edge rows into my neighbors' halo rows,
      // then raise their flag (fence orders data before flag).
      if (me > 0) {
        shmem_putmem(&slab[(rows + 1) * n], &slab[1 * n], n * sizeof(double),
                     me - 1);
        shmem_fence();
        shmem_long_p(&halo_flags[1], it + 1, me - 1);
      }
      if (me < np - 1) {
        shmem_putmem(&slab[0], &slab[rows * n], n * sizeof(double), me + 1);
        shmem_fence();
        shmem_long_p(&halo_flags[0], it + 1, me + 1);
      }
      if (me > 0) shmem_long_wait_until(&halo_flags[0], SHMEM_CMP_GE, it + 1);
      if (me < np - 1) {
        shmem_long_wait_until(&halo_flags[1], SHMEM_CMP_GE, it + 1);
      }

      // Jacobi update over my interior rows (global boundary rows fixed).
      const std::size_t gr0 = static_cast<std::size_t>(me) * rows;
      for (std::size_t lr = 1; lr <= rows; ++lr) {
        const std::size_t gr = gr0 + lr - 1;
        if (gr == 0 || gr == n - 1) continue;
        for (std::size_t c = 1; c + 1 < n; ++c) {
          next[lr * n + c] =
              0.25 * (slab[(lr - 1) * n + c] + slab[(lr + 1) * n + c] +
                      slab[lr * n + c - 1] + slab[lr * n + c + 1]);
        }
      }
      ctx.charge_fp_ops(rows * (n - 2) * 4);
      for (std::size_t i = n; i < (rows + 1) * n; ++i) slab[i] = next[i];
      ctx.charge_mem_ops(rows * n);
      shmem_barrier_all();
    }
    const auto t1 = ctx.clock().now();

    // Gather the slabs on PE 0 for verification.
    if (me == 0) {
      for (int pe = 0; pe < np; ++pe) {
        shmem_getmem(&result[static_cast<std::size_t>(pe) * rows * n],
                     &slab[1 * n], rows * n * sizeof(double), pe);
      }
      elapsed = t1 - t0;
    }
    shmem_barrier_all();
    shfree(halo_flags);
    shfree(next);
    shfree(slab);
    shmem_finalize();
  });

  const auto reference = serial_heat(n, iters);
  double max_err = 0.0;
  for (std::size_t i = 0; i < n * n; ++i) {
    max_err = std::max(max_err, std::abs(result[i] - reference[i]));
  }
  std::printf("virtual device time: %.3f ms; max |err| vs serial = %.3g %s\n",
              tshmem_util::ps_to_ms(elapsed), max_err,
              max_err < 1e-9 ? "(OK)" : "(FAILED)");
  return max_err < 1e-9 ? 0 : 1;
}

int main(int argc, char** argv) {
  return tshmem_util::cli_main(argc, argv, run_main);
}
