// SUMMA matrix multiplication: C = A x B on a 2D process grid, the classic
// PGAS collective workout. Each PE owns one block of each matrix; every
// step k broadcasts an A-panel along its process *row* and a B-panel along
// its process *column* — both are strided OpenSHMEM active sets
// (PE_start, logPE_stride, PE_size), exercising exactly the active-set
// machinery of paper Table I on non-trivial strides.
//
//   ./matmul_summa --device gx36 --rows 2 --cols 2 --n 128
//
// The grid must be square with power-of-two dims (active-set strides are
// log2-based and SUMMA steps equal the grid order).
#include <cmath>
#include <cstdio>
#include <vector>

#include "tshmem/context.hpp"
#include "tshmem/runtime.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace {

bool is_pow2(int v) { return v > 0 && (v & (v - 1)) == 0; }

int log2_of(int v) {
  int k = 0;
  while ((1 << k) < v) ++k;
  return k;
}

double elem(std::size_t r, std::size_t c, std::uint64_t seed) {
  tshmem_util::SplitMix64 sm(seed ^ (r * 1315423911u) ^ (c * 2654435761u));
  return static_cast<double>(sm.next() % 1000) / 500.0 - 1.0;
}

}  // namespace

static int run_main(int argc, char** argv) {
  const tshmem_util::Cli cli(argc, argv);
  const auto& device =
      cli.get_as("device", "gx36", tilesim::device_by_name);
  const int pr = static_cast<int>(cli.get_int("rows", 2));
  const int pc = static_cast<int>(cli.get_int("cols", 2));
  const auto n = static_cast<std::size_t>(cli.get_int("n", 128));
  cli.reject_unknown();
  if (!is_pow2(pr) || !is_pow2(pc) || pr != pc) {
    std::fprintf(stderr, "grid must be square with power-of-two dims\n");
    return 2;
  }
  if (n % static_cast<std::size_t>(pr) != 0 ||
      n % static_cast<std::size_t>(pc) != 0) {
    std::fprintf(stderr, "n must be divisible by both grid dims\n");
    return 2;
  }
  const int npes = pr * pc;
  const std::size_t br = n / static_cast<std::size_t>(pr);  // block rows
  const std::size_t bc = n / static_cast<std::size_t>(pc);  // block cols
  std::printf("SUMMA %zux%zu on a %dx%d grid (%d PEs), %s\n", n, n, pr, pc,
              npes, device.name.c_str());

  tshmem::RuntimeOptions opts;
  opts.heap_per_pe = 6 * n * n * sizeof(double) / static_cast<std::size_t>(npes) +
                     (8 << 20);
  tshmem::Runtime rt(device, opts);
  std::vector<double> result(n * n);
  tilesim::ps_t elapsed = 0;

  rt.run(npes, [&](tshmem::Context& ctx) {
    const int me = ctx.my_pe();
    const int my_r = me / pc;
    const int my_c = me % pc;
    // Blocks are stored row-major; A block is br x bc, B block br x bc,
    // C block br x bc (square grid blocks over the k dimension use the
    // full-width panels below).
    auto* a = ctx.shmalloc_n<double>(br * bc);
    auto* b = ctx.shmalloc_n<double>(br * bc);
    auto* c = ctx.shmalloc_n<double>(br * bc);
    auto* a_panel = ctx.shmalloc_n<double>(br * bc);
    auto* b_panel = ctx.shmalloc_n<double>(br * bc);
    for (std::size_t i = 0; i < br; ++i) {
      for (std::size_t j = 0; j < bc; ++j) {
        const std::size_t gr = static_cast<std::size_t>(my_r) * br + i;
        const std::size_t gc = static_cast<std::size_t>(my_c) * bc + j;
        a[i * bc + j] = elem(gr, gc, 0xaaaa);
        b[i * bc + j] = elem(gr, gc, 0xbbbb);
        c[i * bc + j] = 0.0;
      }
    }
    ctx.barrier_all();
    ctx.harness_sync_reset();
    const auto t0 = ctx.clock().now();

    // SUMMA super-steps: in step k, the PE in column k of each process row
    // broadcasts its A block along the row; the PE in row k of each
    // process column broadcasts its B block down the column.
    const tshmem::ActiveSet my_row{my_r * pc, 0, pc};
    const tshmem::ActiveSet my_col{my_c, log2_of(pc), pr};
    for (int k = 0; k < pc; ++k) {
      // Row broadcast of A(my_r, k).
      if (my_c == k) {
        std::memcpy(a_panel, a, br * bc * sizeof(double));
        ctx.charge_mem_ops(br * bc);
      }
      ctx.broadcast(a_panel, a_panel, br * bc * sizeof(double), k, my_row);
      // Column broadcast of B(k, my_c).
      if (my_r == k) {
        std::memcpy(b_panel, b, br * bc * sizeof(double));
        ctx.charge_mem_ops(br * bc);
      }
      ctx.broadcast(b_panel, b_panel, br * bc * sizeof(double), k, my_col);
      // Local GEMM: C += A_panel * B_panel (square br x br blocks).
      for (std::size_t i = 0; i < br; ++i) {
        for (std::size_t kk = 0; kk < bc; ++kk) {
          const double av = a_panel[i * bc + kk];
          for (std::size_t j = 0; j < bc; ++j) {
            c[i * bc + j] += av * b_panel[kk * bc + j];
          }
        }
      }
      ctx.charge_fp_ops(2 * br * bc * bc);
      ctx.barrier_all();
    }
    const auto t1 = ctx.clock().now();

    // Gather C on PE 0 for verification.
    if (me == 0) {
      for (int pe = 0; pe < npes; ++pe) {
        std::vector<double> blk(br * bc);
        ctx.get(blk.data(), c, br * bc * sizeof(double), pe);
        const int r0 = (pe / pc) * static_cast<int>(br);
        const int c0 = (pe % pc) * static_cast<int>(bc);
        for (std::size_t i = 0; i < br; ++i) {
          for (std::size_t j = 0; j < bc; ++j) {
            result[(static_cast<std::size_t>(r0) + i) * n +
                   static_cast<std::size_t>(c0) + j] = blk[i * bc + j];
          }
        }
      }
      elapsed = t1 - t0;
    }
    ctx.barrier_all();
    ctx.shfree(b_panel);
    ctx.shfree(a_panel);
    ctx.shfree(c);
    ctx.shfree(b);
    ctx.shfree(a);
  });

  // Serial verification.
  double max_err = 0.0;
  for (std::size_t i = 0; i < n; i += std::max<std::size_t>(1, n / 16)) {
    for (std::size_t j = 0; j < n; j += std::max<std::size_t>(1, n / 16)) {
      double acc = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        acc += elem(i, k, 0xaaaa) * elem(k, j, 0xbbbb);
      }
      max_err = std::max(max_err, std::abs(acc - result[i * n + j]));
    }
  }
  std::printf("virtual device time: %.3f ms; sampled max |err| = %.3g %s\n",
              tshmem_util::ps_to_ms(elapsed), max_err,
              max_err < 1e-9 ? "(OK)" : "(FAILED)");
  return max_err < 1e-9 ? 0 : 1;
}

int main(int argc, char** argv) {
  return tshmem_util::cli_main(argc, argv, run_main);
}
