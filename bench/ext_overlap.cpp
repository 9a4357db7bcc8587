// Extension — communication/computation overlap with non-blocking puts
// (sim/dma.hpp + shmem_putmem_nbi; docs/NBI.md).
//
// Sweeps message size x compute grain on both devices. For each cell, PE 0
// pushes one message to PE 1 and then computes for `grain x transfer-cost`
// virtual time, once with a blocking put (communication serializes before
// the compute) and once with put_nbi + shmem_quiet (the DMA engine moves
// the data underneath the compute). The speedup column is the blocking
// virtual time over the non-blocking one: it approaches
// (1 + grain) / max(1, grain) as the fixed issue/setup costs amortize, i.e.
// ~2x at grain 1.0 for large messages.
#include <algorithm>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "sim/mem_model.hpp"
#include "tshmem/context.hpp"
#include "tshmem/runtime.hpp"

namespace {

using tshmem::Context;
using tshmem_util::ps_t;

struct Cell {
  ps_t blocking_ps = 0;
  ps_t nbi_ps = 0;
};

Cell measure(tshmem::Runtime& rt, std::size_t bytes, std::uint64_t int_ops) {
  Cell cell;
  rt.run(2, [&](Context& ctx) {
    auto* dst = static_cast<std::byte*>(ctx.shmalloc(bytes));
    auto* src = static_cast<std::byte*>(ctx.shmalloc(bytes));
    ctx.barrier_all();

    // Blocking baseline: put, then compute, then quiet.
    ctx.harness_sync_reset();
    if (ctx.my_pe() == 0) {
      const ps_t t0 = ctx.clock().now();
      ctx.put(dst, src, bytes, 1);
      ctx.charge_int_ops(int_ops);
      ctx.quiet();
      cell.blocking_ps = ctx.clock().now() - t0;
    }

    // Non-blocking: the DMA engine carries the transfer under the compute.
    ctx.harness_sync_reset();
    if (ctx.my_pe() == 0) {
      const ps_t t0 = ctx.clock().now();
      ctx.put_nbi(dst, src, bytes, 1);
      ctx.charge_int_ops(int_ops);
      ctx.quiet();
      cell.nbi_ps = ctx.clock().now() - t0;
    }

    ctx.harness_sync_reset();
    ctx.shfree(src);
    ctx.shfree(dst);
  });
  return cell;
}

}  // namespace

static int run_main(int argc, char** argv) {
  const tshmem_util::Cli cli(argc, argv, {"csv"});
  const auto max_bytes =
      static_cast<std::size_t>(cli.get_int("max-bytes", 4 << 20));
  bench::Telemetry telemetry(cli);
  const auto devices = bench::devices_from_cli(cli);
  cli.reject_unknown();
  tshmem_util::print_banner(
      std::cout, "Extension — overlap",
      "comm/compute overlap: blocking put vs shmem_putmem_nbi + quiet");

  tshmem_util::Table table({"size", "device", "grain", "blocking (us)",
                            "nbi (us)", "speedup"});
  std::vector<bench::PaperCheck> checks;

  // Compute grain as a fraction of the modeled transfer cost.
  const double grains[] = {0.25, 0.5, 1.0, 2.0};

  for (const auto* cfg : devices) {
    tshmem::RuntimeOptions opts;
    opts.heap_per_pe = 2 * max_bytes + (1 << 20);
    telemetry.configure(opts);
    tshmem::Runtime rt(*cfg, opts);
    telemetry.attach(rt);
    const tilesim::MemModel& mm = rt.device().mem_model();

    for (const std::size_t size : bench::pow2_sizes(4096, max_bytes)) {
      tilesim::CopyRequest req;
      req.bytes = size;
      req.src = tilesim::MemSpace::kShared;
      req.dst = tilesim::MemSpace::kShared;
      req.homing = tilesim::Homing::kHashForHome;
      const ps_t xfer_ps = mm.copy_cost_ps(req);

      for (const double grain : grains) {
        const auto int_ops = static_cast<std::uint64_t>(
            grain * static_cast<double>(xfer_ps) /
            static_cast<double>(cfg->compute.int_op_ps));
        const Cell cell = measure(rt, size, int_ops);
        const double speedup = static_cast<double>(cell.blocking_ps) /
                               static_cast<double>(std::max<ps_t>(cell.nbi_ps, 1));
        table.add_row({tshmem_util::Table::bytes(size), cfg->short_name,
                       tshmem_util::Table::num(grain, 2),
                       tshmem_util::Table::num(cell.blocking_ps / 1e6, 2),
                       tshmem_util::Table::num(cell.nbi_ps / 1e6, 2),
                       tshmem_util::Table::num(speedup, 2)});
        if (size == max_bytes && grain == 1.0) {
          // Ideal overlap at grain 1.0 halves the total once the descriptor
          // post + engine arm costs amortize; the acceptance floor is 1.3x.
          checks.push_back({std::string(cfg->short_name) +
                                " overlap speedup @" +
                                tshmem_util::Table::bytes(size) + " grain 1.0",
                            speedup, 2.0, "x"});
        }
      }
    }
    telemetry.collect(rt);
  }

  bench::emit(cli, table);
  bench::print_checks("Extension overlap", checks);
  telemetry.write();
  return 0;
}

int main(int argc, char** argv) {
  return tshmem_util::cli_main(argc, argv, run_main);
}
