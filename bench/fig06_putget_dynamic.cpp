// Figure 6 — effective bandwidth of TSHMEM put/get transfers for
// dynamic-dynamic symmetric objects on both devices, plus the static-static
// curve on the TILE-Gx36 (which the paper overlays for comparison against
// TILEPro64 performance).
//
// Reproduces: put tracks get on both devices; dynamic-dynamic transfers
// closely match Fig 3's shared-to-shared memcpy bandwidth (the "low
// overhead" claim); the static-static Gx36 curve sits far below.
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "tshmem/context.hpp"
#include "tshmem/runtime.hpp"

namespace {

using tshmem::Context;

double putget_mbps(tshmem::Runtime& rt, std::size_t bytes, bool is_put,
                   bool use_static, std::size_t static_capacity) {
  double mbps = 0.0;
  rt.run(2, [&](Context& ctx) {
    std::byte* sym;
    if (use_static) {
      // Static objects have one link-time size; register the full capacity
      // once and reuse it across the sweep.
      sym = ctx.static_sym<std::byte>("fig06_static", static_capacity);
    } else {
      sym = static_cast<std::byte*>(ctx.shmalloc(bytes));
    }
    ctx.barrier_all();
    if (ctx.my_pe() == 0) {
      // Warm, then one measured transfer (virtual time is deterministic).
      if (is_put) {
        ctx.put(sym, sym, bytes, 1);
      } else {
        ctx.get(sym, sym, bytes, 1);
      }
      const auto t0 = ctx.clock().now();
      if (is_put) {
        ctx.put(sym, sym, bytes, 1);
      } else {
        ctx.get(sym, sym, bytes, 1);
      }
      mbps = tshmem_util::bandwidth_mbps(bytes, ctx.clock().now() - t0);
    }
    ctx.barrier_all();
    if (!use_static) ctx.shfree(sym);
  });
  return mbps;
}

}  // namespace

static int run_main(int argc, char** argv) {
  const tshmem_util::Cli cli(argc, argv, {"csv"});
  const auto max_bytes =
      static_cast<std::size_t>(cli.get_int("max-bytes", 8 << 20));
  bench::Telemetry telemetry(cli);
  const auto devices = bench::devices_from_cli(cli);
  cli.reject_unknown();
  tshmem_util::print_banner(
      std::cout, "Figure 6",
      "TSHMEM put/get bandwidth, dynamic-dynamic (+ static-static on Gx36)");

  tshmem_util::Table table(
      {"size", "device", "put dd (MB/s)", "get dd (MB/s)", "put ss (MB/s)"});
  std::vector<bench::PaperCheck> checks;

  for (const auto* cfg : devices) {
    tshmem::RuntimeOptions opts;
    opts.heap_per_pe = 2 * max_bytes + (1 << 20);
    opts.private_per_pe = max_bytes + (1 << 20);
    telemetry.configure(opts);
    tshmem::Runtime rt(*cfg, opts);
    telemetry.attach(rt);
    const bool gx = cfg->supports_udn_interrupts;
    for (const std::size_t size : bench::pow2_sizes(8, max_bytes)) {
      const double put_dd = putget_mbps(rt, size, true, false, max_bytes);
      const double get_dd = putget_mbps(rt, size, false, false, max_bytes);
      const double put_ss =
          gx ? putget_mbps(rt, size, true, true, max_bytes) : 0.0;
      table.add_row({tshmem_util::Table::bytes(size), cfg->short_name,
                     tshmem_util::Table::num(put_dd, 1),
                     tshmem_util::Table::num(get_dd, 1),
                     gx ? tshmem_util::Table::num(put_ss, 1) : "n/a"});
      if (size == 32 * 1024) {
        // "Realizable performance ... closely matches the shared-to-shared
        // performance from the common memory microbenchmark in Figure 3."
        const double fig3 = cfg->bw_shared_to_shared.mbps(size);
        checks.push_back({std::string(cfg->short_name) + " put dd vs Fig3 @32kB",
                          put_dd, fig3, "MB/s"});
        checks.push_back({std::string(cfg->short_name) + " put~get ratio @32kB",
                          put_dd / get_dd, 1.0, "x"});
      }
    }
    telemetry.collect(rt);
  }

  bench::emit(cli, table);
  bench::print_checks("Figure 6", checks);
  telemetry.write();
  return 0;
}

int main(int argc, char** argv) {
  return tshmem_util::cli_main(argc, argv, run_main);
}
