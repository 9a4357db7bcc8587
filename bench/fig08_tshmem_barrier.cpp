// Figure 8 — latencies of the TSHMEM barrier (linear UDN token design)
// versus tile count: best-case and worst-case exit latency per barrier,
// on both devices, with the TMC spin barrier curve for reference.
//
// Reproduces: TSHMEM barrier ~3 us @ 36 tiles on the TILEPro64, crushing
// its 47.2-us TMC spin barrier; on the TILE-Gx36 the TMC spin barrier
// (1.5 us) stays *below* the TSHMEM barrier — the §IV-E observation that
// motivates adopting TMC spin for the Gx.
#include <algorithm>
#include <iostream>
#include <mutex>
#include <vector>

#include "bench_common.hpp"
#include "tmc/barrier.hpp"
#include "tshmem/context.hpp"
#include "tshmem/runtime.hpp"

namespace {

using tshmem::Context;

struct BarrierSample {
  tilesim::ps_t best;
  tilesim::ps_t worst;
};

BarrierSample measure(tshmem::Runtime& rt, int tiles) {
  std::mutex mu;
  tilesim::ps_t best = ~tilesim::ps_t{0};
  tilesim::ps_t worst = 0;
  rt.run(tiles, [&](Context& ctx) {
    ctx.barrier_all();  // warm: allocates per-set state
    ctx.harness_sync_reset();
    const auto t0 = ctx.clock().now();
    ctx.barrier_all();
    const auto dt = ctx.clock().now() - t0;
    {
      std::scoped_lock lk(mu);
      best = std::min(best, dt);
      worst = std::max(worst, dt);
    }
    ctx.harness_sync();
  });
  return {best, worst};
}

}  // namespace

static int run_main(int argc, char** argv) {
  const tshmem_util::Cli cli(argc, argv, {"csv"});
  bench::Telemetry telemetry(cli);
  const auto devices = bench::devices_from_cli(cli);
  cli.reject_unknown();
  tshmem_util::print_banner(
      std::cout, "Figure 8",
      "Latencies of the TSHMEM barrier (best/worst case) vs TMC spin");

  tshmem_util::Table table({"tiles", "device", "tshmem best (us)",
                            "tshmem worst (us)", "tmc spin (us)"});
  std::vector<bench::PaperCheck> checks;

  for (const auto* cfg : devices) {
    tshmem::RuntimeOptions opts;
    telemetry.configure(opts);
    tshmem::Runtime rt(*cfg, opts);
    telemetry.attach(rt);
    for (int tiles = 2; tiles <= 36; tiles += 2) {
      const auto s = measure(rt, tiles);
      const auto spin = tmc::SpinBarrier::model_latency_ps(*cfg, tiles);
      table.add_row(
          {tshmem_util::Table::integer(tiles), cfg->short_name,
           tshmem_util::Table::num(tshmem_util::ps_to_us(s.best), 2),
           tshmem_util::Table::num(tshmem_util::ps_to_us(s.worst), 2),
           tshmem_util::Table::num(tshmem_util::ps_to_us(spin), 2)});
      if (tiles == 36) {
        if (cfg->short_name == "pro64") {
          checks.push_back({"pro64 tshmem barrier @36 (worst)",
                            tshmem_util::ps_to_us(s.worst), 3.0, "us"});
          checks.push_back({"pro64 tshmem vs tmc spin @36 (<<1)",
                            static_cast<double>(s.worst) /
                                static_cast<double>(spin),
                            3.0 / 47.2, "x"});
        } else {
          checks.push_back({"gx36 tmc spin stays faster (spin/tshmem < 1)",
                            static_cast<double>(spin) /
                                static_cast<double>(s.worst),
                            0.4, "x"});
        }
      }
    }
    telemetry.collect(rt);
  }

  bench::emit(cli, table);
  bench::print_checks("Figure 8", checks);
  telemetry.write();
  return 0;
}

int main(int argc, char** argv) {
  return tshmem_util::cli_main(argc, argv, run_main);
}
