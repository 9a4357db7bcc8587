// Ablation A — barrier release strategies (paper §IV-C1).
//
// The paper chose the linear-token release after measuring a
// broadcast-release variant at twice the latency. This ablation sweeps both
// designs (plus the TMC-spin-backed §IV-E variant) over tile counts on both
// devices.
#include <iostream>
#include <mutex>
#include <vector>

#include "bench_common.hpp"
#include "tshmem/context.hpp"
#include "tshmem/runtime.hpp"

namespace {

tilesim::ps_t worst_latency(tshmem::Runtime& rt, int tiles,
                            tshmem::BarrierAlgo algo) {
  std::mutex mu;
  tilesim::ps_t worst = 0;
  rt.run(tiles, [&](tshmem::Context& ctx) {
    ctx.set_barrier_algo(algo);
    ctx.barrier_all();
    ctx.harness_sync_reset();
    const auto t0 = ctx.clock().now();
    ctx.barrier_all();
    const auto dt = ctx.clock().now() - t0;
    {
      std::scoped_lock lk(mu);
      worst = std::max(worst, dt);
    }
    ctx.harness_sync();
  });
  return worst;
}

}  // namespace

static int run_main(int argc, char** argv) {
  const tshmem_util::Cli cli(argc, argv, {"csv"});
  const auto devices = bench::devices_from_cli(cli);
  cli.reject_unknown();
  tshmem_util::print_banner(
      std::cout, "Ablation A",
      "Barrier release strategy: linear token vs broadcast release vs TMC spin");

  tshmem_util::Table table({"tiles", "device", "linear (us)",
                            "broadcast-release (us)", "tmc-spin (us)",
                            "bcast/linear"});
  std::vector<bench::PaperCheck> checks;

  for (const auto* cfg : devices) {
    tshmem::Runtime rt(*cfg);
    double ratio36 = 0;
    for (int tiles = 4; tiles <= 36; tiles += 8) {
      const auto lin =
          worst_latency(rt, tiles, tshmem::BarrierAlgo::kLinearToken);
      const auto bc =
          worst_latency(rt, tiles, tshmem::BarrierAlgo::kBroadcastRelease);
      const auto spin = worst_latency(rt, tiles, tshmem::BarrierAlgo::kTmcSpin);
      const double ratio =
          static_cast<double>(bc) / static_cast<double>(lin);
      if (tiles == 36) ratio36 = ratio;
      table.add_row({tshmem_util::Table::integer(tiles), cfg->short_name,
                     tshmem_util::Table::num(tshmem_util::ps_to_us(lin), 2),
                     tshmem_util::Table::num(tshmem_util::ps_to_us(bc), 2),
                     tshmem_util::Table::num(tshmem_util::ps_to_us(spin), 2),
                     tshmem_util::Table::num(ratio, 2)});
    }
    checks.push_back({std::string(cfg->short_name) +
                          " broadcast/linear @36 (paper: ~2x)",
                      ratio36, 2.0, "x"});
  }

  bench::emit(cli, table);
  bench::print_checks("Ablation A (SIV-C1)", checks);
  return 0;
}

int main(int argc, char** argv) {
  return tshmem_util::cli_main(argc, argv, run_main);
}
