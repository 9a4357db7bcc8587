// Figure 10 — pull-based broadcast aggregate bandwidth versus transfer
// size and tile count, on both devices.
//
// Reproduces: aggregate bandwidth scales with tile count by distributing
// the work to all PEs; on the TILE-Gx36 it peaks at ~46 GB/s at 29 tiles
// and delivers ~37 GB/s at 36 tiles; on the TILEPro64 it peaks at
// ~5.1 GB/s at 36 tiles.
#include <algorithm>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "collective_bench.hpp"

static int run_main(int argc, char** argv) {
  const tshmem_util::Cli cli(argc, argv, {"csv"});
  const auto max_bytes =
      static_cast<std::size_t>(cli.get_int("max-bytes", 1 << 20));
  bench::Telemetry telemetry(cli);
  const auto devices = bench::devices_from_cli(cli);
  cli.reject_unknown();
  tshmem_util::print_banner(std::cout, "Figure 10",
                            "Pull-based broadcast aggregate bandwidth");

  tshmem_util::Table table({"size/tile", "tiles", "device", "agg MB/s"});
  std::vector<bench::PaperCheck> checks;

  // Includes 29 tiles: the Gx peak the paper calls out.
  std::vector<int> tile_counts = bench::collective_tile_counts();
  tile_counts.push_back(29);
  std::sort(tile_counts.begin(), tile_counts.end());

  for (const auto* cfg : devices) {
    tshmem::RuntimeOptions opts;
    opts.heap_per_pe = 4 * max_bytes + (1 << 20);
    telemetry.configure(opts);
    tshmem::Runtime rt(*cfg, opts);
    telemetry.attach(rt);
    double best_at29 = 0, best_at36 = 0;
    for (const int tiles : tile_counts) {
      for (const std::size_t size : bench::pow2_sizes(256, max_bytes)) {
        const double mbps = bench::aggregate_mbps(
            rt, bench::CollectiveOp::kBroadcastPull, tiles, size);
        table.add_row({tshmem_util::Table::bytes(size),
                       tshmem_util::Table::integer(tiles), cfg->short_name,
                       tshmem_util::Table::num(mbps, 1)});
        if (tiles == 29) best_at29 = std::max(best_at29, mbps);
        if (tiles == 36) best_at36 = std::max(best_at36, mbps);
      }
    }
    if (cfg->short_name == "gx36") {
      checks.push_back(
          {"gx36 peak aggregate @29 tiles", best_at29 / 1000.0, 46.0, "GB/s"});
      checks.push_back(
          {"gx36 peak aggregate @36 tiles", best_at36 / 1000.0, 37.0, "GB/s"});
    } else {
      checks.push_back(
          {"pro64 peak aggregate @36 tiles", best_at36 / 1000.0, 5.1, "GB/s"});
    }
    telemetry.collect(rt);
  }

  bench::emit(cli, table);
  bench::print_checks("Figure 10", checks);
  telemetry.write();
  return 0;
}

int main(int argc, char** argv) {
  return tshmem_util::cli_main(argc, argv, run_main);
}
