// Figure 11 — fast collection (fcollect) aggregate bandwidth versus
// per-tile block size and tile count, on both devices.
//
// Reproduces: the quadratic stage-2 scaling — because every PE receives the
// whole n*M concatenation, performance peaks shift toward *smaller* block
// sizes as the tile count grows (contrast with Fig 9, whose peaks stay put).
#include <algorithm>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "collective_bench.hpp"

static int run_main(int argc, char** argv) {
  const tshmem_util::Cli cli(argc, argv, {"csv"});
  const auto max_bytes =
      static_cast<std::size_t>(cli.get_int("max-bytes", 256 << 10));
  bench::Telemetry telemetry(cli);
  const auto devices = bench::devices_from_cli(cli);
  cli.reject_unknown();
  tshmem_util::print_banner(std::cout, "Figure 11",
                            "Fast collection aggregate bandwidth");

  tshmem_util::Table table({"size/tile", "tiles", "device", "agg MB/s"});
  std::vector<bench::PaperCheck> checks;

  for (const auto* cfg : devices) {
    tshmem::RuntimeOptions opts;
    // fcollect target holds n * M on every PE.
    opts.heap_per_pe = 40 * max_bytes + (1 << 20);
    telemetry.configure(opts);
    tshmem::Runtime rt(*cfg, opts);
    telemetry.attach(rt);
    std::size_t peak_size_small_n = 0, peak_size_large_n = 0;
    double peak_small_n = 0, peak_large_n = 0;
    for (const int tiles : bench::collective_tile_counts()) {
      for (const std::size_t size : bench::pow2_sizes(256, max_bytes)) {
        const double mbps = bench::aggregate_mbps(
            rt, bench::CollectiveOp::kFcollect, tiles, size);
        table.add_row({tshmem_util::Table::bytes(size),
                       tshmem_util::Table::integer(tiles), cfg->short_name,
                       tshmem_util::Table::num(mbps, 1)});
        if (tiles == 4 && mbps > peak_small_n) {
          peak_small_n = mbps;
          peak_size_small_n = size;
        }
        if (tiles == 36 && mbps > peak_large_n) {
          peak_large_n = mbps;
          peak_size_large_n = size;
        }
      }
    }
    // "Performance peaks are shifting toward smaller data sizes as the
    // number of tiles increases."
    checks.push_back({std::string(cfg->short_name) + " peak shifts smaller (" +
                          tshmem_util::Table::bytes(peak_size_large_n) +
                          " @36 vs " +
                          tshmem_util::Table::bytes(peak_size_small_n) +
                          " @4 tiles)",
                      peak_size_large_n < peak_size_small_n ? 1.0 : 0.0, 1.0,
                      "bool"});
    telemetry.collect(rt);
  }

  bench::emit(cli, table);
  bench::print_checks("Figure 11", checks);
  telemetry.write();
  return 0;
}

int main(int argc, char** argv) {
  return tshmem_util::cli_main(argc, argv, run_main);
}
