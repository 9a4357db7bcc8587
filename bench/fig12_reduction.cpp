// Figure 12 — integer summation reduction aggregate bandwidth versus
// per-tile array size and tile count, on both devices.
//
// Reproduces: serialization of data retrieval and reduction processing on
// the root tile keeps aggregate bandwidth flat in the tile count, peaking
// around 150 MB/s at 36 tiles on the TILE-Gx36.
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
  tshmem_util::print_banner(std::cout, "Figure 12",
                            "Integer summation reduction aggregate bandwidth");

  tshmem_util::Table table({"size/tile", "tiles", "device", "agg MB/s"});
  std::vector<bench::PaperCheck> checks;

  for (const auto* cfg : devices) {
    tshmem::RuntimeOptions opts;
    opts.heap_per_pe = 4 * max_bytes + (1 << 20);
    telemetry.configure(opts);
    tshmem::Runtime rt(*cfg, opts);
    telemetry.attach(rt);
    double peak36 = 0, at8 = 0, at36 = 0;
    for (const int tiles : bench::collective_tile_counts()) {
      for (const std::size_t size : bench::pow2_sizes(256, max_bytes)) {
        const double mbps = bench::aggregate_mbps(
            rt, bench::CollectiveOp::kReduce, tiles, size);
        table.add_row({tshmem_util::Table::bytes(size),
                       tshmem_util::Table::integer(tiles), cfg->short_name,
                       tshmem_util::Table::num(mbps, 1)});
        if (tiles == 36) peak36 = std::max(peak36, mbps);
        if (size == 64 * 1024 && tiles == 8) at8 = mbps;
        if (size == 64 * 1024 && tiles == 36) at36 = mbps;
      }
    }
    if (cfg->short_name == "gx36") {
      checks.push_back({"gx36 peak aggregate @36 tiles", peak36, 150, "MB/s"});
    }
    checks.push_back({std::string(cfg->short_name) +
                          " flat scaling (agg @36 / @8)",
                      at36 / at8, 1.0, "x"});
    telemetry.collect(rt);
  }

  bench::emit(cli, table);
  bench::print_checks("Figure 12", checks);
  telemetry.write();
  return 0;
}

int main(int argc, char** argv) {
  return tshmem_util::cli_main(argc, argv, run_main);
}
