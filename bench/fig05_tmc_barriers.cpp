// Figure 5 — latencies of TMC spin and sync barriers versus the number of
// participating tiles, on both devices.
//
// Reproduces: spin << sync everywhere; Gx spin (1.5 us @ 36) far below Pro
// spin (47.2 us @ 36); sync barriers at 321 us (Gx) / 786 us (Pro) @ 36.
#include <iostream>
#include <mutex>
#include <vector>

#include "bench_common.hpp"
#include "sim/device.hpp"
#include "tmc/barrier.hpp"

namespace {

template <typename Barrier>
tilesim::ps_t measured_latency(tilesim::Device& device, int tiles) {
  Barrier barrier(device, tiles);
  tilesim::ps_t latency = 0;
  device.run(tiles, [&](tilesim::Tile& tile) {
    barrier.wait(tile);  // warm-up round
    device.sync_and_reset_clocks();
    const auto t0 = tile.clock().now();
    barrier.wait(tile);
    if (tile.id() == 0) latency = tile.clock().now() - t0;
    device.host_sync();
  });
  return latency;
}

}  // namespace

static int run_main(int argc, char** argv) {
  const tshmem_util::Cli cli(argc, argv, {"csv"});
  bench::Telemetry telemetry(cli);
  const auto devices = bench::devices_from_cli(cli);
  cli.reject_unknown();
  tshmem_util::print_banner(std::cout, "Figure 5",
                            "Latencies of TMC spin and sync barriers");

  tshmem_util::Table table(
      {"tiles", "device", "spin (us)", "sync (us)"});
  std::vector<bench::PaperCheck> checks;

  for (const auto* cfg : devices) {
    tilesim::Device device(*cfg);
    telemetry.attach(device);
    for (int tiles = 2; tiles <= 36; tiles += 2) {
      const auto spin = measured_latency<tmc::SpinBarrier>(device, tiles);
      const auto sync = measured_latency<tmc::SyncBarrier>(device, tiles);
      table.add_row({tshmem_util::Table::integer(tiles), cfg->short_name,
                     tshmem_util::Table::num(tshmem_util::ps_to_us(spin), 2),
                     tshmem_util::Table::num(tshmem_util::ps_to_us(sync), 1)});
      if (tiles == 36) {
        const bool gx = cfg->short_name == "gx36";
        checks.push_back({std::string(cfg->short_name) + " spin @36",
                          tshmem_util::ps_to_us(spin), gx ? 1.5 : 47.2, "us"});
        checks.push_back({std::string(cfg->short_name) + " sync @36",
                          tshmem_util::ps_to_us(sync), gx ? 321.0 : 786.0,
                          "us"});
      }
    }
    telemetry.collect(device, std::string(cfg->short_name));
  }

  bench::emit(cli, table);
  bench::print_checks("Figure 5", checks);
  telemetry.write();
  return 0;
}

int main(int argc, char** argv) {
  return tshmem_util::cli_main(argc, argv, run_main);
}
