// Extension bench — on-chip accelerator and static-network models:
//   (a) MiCA offload vs software (CRC32 / cipher / RLE throughput on the
//       TILE-Gx, Table II's "MiCA for crypto and compression");
//   (b) the TILEPro static network vs UDN message latency (the §II-C
//       "developer-defined statically routed network").
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "sim/device.hpp"
#include "tmc/mica.hpp"
#include "tmc/stn.hpp"
#include "tmc/udn.hpp"
#include "util/rng.hpp"

static int run_main(int argc, char** argv) {
  const tshmem_util::Cli cli(argc, argv, {"csv"});
  cli.reject_unknown();
  tshmem_util::print_banner(
      std::cout, "Extension (Table II / SII-C)",
      "MiCA offload vs software; STN vs UDN latency");

  std::vector<bench::PaperCheck> checks;

  // --- MiCA (TILE-Gx only) --------------------------------------------------
  {
    tilesim::Device gx(tilesim::tile_gx36());
    tmc::MicaEngine mica(gx);
    tshmem_util::Table table({"operation", "size", "offload (MB/s)",
                              "software (MB/s)", "speedup"});
    double crc_speedup_1m = 0;
    for (const std::size_t size : bench::pow2_sizes(4096, 4 << 20)) {
      std::vector<std::byte> data(size);
      tshmem_util::Xoshiro256 rng(size);
      for (auto& b : data) b = static_cast<std::byte>(rng.below(256));
      mica.reset();  // clocks restart at zero on every run
      gx.run(1, [&](tilesim::Tile& tile) {
        auto timed = [&](auto&& fn) {
          const auto t0 = tile.clock().now();
          fn();
          return tshmem_util::bandwidth_mbps(size, tile.clock().now() - t0);
        };
        const double hw_crc = timed([&] { (void)mica.crc32(tile, data); });
        const double sw_crc =
            timed([&] { (void)mica.crc32_software(tile, data); });
        const double hw_cipher = timed([&] { mica.cipher(tile, data, 7); });
        const double sw_cipher =
            timed([&] { mica.cipher_software(tile, data, 7); });
        table.add_row({"crc32", tshmem_util::Table::bytes(size),
                       tshmem_util::Table::num(hw_crc, 0),
                       tshmem_util::Table::num(sw_crc, 0),
                       tshmem_util::Table::num(hw_crc / sw_crc, 1)});
        table.add_row({"cipher", tshmem_util::Table::bytes(size),
                       tshmem_util::Table::num(hw_cipher, 0),
                       tshmem_util::Table::num(sw_cipher, 0),
                       tshmem_util::Table::num(hw_cipher / sw_cipher, 1)});
        if (size == (1 << 20)) crc_speedup_1m = hw_crc / sw_crc;
      });
    }
    bench::emit(cli, table);
    checks.push_back({"MiCA crc32 offload speedup @1MB (60 Gbps vs 6 ops/B)",
                      crc_speedup_1m, 42.0, "x"});
  }

  // --- STN vs UDN (TILEPro only) ---------------------------------------------
  {
    tilesim::Device pro(tilesim::tile_pro64());
    tmc::StaticNetwork stn(pro);
    tmc::UdnFabric udn(pro);
    tshmem_util::Table table({"hops", "stn (ns)", "udn (ns)", "udn/stn"});
    double ratio_1hop = 0;
    // One route per mesh row: switch ports are exclusive, so routes of
    // different lengths cannot share a row's links.
    for (int hops = 1; hops <= 7; ++hops) {
      const int start = 8 * (hops - 1);
      std::vector<int> path;
      for (int i = 0; i <= hops; ++i) path.push_back(start + i);
      const int route = stn.configure_route(path);
      const double stn_ns =
          tshmem_util::ps_to_ns(stn.route_latency_ps(route, 1));
      const double udn_ns =
          tshmem_util::ps_to_ns(udn.wire_latency_ps(start, start + hops, 1));
      table.add_row({tshmem_util::Table::integer(hops),
                     tshmem_util::Table::num(stn_ns, 1),
                     tshmem_util::Table::num(udn_ns, 1),
                     tshmem_util::Table::num(udn_ns / stn_ns, 1)});
      if (hops == 1) ratio_1hop = udn_ns / stn_ns;
    }
    bench::emit(cli, table);
    checks.push_back(
        {"STN advantage over UDN at 1 hop (no route computation)",
         ratio_1hop, 3.4, "x"});
  }

  bench::print_checks("Extension: accelerators & STN", checks);
  return 0;
}

int main(int argc, char** argv) {
  return tshmem_util::cli_main(argc, argv, run_main);
}
