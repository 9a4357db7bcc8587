// Figure 3 — effective bandwidth of memcpy() between statically allocated
// private heap memory and TMC common-memory segments, on the TILE-Gx36 and
// TILEPro64, for transfer sizes 8 B .. 64 MB.
//
// Reproduces: the three Gx36 performance transitions (L1d at 32 kB, L2 at
// 256 kB, DDC past 1 MB -> 320 MB/s memory-to-memory) and the flatter
// TILEPro64 profile (~500 MB/s through the caches, 370 MB/s at memory) —
// including the one crossover where the Pro wins (memory-to-memory).
#include <cstring>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "sim/device.hpp"
#include "tmc/common_memory.hpp"

namespace {

using tilesim::CopyRequest;
using tilesim::MemSpace;

struct Pairing {
  const char* name;
  MemSpace src;
  MemSpace dst;
};

constexpr Pairing kPairings[] = {
    {"private->shared", MemSpace::kPrivate, MemSpace::kShared},
    {"shared->private", MemSpace::kShared, MemSpace::kPrivate},
    {"shared->shared", MemSpace::kShared, MemSpace::kShared},
};

}  // namespace

static int run_main(int argc, char** argv) {
  const tshmem_util::Cli cli(argc, argv, {"csv"});
  const auto max_bytes =
      static_cast<std::size_t>(cli.get_int("max-bytes", 64 << 20));
  bench::Telemetry telemetry(cli);
  const auto devices = bench::devices_from_cli(cli);
  cli.reject_unknown();
  tshmem_util::print_banner(
      std::cout, "Figure 3",
      "Effective bandwidth for shared-memory copy operations");

  tshmem_util::Table table({"size", "device", "pairing", "MB/s"});
  std::vector<bench::PaperCheck> checks;

  for (const auto* cfg : devices) {
    tilesim::Device device(*cfg);
    telemetry.attach(device);
    tmc::CommonMemory cmem(2 * max_bytes + (1 << 20));
    auto* shared_src = static_cast<std::byte*>(
        cmem.map("src", max_bytes, tilesim::Homing::kHashForHome, 0));
    auto* shared_dst = static_cast<std::byte*>(
        cmem.map("dst", max_bytes, tilesim::Homing::kHashForHome, 0));
    std::vector<std::byte> private_buf(max_bytes);

    device.run(1, [&](tilesim::Tile& tile) {
      for (const std::size_t size : bench::pow2_sizes(8, max_bytes)) {
        for (const Pairing& p : kPairings) {
          std::byte* dst = p.dst == MemSpace::kShared ? shared_dst
                                                      : private_buf.data();
          const std::byte* src =
              p.src == MemSpace::kShared ? shared_src : private_buf.data();
          if (p.src == MemSpace::kShared && p.dst == MemSpace::kShared) {
            src = shared_src;
            dst = shared_dst;
          }
          CopyRequest req;
          req.bytes = size;
          req.src = p.src;
          req.dst = p.dst;
          const auto t0 = tile.clock().now();
          tile.charge_copy(req);
          std::memcpy(dst, src, size);  // the copy actually happens
          const auto elapsed = tile.clock().now() - t0;
          const double mbps = tshmem_util::bandwidth_mbps(size, elapsed);
          table.add_row({tshmem_util::Table::bytes(size), cfg->short_name,
                         p.name, tshmem_util::Table::num(mbps, 1)});
          if (p.src == MemSpace::kShared && p.dst == MemSpace::kShared) {
            if (cfg->short_name == "gx36") {
              if (size == 32 * 1024) {
                checks.push_back({"gx36 L1d plateau", mbps, 3100, "MB/s"});
              } else if (size == 256 * 1024) {
                checks.push_back({"gx36 at L2 capacity", mbps, 1900, "MB/s"});
              } else if (size == (1 << 20)) {
                checks.push_back({"gx36 at 1 MB (DDC)", mbps, 1000, "MB/s"});
              } else if (size == max_bytes) {
                checks.push_back({"gx36 memory-to-memory", mbps, 320, "MB/s"});
              }
            } else if (cfg->short_name == "pro64") {
              if (size == 8 * 1024) {
                checks.push_back({"pro64 cache plateau", mbps, 500, "MB/s"});
              } else if (size == max_bytes) {
                checks.push_back({"pro64 memory-to-memory", mbps, 370, "MB/s"});
              }
            }
          }
        }
      }
    });
    telemetry.collect(device, std::string(cfg->short_name));
  }

  bench::emit(cli, table);
  bench::print_checks("Figure 3", checks);
  telemetry.write();
  return 0;
}

int main(int argc, char** argv) {
  return tshmem_util::cli_main(argc, argv, run_main);
}
