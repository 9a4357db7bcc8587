// Ablation C — memory-homing strategies (paper §III-A and the §VI future
// work on homing): local vs remote vs hash-for-home bandwidth across
// transfer sizes, on both devices.
//
// Shows the paper's qualitative claims: local homing wins while the working
// set fits the local L2 (faster hit latency) and collapses beyond it (no
// DDC); hash-for-home is the right default for shared data.
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "sim/mem_model.hpp"

static int run_main(int argc, char** argv) {
  const tshmem_util::Cli cli(argc, argv, {"csv"});
  const auto devices = bench::devices_from_cli(cli);
  cli.reject_unknown();
  tshmem_util::print_banner(std::cout, "Ablation C",
                            "Memory-homing strategies (SIII-A)");

  tshmem_util::Table table({"size", "device", "hash-for-home (MB/s)",
                            "local (MB/s)", "remote (MB/s)"});
  std::vector<bench::PaperCheck> checks;

  for (const auto* cfg : devices) {
    const tilesim::MemModel model(*cfg);
    double local_small = 0, hash_small = 0, local_big = 0, hash_big = 0;
    for (const std::size_t size : bench::pow2_sizes(1024, 16 << 20)) {
      auto mbps = [&](tilesim::Homing h) {
        tilesim::CopyRequest req;
        req.bytes = size;
        req.src = tilesim::MemSpace::kShared;
        req.dst = tilesim::MemSpace::kShared;
        req.homing = h;
        return model.effective_mbps(req);
      };
      const double hash = mbps(tilesim::Homing::kHashForHome);
      const double local = mbps(tilesim::Homing::kLocal);
      const double remote = mbps(tilesim::Homing::kRemote);
      table.add_row({tshmem_util::Table::bytes(size), cfg->short_name,
                     tshmem_util::Table::num(hash, 1),
                     tshmem_util::Table::num(local, 1),
                     tshmem_util::Table::num(remote, 1)});
      if (size == 32 * 1024) {
        local_small = local;
        hash_small = hash;
      }
      if (size == (4 << 20)) {
        local_big = local;
        hash_big = hash;
      }
    }
    checks.push_back({std::string(cfg->short_name) +
                          " local/hash at 32 kB (local wins)",
                      local_small / hash_small, cfg->local_homing_small_boost,
                      "x"});
    checks.push_back({std::string(cfg->short_name) +
                          " local/hash at 4 MB (local loses DDC)",
                      local_big / hash_big, cfg->local_homing_large_penalty,
                      "x"});
  }

  bench::emit(cli, table);
  bench::print_checks("Ablation C (homing)", checks);
  return 0;
}

int main(int argc, char** argv) {
  return tshmem_util::cli_main(argc, argv, run_main);
}
