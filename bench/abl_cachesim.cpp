// Ablation D — the mechanistic cache simulator versus the analytic memory
// model: verifies that both substrates break at the same working-set sizes
// (the L1d / L2 / DDC capacities Fig 3's transitions sit on).
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "sim/cache_sim.hpp"
#include "sim/mem_model.hpp"

static int run_main(int argc, char** argv) {
  const tshmem_util::Cli cli(argc, argv, {"csv"});
  const auto devices = bench::devices_from_cli(cli);
  cli.reject_unknown();
  tshmem_util::print_banner(
      std::cout, "Ablation D",
      "Mechanistic cache simulator vs analytic bandwidth model");

  tshmem_util::Table table({"working set", "device", "analytic (MB/s)",
                            "cache-sim (MB/s)", "l1%", "l2%", "ddc%",
                            "dram%"});
  std::vector<bench::PaperCheck> checks;

  for (const auto* cfg : devices) {
    const tilesim::MemModel model(*cfg);
    for (const std::size_t size : bench::pow2_sizes(4096, 32 << 20)) {
      tilesim::CacheSim sim(*cfg);
      // Warm pass then steady-state pass, mirroring a repeated memcpy of
      // one buffer (what Fig 3's microbenchmark loop does).
      (void)sim.stream_copy_mbps(0, 1ull << 40, size,
                                 tilesim::Homing::kHashForHome);
      sim.reset_stats();
      const double sim_mbps = sim.stream_copy_mbps(
          0, 1ull << 40, size, tilesim::Homing::kHashForHome);
      const auto counts = sim.counts();
      const double total = static_cast<double>(counts.total());
      tilesim::CopyRequest req;
      req.bytes = size;
      req.src = tilesim::MemSpace::kShared;
      req.dst = tilesim::MemSpace::kShared;
      const double analytic = model.effective_mbps(req);
      auto pct = [&](std::uint64_t v) {
        return tshmem_util::Table::num(100.0 * static_cast<double>(v) / total,
                                       0);
      };
      table.add_row({tshmem_util::Table::bytes(size), cfg->short_name,
                     tshmem_util::Table::num(analytic, 1),
                     tshmem_util::Table::num(sim_mbps, 1), pct(counts.l1),
                     pct(counts.l2), pct(counts.ddc), pct(counts.dram)});
    }
    // Transition agreement: both substrates must show a bandwidth *drop*
    // across each capacity boundary. Absolute magnitudes differ by design
    // (the analytic curve folds in the copy-loop core limit; the cache sim
    // isolates hierarchy latency), so the check is on the drop's existence
    // and location, not its size.
    tilesim::CacheSim sim(*cfg);
    auto steady = [&](std::size_t size) {
      sim.reset();
      (void)sim.stream_copy_mbps(0, 1ull << 40, size,
                                 tilesim::Homing::kHashForHome);
      return sim.stream_copy_mbps(0, 1ull << 40, size,
                                  tilesim::Homing::kHashForHome);
    };
    auto analytic = [&](std::size_t size) {
      tilesim::CopyRequest req;
      req.bytes = size;
      req.src = tilesim::MemSpace::kShared;
      req.dst = tilesim::MemSpace::kShared;
      return model.effective_mbps(req);
    };
    const std::size_t ddc_cap =
        cfg->l2_bytes * static_cast<std::size_t>(cfg->tile_count() - 1);
    const struct {
      const char* name;
      std::size_t below;
      std::size_t above;
    } boundaries[] = {
        {"L1d", cfg->l1d_bytes / 2, cfg->l2_bytes / 2},
        {"L2", cfg->l2_bytes / 2, 4 * cfg->l2_bytes},
        {"DDC", ddc_cap / 2, 8 * ddc_cap},
    };
    // Soundness condition: every transition the measured (analytic) curve
    // shows must be explained by a capacity transition in the mechanistic
    // hierarchy. The converse need not hold — the TILEPro64's measured
    // memcpy curve is flat through its cache sizes (paper Fig 3) because
    // the copy loop, not the hierarchy, limits it there.
    for (const auto& b : boundaries) {
      const double sim_drop = steady(b.below) / steady(b.above);
      const double ana_drop = analytic(b.below) / analytic(b.above);
      const bool explained = ana_drop <= 1.02 || sim_drop > 1.02;
      checks.push_back({std::string(cfg->short_name) + " " + b.name +
                            " transition explained (sim drop " +
                            tshmem_util::Table::num(sim_drop, 1) +
                            "x, measured " +
                            tshmem_util::Table::num(ana_drop, 1) + "x)",
                        explained ? 1.0 : 0.0, 1.0, "bool"});
    }
  }

  bench::emit(cli, table);
  bench::print_checks("Ablation D (cache sim)", checks);
  return 0;
}

int main(int argc, char** argv) {
  return tshmem_util::cli_main(argc, argv, run_main);
}
