// Extension bench — TSHMEM across two TILE-Gx devices over mPIPE (the
// §VI future-work direction: "expanding the shared-memory abstraction in
// TSHMEM across multiple many-core devices").
//
// Reports: cross-device put/get bandwidth vs size (converging on the
// 10GbE wire rate, ~1250 MB/s), the intra- vs inter-device crossover, the
// cluster-wide barrier cost, and cluster broadcast bandwidth.
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "tshmem/cluster.hpp"

namespace {

using tshmem::Cluster;
using tshmem::ClusterContext;

double put_mbps(Cluster& cluster, std::size_t bytes, bool cross_device) {
  double mbps = 0.0;
  cluster.run(2, [&](ClusterContext& ctx) {
    auto* buf = static_cast<std::byte*>(ctx.local().shmalloc(bytes));
    ctx.barrier_all();
    if (ctx.global_pe() == 0) {
      const int dest = cross_device ? 2 : 1;
      ctx.put(buf, buf, bytes, dest);  // warm
      const auto t0 = ctx.local().clock().now();
      ctx.put(buf, buf, bytes, dest);
      mbps = tshmem_util::bandwidth_mbps(bytes,
                                         ctx.local().clock().now() - t0);
    }
    ctx.barrier_all();
    ctx.local().shfree(buf);
  });
  return mbps;
}

}  // namespace

static int run_main(int argc, char** argv) {
  const tshmem_util::Cli cli(argc, argv, {"csv"});
  const auto max_bytes =
      static_cast<std::size_t>(cli.get_int("max-bytes", 8 << 20));
  cli.reject_unknown();
  tshmem_util::print_banner(
      std::cout, "Extension (SVI)",
      "Multi-device TSHMEM over mPIPE: 2x TILE-Gx8036, 10GbE link");

  tshmem::ClusterOptions opts;
  opts.runtime.heap_per_pe = 2 * max_bytes + (1 << 20);
  Cluster cluster(tilesim::tile_gx36(), opts);

  tshmem_util::Table table(
      {"size", "intra-device put (MB/s)", "inter-device put (MB/s)"});
  std::vector<bench::PaperCheck> checks;
  double inter_large = 0;
  std::size_t crossover = 0;
  for (const std::size_t size : bench::pow2_sizes(64, max_bytes)) {
    const double intra = put_mbps(cluster, size, false);
    const double inter = put_mbps(cluster, size, true);
    table.add_row({tshmem_util::Table::bytes(size),
                   tshmem_util::Table::num(intra, 1),
                   tshmem_util::Table::num(inter, 1)});
    if (size == max_bytes) inter_large = inter;
    if (crossover == 0 && inter > intra) crossover = size;
  }
  bench::emit(cli, table);

  checks.push_back({"inter-device put at 8 MB (wire-rate bound)",
                    inter_large, 1250.0 * 0.99, "MB/s"});
  checks.push_back({"intra/inter crossover size (link beats DDC copies)",
                    static_cast<double>(crossover), 1 << 20, "bytes"});

  // Cluster-wide barrier cost vs single-device barrier.
  tilesim::ps_t cluster_barrier = 0;
  cluster.run(36, [&](ClusterContext& ctx) {
    ctx.barrier_all();
    ctx.local().harness_sync_reset();
    const auto t0 = ctx.local().clock().now();
    ctx.barrier_all();
    if (ctx.global_pe() == 0) {
      cluster_barrier = ctx.local().clock().now() - t0;
    }
    ctx.local().harness_sync();
  });
  std::cout << "\ncluster barrier over 72 PEs (2 devices): "
            << tshmem_util::Table::num(tshmem_util::ps_to_us(cluster_barrier),
                                       2)
            << " us\n";
  checks.push_back({"cluster barrier (72 PEs, 2 devices)",
                    tshmem_util::ps_to_us(cluster_barrier), 10.0, "us"});

  // Cluster broadcast: 1 MB from global PE 0 to 71 other PEs.
  constexpr std::size_t kBcast = 1 << 20;
  tilesim::ps_t bcast_elapsed = 0;
  cluster.run(36, [&](ClusterContext& ctx) {
    auto* buf = static_cast<std::byte*>(ctx.local().shmalloc(kBcast));
    ctx.barrier_all();
    ctx.broadcast(buf, buf, kBcast, 0);  // warm
    ctx.local().harness_sync_reset();
    const auto t0 = ctx.local().clock().now();
    ctx.broadcast(buf, buf, kBcast, 0);
    ctx.barrier_all();
    if (ctx.global_pe() == 0) {
      bcast_elapsed = ctx.local().clock().now() - t0;
    }
    ctx.local().harness_sync();
    ctx.local().shfree(buf);
  });
  const double agg = tshmem_util::bandwidth_mbps(
      71ull * kBcast, bcast_elapsed) / 1000.0;
  std::cout << "cluster broadcast of 1 MB to 72 PEs: "
            << tshmem_util::Table::num(tshmem_util::ps_to_ms(bcast_elapsed), 2)
            << " ms (aggregate " << tshmem_util::Table::num(agg, 1)
            << " GB/s)\n";
  checks.push_back(
      {"cluster broadcast aggregate (hierarchical, 72 PEs)", agg, 15.0,
       "GB/s"});

  bench::print_checks("Extension: multi-device TSHMEM (SVI)", checks);
  return 0;
}

int main(int argc, char** argv) {
  return tshmem_util::cli_main(argc, argv, run_main);
}
