// Extension bench — TSHMEM vs message passing vs fork-join (the paper's
// §VI plan: "Benchmarking will be expanded to include TSHMEM comparisons
// with other libraries such as OpenMP and MPI").
//
// Three workloads, identical per model:
//   1. point-to-point: move M bytes PE0 -> PE1
//        TSHMEM one-sided put   vs  two-sided send/recv (staging + ack)
//   2. barrier latency over N tiles
//        TSHMEM UDN token       vs  dissemination (MPI)  vs  OpenMP join
//   3. allreduce of 16k longs over N tiles
//        TSHMEM reduce+bcast    vs  MPI tree reduce+bcast vs fork-join
#include <iostream>
#include <mutex>
#include <numeric>
#include <vector>

#include "bench_common.hpp"
#include "compare/fork_join.hpp"
#include "compare/msg_passing.hpp"
#include "tshmem/context.hpp"
#include "tshmem/runtime.hpp"

namespace {

using compare::ForkJoin;
using compare::MsgPassing;
using tilesim::Device;
using tilesim::Tile;
using tshmem::Context;

}  // namespace

static int run_main(int argc, char** argv) {
  const tshmem_util::Cli cli(argc, argv, {"csv"});
  const int tiles = static_cast<int>(cli.get_int("tiles", 32));
  constexpr std::size_t kP2pBytes = 256 * 1024;
  constexpr std::size_t kReduceElems = 16 * 1024;
  const auto devices = bench::devices_from_cli(cli);
  cli.reject_unknown();
  tshmem_util::print_banner(
      std::cout, "Extension (SVI)",
      "TSHMEM vs message passing vs fork-join, " + std::to_string(tiles) +
          " tiles");

  tshmem_util::Table table({"workload", "model", "device", "time (us)"});
  std::vector<bench::PaperCheck> checks;

  for (const auto* cfg : devices) {
    // --- 1. point-to-point --------------------------------------------------
    tilesim::ps_t shmem_p2p = 0, mpi_p2p = 0;
    {
      tshmem::Runtime rt(*cfg);
      rt.run(2, [&](Context& ctx) {
        auto* sym = static_cast<std::byte*>(ctx.shmalloc(kP2pBytes));
        std::vector<std::byte> local(kP2pBytes);
        ctx.barrier_all();
        ctx.harness_sync_reset();
        if (ctx.my_pe() == 0) {
          ctx.put(sym, local.data(), kP2pBytes, 1);
          shmem_p2p = ctx.clock().now();
        }
        ctx.harness_sync();
        ctx.shfree(sym);
      });
    }
    {
      Device device(*cfg);
      tmc::CommonMemory cmem(8 << 20);
      MsgPassing mp(device, cmem, 2, kP2pBytes);
      device.run(2, [&](Tile& tile) {
        std::vector<std::byte> buf(kP2pBytes);
        device.sync_and_reset_clocks();
        if (tile.id() == 0) {
          mp.send(tile, 1, 0, buf);
          mpi_p2p = tile.clock().now();
        } else {
          (void)mp.recv(tile, 0, 0, buf);
        }
        device.host_sync();
      });
    }
    table.add_row({"p2p 256 kB", "tshmem put", cfg->short_name,
                   tshmem_util::Table::num(tshmem_util::ps_to_us(shmem_p2p), 1)});
    table.add_row({"p2p 256 kB", "mpi send/recv", cfg->short_name,
                   tshmem_util::Table::num(tshmem_util::ps_to_us(mpi_p2p), 1)});

    // --- 2. barrier ----------------------------------------------------------
    tilesim::ps_t shmem_bar = 0, mpi_bar = 0, omp_bar = 0;
    {
      tshmem::Runtime rt(*cfg);
      std::mutex mu;
      rt.run(tiles, [&](Context& ctx) {
        ctx.barrier_all();
        ctx.harness_sync_reset();
        const auto t0 = ctx.clock().now();
        ctx.barrier_all();
        const auto dt = ctx.clock().now() - t0;
        std::scoped_lock lk(mu);
        shmem_bar = std::max(shmem_bar, dt);
      });
    }
    {
      Device device(*cfg);
      tmc::CommonMemory cmem(1 << 20);
      MsgPassing mp(device, cmem, tiles, 64);
      std::mutex mu;
      device.run(tiles, [&](Tile& tile) {
        mp.barrier(tile);
        device.sync_and_reset_clocks();
        const auto t0 = tile.clock().now();
        mp.barrier(tile);
        const auto dt = tile.clock().now() - t0;
        {
          std::scoped_lock lk(mu);
          mpi_bar = std::max(mpi_bar, dt);
        }
        device.host_sync();
      });
    }
    {
      Device device(*cfg);
      ForkJoin fj(device, tiles);
      std::mutex mu;
      device.run(tiles, [&](Tile& tile) {
        device.sync_and_reset_clocks();
        const auto t0 = tile.clock().now();
        fj.barrier(tile);
        const auto dt = tile.clock().now() - t0;
        {
          std::scoped_lock lk(mu);
          omp_bar = std::max(omp_bar, dt);
        }
        device.host_sync();
      });
    }
    table.add_row({"barrier", "tshmem (UDN token)", cfg->short_name,
                   tshmem_util::Table::num(tshmem_util::ps_to_us(shmem_bar), 2)});
    table.add_row({"barrier", "mpi (dissemination)", cfg->short_name,
                   tshmem_util::Table::num(tshmem_util::ps_to_us(mpi_bar), 2)});
    table.add_row({"barrier", "openmp (sync join)", cfg->short_name,
                   tshmem_util::Table::num(tshmem_util::ps_to_us(omp_bar), 2)});

    // --- 3. allreduce ---------------------------------------------------------
    tilesim::ps_t shmem_red = 0, mpi_red = 0, omp_red = 0;
    {
      tshmem::Runtime rt(*cfg);
      std::mutex mu;
      rt.run(tiles, [&](Context& ctx) {
        long* src = ctx.shmalloc_n<long>(kReduceElems);
        long* dst = ctx.shmalloc_n<long>(kReduceElems);
        for (std::size_t i = 0; i < kReduceElems; ++i) src[i] = ctx.my_pe();
        ctx.barrier_all();
        ctx.harness_sync_reset();
        const auto t0 = ctx.clock().now();
        ctx.reduce(dst, src, kReduceElems, tshmem::RedOp::kSum, ctx.world(),
                   tshmem::ReduceAlgo::kRecursiveDoubling);
        const auto dt = ctx.clock().now() - t0;
        {
          std::scoped_lock lk(mu);
          shmem_red = std::max(shmem_red, dt);
        }
        ctx.harness_sync();
        ctx.shfree(dst);
        ctx.shfree(src);
      });
    }
    {
      Device device(*cfg);
      // Staging is O(ranks^2 * message): 32^2 * 128 kB = 128 MB.
      tmc::CommonMemory cmem(std::size_t{256} << 20);
      MsgPassing mp(device, cmem, tiles, kReduceElems * sizeof(long));
      std::mutex mu;
      device.run(tiles, [&](Tile& tile) {
        std::vector<long> vals(kReduceElems, tile.id());
        device.sync_and_reset_clocks();
        const auto t0 = tile.clock().now();
        mp.reduce_sum(tile, 0, vals);
        auto* bytes = reinterpret_cast<std::byte*>(vals.data());
        mp.bcast(tile, 0,
                 std::span<std::byte>(bytes, kReduceElems * sizeof(long)));
        const auto dt = tile.clock().now() - t0;
        {
          std::scoped_lock lk(mu);
          mpi_red = std::max(mpi_red, dt);
        }
        device.host_sync();
      });
    }
    {
      // Fork-join: shared array, per-thread partials, master combines.
      Device device(*cfg);
      ForkJoin fj(device, tiles);
      std::vector<long> partials(static_cast<std::size_t>(tiles), 0);
      std::mutex mu;
      device.run(tiles, [&](Tile& tile) {
        device.sync_and_reset_clocks();
        const auto t0 = tile.clock().now();
        fj.parallel_for(tile, kReduceElems,
                        [&](std::size_t b, std::size_t e, Tile& t) {
                          // Each thread folds its chunk (value = tile id).
                          partials[static_cast<std::size_t>(t.id())] =
                              static_cast<long>(e - b) * t.id();
                          t.charge_int_ops(e - b);
                        });
        if (tile.id() == 0) {
          long total = 0;
          for (const long p : partials) total += p;
          tile.charge_int_ops(partials.size());
          (void)total;
        }
        fj.barrier(tile);
        const auto dt = tile.clock().now() - t0;
        {
          std::scoped_lock lk(mu);
          omp_red = std::max(omp_red, dt);
        }
        device.host_sync();
      });
    }
    table.add_row({"allreduce 16k longs", "tshmem (recursive doubling)",
                   cfg->short_name,
                   tshmem_util::Table::num(tshmem_util::ps_to_us(shmem_red), 1)});
    table.add_row({"allreduce 16k longs", "mpi (tree + bcast)",
                   cfg->short_name,
                   tshmem_util::Table::num(tshmem_util::ps_to_us(mpi_red), 1)});
    table.add_row({"allreduce 16k longs", "openmp (fork-join partials)",
                   cfg->short_name,
                   tshmem_util::Table::num(tshmem_util::ps_to_us(omp_red), 1)});

    checks.push_back({std::string(cfg->short_name) +
                          " p2p: two-sided / one-sided overhead",
                      static_cast<double>(mpi_p2p) /
                          static_cast<double>(shmem_p2p),
                      2.0, "x"});
    const double omp_ratio =
        static_cast<double>(omp_bar) / static_cast<double>(shmem_bar);
    checks.push_back({std::string(cfg->short_name) +
                          " barrier: openmp >> tshmem (" +
                          tshmem_util::Table::num(omp_ratio, 0) + "x)",
                      omp_ratio > 10.0 ? 1.0 : 0.0, 1.0, "bool"});
    checks.push_back({std::string(cfg->short_name) +
                          " barrier: mpi dissemination / tshmem token",
                      static_cast<double>(mpi_bar) /
                          static_cast<double>(shmem_bar),
                      0.6, "x"});
  }

  bench::emit(cli, table);
  bench::print_checks("Extension: library comparison (SVI)", checks);
  return 0;
}

int main(int argc, char** argv) {
  return tshmem_util::cli_main(argc, argv, run_main);
}
