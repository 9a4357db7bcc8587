// Ablation B — the §IV-E future-work collective algorithms against the
// paper's implemented designs: binomial vs push/pull broadcast,
// recursive-doubling vs naive reduction, ring vs naive fcollect.
#include <iostream>
#include <mutex>
#include <vector>

#include "bench_common.hpp"
#include "tshmem/context.hpp"
#include "tshmem/runtime.hpp"

namespace {

using tshmem::Context;

/// Worst participant elapsed time for one collective invocation.
template <typename Fn>
tilesim::ps_t worst_elapsed(tshmem::Runtime& rt, int tiles, std::size_t bytes,
                            std::size_t dst_factor, Fn&& op) {
  std::mutex mu;
  tilesim::ps_t worst = 0;
  rt.run(tiles, [&](Context& ctx) {
    auto* src = static_cast<std::byte*>(ctx.shmalloc(bytes));
    auto* dst = static_cast<std::byte*>(ctx.shmalloc(bytes * dst_factor));
    ctx.barrier_all();
    op(ctx, dst, src, bytes);  // warm
    ctx.harness_sync_reset();
    const auto t0 = ctx.clock().now();
    op(ctx, dst, src, bytes);
    const auto dt = ctx.clock().now() - t0;
    {
      std::scoped_lock lk(mu);
      worst = std::max(worst, dt);
    }
    ctx.harness_sync();
    ctx.shfree(dst);
    ctx.shfree(src);
  });
  return worst;
}

}  // namespace

static int run_main(int argc, char** argv) {
  const tshmem_util::Cli cli(argc, argv, {"csv"});
  const std::size_t bytes =
      static_cast<std::size_t>(cli.get_int("bytes", 64 << 10));
  const int tiles = static_cast<int>(cli.get_int("tiles", 32));
  const auto devices = bench::devices_from_cli(cli);
  cli.reject_unknown();
  tshmem_util::print_banner(
      std::cout, "Ablation B",
      "Collective algorithms (paper designs vs SIV-E extensions), " +
          tshmem_util::Table::bytes(bytes) + " per tile, " +
          std::to_string(tiles) + " tiles");

  tshmem_util::Table table({"collective", "algorithm", "device", "time (us)"});
  std::vector<bench::PaperCheck> checks;

  for (const auto* cfg : devices) {
    tshmem::RuntimeOptions opts;
    opts.heap_per_pe = (bytes * static_cast<std::size_t>(tiles) + bytes) * 2 +
                       (1 << 20);
    tshmem::Runtime rt(*cfg, opts);
    auto bcast = [&](tshmem::BcastAlgo algo) {
      return worst_elapsed(rt, tiles, bytes, 1,
                           [algo](Context& ctx, std::byte* dst,
                                  const std::byte* src, std::size_t n) {
                             ctx.broadcast(dst, src, n, 0, ctx.world(), algo);
                           });
    };
    const auto push = bcast(tshmem::BcastAlgo::kPush);
    const auto pull = bcast(tshmem::BcastAlgo::kPull);
    const auto binom = bcast(tshmem::BcastAlgo::kBinomial);
    table.add_row({"broadcast", "push (SIV-D1)", cfg->short_name,
                   tshmem_util::Table::num(tshmem_util::ps_to_us(push), 1)});
    table.add_row({"broadcast", "pull (SIV-D1)", cfg->short_name,
                   tshmem_util::Table::num(tshmem_util::ps_to_us(pull), 1)});
    table.add_row({"broadcast", "binomial (SIV-E)", cfg->short_name,
                   tshmem_util::Table::num(tshmem_util::ps_to_us(binom), 1)});

    auto reduce = [&](tshmem::ReduceAlgo algo) {
      return worst_elapsed(
          rt, tiles, bytes, 1,
          [algo](Context& ctx, std::byte* dst, const std::byte* src,
                 std::size_t n) {
            ctx.reduce(reinterpret_cast<int*>(dst),
                       reinterpret_cast<const int*>(src), n / sizeof(int),
                       tshmem::RedOp::kSum, ctx.world(), algo);
          });
    };
    const auto naive_red = reduce(tshmem::ReduceAlgo::kNaive);
    const auto rd_red = reduce(tshmem::ReduceAlgo::kRecursiveDoubling);
    table.add_row({"reduce", "naive (SIV-D3)", cfg->short_name,
                   tshmem_util::Table::num(tshmem_util::ps_to_us(naive_red), 1)});
    table.add_row({"reduce", "recursive-doubling (SIV-E)", cfg->short_name,
                   tshmem_util::Table::num(tshmem_util::ps_to_us(rd_red), 1)});

    auto collect = [&](tshmem::CollectAlgo algo) {
      return worst_elapsed(
          rt, tiles, bytes, static_cast<std::size_t>(tiles),
          [algo](Context& ctx, std::byte* dst, const std::byte* src,
                 std::size_t n) { ctx.fcollect(dst, src, n, ctx.world(), algo); });
    };
    const auto naive_col = collect(tshmem::CollectAlgo::kNaive);
    const auto ring_col = collect(tshmem::CollectAlgo::kRing);
    table.add_row({"fcollect", "naive (SIV-D2)", cfg->short_name,
                   tshmem_util::Table::num(tshmem_util::ps_to_us(naive_col), 1)});
    table.add_row({"fcollect", "ring (extension)", cfg->short_name,
                   tshmem_util::Table::num(tshmem_util::ps_to_us(ring_col), 1)});

    checks.push_back({std::string(cfg->short_name) + " pull/push speedup",
                      static_cast<double>(push) / static_cast<double>(pull),
                      static_cast<double>(tiles - 1) / 2.5, "x"});
    checks.push_back(
        {std::string(cfg->short_name) + " recursive-doubling/naive speedup",
         static_cast<double>(naive_red) / static_cast<double>(rd_red), 3.0,
         "x"});
  }

  bench::emit(cli, table);
  bench::print_checks("Ablation B (SIV-E)", checks);
  return 0;
}

int main(int argc, char** argv) {
  return tshmem_util::cli_main(argc, argv, run_main);
}
