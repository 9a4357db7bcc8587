// Multi-device pipeline example: two TILE-Gx8036 devices joined by an
// mPIPE 10GbE link run a two-stage processing pipeline — device 0's PEs
// produce and pre-process data blocks, push them to partner PEs on device 1
// with cross-device one-sided puts, and device 1's PEs reduce them; the
// final verdict returns with a cluster-wide broadcast.
//
// This exercises the paper's §VI future-work direction end to end:
//   ./multidev_pipeline --pes 8 --blocks 16 --block-kb 64
#include <cstdio>
#include <numeric>
#include <vector>

#include "tshmem/cluster.hpp"
#include "util/cli.hpp"

static int run_main(int argc, char** argv) {
  const tshmem_util::Cli cli(argc, argv);
  const int pes = static_cast<int>(cli.get_int("pes", 8));
  const int blocks = static_cast<int>(cli.get_int("blocks", 16));
  const std::size_t block_elems =
      static_cast<std::size_t>(cli.get_int("block-kb", 64)) * 1024 /
      sizeof(long);
  cli.reject_unknown();
  std::printf(
      "pipeline: 2 x TILE-Gx8036 over mPIPE, %d PEs/device, %d blocks of "
      "%zu KB\n",
      pes, blocks, block_elems * sizeof(long) / 1024);

  tshmem::ClusterOptions opts;
  opts.runtime.heap_per_pe =
      2 * block_elems * sizeof(long) + (std::size_t{4} << 20);
  tshmem::Cluster cluster(tilesim::tile_gx36(), opts);

  long expected = 0;
  long actual = -1;
  tilesim::ps_t elapsed = 0;
  cluster.run(pes, [&](tshmem::ClusterContext& ctx) {
    auto& sh = ctx.local();
    long* inbox = sh.shmalloc_n<long>(block_elems);
    long* flag = sh.shmalloc_n<long>(1);
    long* ack = sh.shmalloc_n<long>(1);  // consumer -> producer flow control
    long* partial = sh.shmalloc_n<long>(1);
    long* verdict = sh.shmalloc_n<long>(1);
    *flag = 0;
    *ack = 0;
    *partial = 0;
    ctx.barrier_all();
    sh.harness_sync_reset();
    const auto t0 = sh.clock().now();

    const int me = ctx.global_pe();
    if (ctx.device_index() == 0) {
      // Producer: generate blocks, pre-process (square each element), push
      // to my partner PE on device 1, then raise its flag.
      const int partner = me + pes;
      std::vector<long> block(block_elems);
      for (int b = 0; b < blocks; ++b) {
        for (std::size_t i = 0; i < block_elems; ++i) {
          block[i] = (me + 1) * (b + 1);
        }
        for (auto& v : block) v = v * v;
        sh.charge_int_ops(block_elems * 2);
        ctx.put(inbox, block.data(), block_elems * sizeof(long), partner);
        const long ready = b + 1;
        ctx.put(flag, &ready, sizeof(long), partner);
        // Flow control: the inbox is a single buffer — wait until the
        // consumer acknowledges this block before overwriting it.
        sh.wait_until(ack, tshmem::Cmp::kGe, ready);
      }
    } else {
      // Consumer: wait for each block, fold it into my partial sum.
      long sum = 0;
      for (int b = 0; b < blocks; ++b) {
        sh.wait_until(flag, tshmem::Cmp::kGe, static_cast<long>(b + 1));
        for (std::size_t i = 0; i < block_elems; ++i) sum += inbox[i];
        sh.charge_int_ops(block_elems);
        const long done = b + 1;
        ctx.put(ack, &done, sizeof(long), me - pes);
      }
      *partial = sum;
      sh.quiet();
    }
    ctx.barrier_all();

    // Device-1 PE 0 combines the partials and broadcasts the verdict
    // cluster-wide.
    if (ctx.device_index() == 1 && sh.my_pe() == 0) {
      long total = 0;
      for (int p = 0; p < pes; ++p) {
        long v = 0;
        ctx.get(&v, partial, sizeof(long), pes + p);
        total += v;
      }
      *verdict = total;
      sh.quiet();
    }
    ctx.barrier_all();
    ctx.broadcast(verdict, verdict, sizeof(long), pes);
    ctx.barrier_all();

    if (me == 0) {
      actual = *verdict;
      elapsed = sh.clock().now() - t0;
    }
    sh.harness_sync();
    sh.shfree(verdict);
    sh.shfree(partial);
    sh.shfree(ack);
    sh.shfree(flag);
    sh.shfree(inbox);
  });

  // Expected: sum over producers p (1..pes) and blocks b (1..blocks) of
  // block_elems * (p*b)^2.
  for (int p = 1; p <= pes; ++p) {
    for (int b = 1; b <= blocks; ++b) {
      expected += static_cast<long>(block_elems) * static_cast<long>(p) * p *
                  b * b;
    }
  }
  std::printf("pipeline verdict: %ld (expected %ld) %s\n", actual, expected,
              actual == expected ? "(OK)" : "(FAILED)");
  std::printf("virtual device time: %.3f ms (includes %d x %d cross-device "
              "block transfers over the 10G link)\n",
              tshmem_util::ps_to_ms(elapsed), pes, blocks);
  return actual == expected ? 0 : 1;
}

int main(int argc, char** argv) {
  return tshmem_util::cli_main(argc, argv, run_main);
}
