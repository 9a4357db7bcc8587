// Tests for the multi-device TSHMEM cluster (the §VI future-work
// extension): global PE space, cross-device puts/gets over the mPIPE link,
// cluster-wide barriers and broadcasts, and timing relations (inter-device
// transfers are link-bound, intra-device ones are not).
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <vector>

#include "tshmem/cluster.hpp"

namespace {

using tshmem::Cluster;
using tshmem::ClusterContext;
using tshmem::ClusterOptions;

ClusterOptions small_opts() {
  ClusterOptions o;
  o.runtime.heap_per_pe = std::size_t{4} << 20;
  return o;
}

TEST(Cluster, RequiresMpipeDevice) {
  EXPECT_THROW(Cluster(tilesim::tile_pro64(), small_opts()),
               std::invalid_argument);
}

TEST(Cluster, GlobalPeNumbering) {
  Cluster cluster(tilesim::tile_gx36(), small_opts());
  std::atomic<long> sum{0};
  cluster.run(4, [&](ClusterContext& ctx) {
    EXPECT_EQ(ctx.global_npes(), 8);
    EXPECT_EQ(ctx.global_pe(),
              ctx.device_index() * 4 + ctx.local().my_pe());
    EXPECT_EQ(ctx.device_of(5), 1);
    EXPECT_EQ(ctx.local_pe_of(5), 1);
    sum.fetch_add(ctx.global_pe());
  });
  EXPECT_EQ(sum.load(), 28);  // 0+1+...+7
}

TEST(Cluster, CrossDevicePutRing) {
  Cluster cluster(tilesim::tile_gx36(), small_opts());
  cluster.run(3, [](ClusterContext& ctx) {
    const int g = ctx.global_pe();
    const int n = ctx.global_npes();
    const long token = g;
    long* slot = ctx.local().shmalloc_n<long>(1);
    *slot = -1;
    ctx.barrier_all();
    ctx.put(slot, &token, sizeof(long), (g + 1) % n);  // crosses at 2->3
    ctx.barrier_all();
    EXPECT_EQ(*slot, (g + n - 1) % n);
    ctx.barrier_all();
    ctx.local().shfree(slot);
  });
}

TEST(Cluster, CrossDeviceGet) {
  Cluster cluster(tilesim::tile_gx36(), small_opts());
  cluster.run(2, [](ClusterContext& ctx) {
    double* data = ctx.local().shmalloc_n<double>(64);
    for (int i = 0; i < 64; ++i) data[i] = ctx.global_pe() * 100.0 + i;
    ctx.barrier_all();
    const int partner = (ctx.global_pe() + 2) % 4;  // always other device
    std::vector<double> got(64);
    ctx.get(got.data(), data, 64 * sizeof(double), partner);
    for (int i = 0; i < 64; ++i) EXPECT_EQ(got[i], partner * 100.0 + i);
    ctx.barrier_all();
    ctx.local().shfree(data);
  });
}

TEST(Cluster, BarrierIsClusterWideRendezvous) {
  Cluster cluster(tilesim::tile_gx36(), small_opts());
  std::atomic<int> arrivals{0};
  cluster.run(4, [&](ClusterContext& ctx) {
    for (int round = 1; round <= 5; ++round) {
      arrivals.fetch_add(1);
      ctx.barrier_all();
      EXPECT_GE(arrivals.load(), round * 8);
    }
  });
  EXPECT_EQ(arrivals.load(), 40);
}

TEST(Cluster, BroadcastFromEitherDevice) {
  Cluster cluster(tilesim::tile_gx36(), small_opts());
  for (const int root : {0, 5}) {
    cluster.run(3, [&](ClusterContext& ctx) {
      int* data = ctx.local().shmalloc_n<int>(256);
      for (int i = 0; i < 256; ++i) {
        data[i] = ctx.global_pe() == root ? 7000 + i : -1;
      }
      ctx.barrier_all();
      ctx.broadcast(data, data, 256 * sizeof(int), root);
      ctx.barrier_all();
      for (int i = 0; i < 256; ++i) {
        ASSERT_EQ(data[i], 7000 + i)
            << "gpe=" << ctx.global_pe() << " root=" << root;
      }
      ctx.local().shfree(data);
    });
  }
}

TEST(Cluster, BroadcastLargerThanJumboFrame) {
  Cluster cluster(tilesim::tile_gx36(), small_opts());
  constexpr std::size_t kBytes = 40'000;  // > 4 jumbo chunks
  cluster.run(2, [&](ClusterContext& ctx) {
    auto* data = static_cast<std::uint8_t*>(ctx.local().shmalloc(kBytes));
    for (std::size_t i = 0; i < kBytes; ++i) {
      data[i] = ctx.global_pe() == 0 ? static_cast<std::uint8_t>(i * 31) : 0;
    }
    ctx.barrier_all();
    ctx.broadcast(data, data, kBytes, 0);
    ctx.barrier_all();
    for (std::size_t i = 0; i < kBytes; ++i) {
      ASSERT_EQ(data[i], static_cast<std::uint8_t>(i * 31));
    }
    ctx.local().shfree(data);
  });
}

TEST(Cluster, InterDeviceTransfersAreLinkBound) {
  Cluster cluster(tilesim::tile_gx36(), small_opts());
  constexpr std::size_t kBytes = 1 << 20;
  tilesim::ps_t intra = 0, inter = 0;
  cluster.run(2, [&](ClusterContext& ctx) {
    auto* buf = static_cast<std::byte*>(ctx.local().shmalloc(kBytes));
    ctx.barrier_all();
    if (ctx.global_pe() == 0) {
      auto t0 = ctx.local().clock().now();
      ctx.put(buf, buf, kBytes, 1);  // same device
      intra = ctx.local().clock().now() - t0;
      t0 = ctx.local().clock().now();
      ctx.put(buf, buf, kBytes, 2);  // other device, over the 10G link
      inter = ctx.local().clock().now() - t0;
    }
    ctx.barrier_all();
    ctx.local().shfree(buf);
  });
  // 1 MB at 10 Gbps is ~839 us of serialization; the Gx's 1 MB
  // shared-memory copy runs at ~1000 MB/s (~1.05 ms) — the 10GbE link is
  // actually *faster* than DDC-region copies at this size, which is part
  // of why the paper considers mPIPE-based expansion attractive. Check the
  // link-rate arithmetic exactly and the intra-device value against the
  // memory model.
  const double inter_us = tshmem_util::ps_to_us(inter);
  EXPECT_NEAR(inter_us, 839.0 + 1.0, 15.0);  // serialization + pipeline
  EXPECT_NEAR(tshmem_util::ps_to_us(intra), 1049.0, 30.0);
  // At small sizes the pipeline latency dominates and the link loses badly.
  tilesim::ps_t small_inter = 0, small_intra = 0;
  cluster.run(2, [&](ClusterContext& ctx) {
    auto* buf = static_cast<std::byte*>(ctx.local().shmalloc(64));
    ctx.barrier_all();
    if (ctx.global_pe() == 0) {
      auto t0 = ctx.local().clock().now();
      ctx.put(buf, buf, 64, 1);
      small_intra = ctx.local().clock().now() - t0;
      t0 = ctx.local().clock().now();
      ctx.put(buf, buf, 64, 2);
      small_inter = ctx.local().clock().now() - t0;
    }
    ctx.barrier_all();
    ctx.local().shfree(buf);
  });
  EXPECT_GT(small_inter, 3 * small_intra);
}

TEST(Cluster, StaticObjectsAreNotCrossDeviceAccessible) {
  Cluster cluster(tilesim::tile_gx36(), small_opts());
  cluster.run(2, [](ClusterContext& ctx) {
    int* stat = ctx.local().static_sym<int>("cluster_static", 4);
    int v = 1;
    if (ctx.global_pe() == 0) {
      EXPECT_THROW(ctx.put(stat, &v, sizeof(int), 2), std::invalid_argument);
    }
    ctx.barrier_all();
  });
}

TEST(Cluster, ValidatesGlobalPeRange) {
  Cluster cluster(tilesim::tile_gx36(), small_opts());
  cluster.run(2, [](ClusterContext& ctx) {
    int* buf = ctx.local().shmalloc_n<int>(1);
    int v = 0;
    EXPECT_THROW(ctx.put(buf, &v, 4, 4), std::out_of_range);
    EXPECT_THROW(ctx.get(&v, buf, 4, -1), std::out_of_range);
    EXPECT_THROW(ctx.broadcast(buf, buf, 4, 9), std::out_of_range);
    ctx.barrier_all();
    ctx.local().shfree(buf);
  });
}

TEST(Cluster, ExceptionPropagatesWithoutDeadlock) {
  Cluster cluster(tilesim::tile_gx36(), small_opts());
  EXPECT_THROW(cluster.run(2,
                           [](ClusterContext& ctx) {
                             ctx.barrier_all();
                             if (ctx.global_pe() == 3) {
                               throw std::runtime_error("cluster boom");
                             }
                             // Others proceed to the end normally.
                           }),
               std::runtime_error);
}

TEST(Cluster, ThreeDeviceFullMesh) {
  Cluster cluster(tilesim::tile_gx36(), small_opts(), /*num_devices=*/3);
  cluster.run(2, [](ClusterContext& ctx) {
    EXPECT_EQ(ctx.global_npes(), 6);
    const int g = ctx.global_pe();
    const int n = ctx.global_npes();
    long* slot = ctx.local().shmalloc_n<long>(1);
    *slot = -1;
    ctx.barrier_all();
    const long token = g;
    ctx.put(slot, &token, sizeof(long), (g + 2) % n);  // hops across devices
    ctx.barrier_all();
    EXPECT_EQ(*slot, (g + n - 2) % n);
    ctx.barrier_all();
    ctx.local().shfree(slot);
  });
}

TEST(Cluster, ThreeDeviceBroadcastFromMiddleDevice) {
  Cluster cluster(tilesim::tile_gx36(), small_opts(), /*num_devices=*/3);
  cluster.run(2, [](ClusterContext& ctx) {
    int* data = ctx.local().shmalloc_n<int>(64);
    const int root = 3;  // device 1, local PE 1
    for (int i = 0; i < 64; ++i) {
      data[i] = ctx.global_pe() == root ? 80 + i : -1;
    }
    ctx.barrier_all();
    ctx.broadcast(data, data, 64 * sizeof(int), root);
    ctx.barrier_all();
    for (int i = 0; i < 64; ++i) ASSERT_EQ(data[i], 80 + i);
    ctx.local().shfree(data);
  });
}

TEST(Cluster, RejectsSingleDeviceCluster) {
  EXPECT_THROW(Cluster(tilesim::tile_gx36(), small_opts(), 1),
               std::invalid_argument);
}

TEST(Cluster, DeterministicVirtualTime) {
  Cluster cluster(tilesim::tile_gx36(), small_opts());
  tilesim::ps_t first = 0;
  for (int trial = 0; trial < 2; ++trial) {
    tilesim::ps_t elapsed = 0;
    cluster.run(2, [&](ClusterContext& ctx) {
      // Put from one buffer into another: PE pairs swap data, so putting
      // into the buffer the peer is reading from would race.
      int* src = ctx.local().shmalloc_n<int>(1024);
      int* dst = ctx.local().shmalloc_n<int>(1024);
      ctx.barrier_all();
      ctx.local().harness_sync_reset();
      ctx.put(dst, src, 1024 * sizeof(int),
              (ctx.global_pe() + 2) % 4);  // all cross-device
      ctx.barrier_all();
      if (ctx.global_pe() == 0) elapsed = ctx.local().clock().now();
      ctx.local().harness_sync();
      ctx.local().shfree(dst);
      ctx.local().shfree(src);
    });
    if (trial == 0) {
      first = elapsed;
      EXPECT_GT(first, 0u);
    } else {
      EXPECT_EQ(elapsed, first);
    }
  }
}

}  // namespace
