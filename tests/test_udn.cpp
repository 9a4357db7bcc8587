// Tests for the UDN model: header encoding, queue semantics, payload
// limits, flow control, and — critically — the wire-latency model against
// the Table III derivation.
#include <gtest/gtest.h>

#include <span>
#include <thread>
#include <vector>

#include "sim/device.hpp"
#include "tmc/udn.hpp"

namespace {

using tilesim::Device;
using tilesim::Tile;
using tmc::UdnFabric;
using tmc::UdnHeader;

TEST(UdnHeader, EncodeDecodeRoundTrip) {
  for (const UdnHeader h : {UdnHeader{0, 0, 1}, UdnHeader{35, 3, 127},
                            UdnHeader{63, 2, 64}}) {
    EXPECT_EQ(UdnHeader::decode(h.encode()), h);
  }
}

class UdnTest : public ::testing::Test {
 protected:
  Device device_{tilesim::tile_gx36()};
  UdnFabric udn_{device_};
};

TEST_F(UdnTest, WireLatencyNeighbors) {
  // Table III: Gx neighbors ~21-22 ns (setup 21 ns + 1 hop @ 1 ns).
  EXPECT_EQ(udn_.wire_latency_ps(14, 13, 1), 22'000u);
  EXPECT_EQ(udn_.wire_latency_ps(14, 15, 1), 22'000u);
  EXPECT_EQ(udn_.wire_latency_ps(14, 8, 1), 22'000u);
  EXPECT_EQ(udn_.wire_latency_ps(14, 20, 1), 22'000u);
}

TEST_F(UdnTest, WireLatencySideToSideAndCorners) {
  // Side-to-side: 5 hops -> ~26 ns; corners: 10 hops -> ~31 ns on Gx.
  EXPECT_EQ(udn_.wire_latency_ps(6, 11, 1), 26'000u);
  EXPECT_EQ(udn_.wire_latency_ps(1, 31, 1), 26'000u);
  EXPECT_EQ(udn_.wire_latency_ps(0, 35, 1), 31'000u);
}

TEST_F(UdnTest, PayloadWordsPipelineAtOneWordPerCycle) {
  const auto one = udn_.wire_latency_ps(0, 1, 1);
  const auto four = udn_.wire_latency_ps(0, 1, 4);
  EXPECT_EQ(four - one, 3u * tilesim::tile_gx36().cycle_ps());
}

TEST_F(UdnTest, SelfSendIsSetupOnly) {
  EXPECT_EQ(udn_.wire_latency_ps(7, 7, 1),
            tilesim::tile_gx36().udn_setup_teardown_ps);
}

TEST(UdnPro64, VerticalBiasAndTurnCost) {
  Device device(tilesim::tile_pro64());
  UdnFabric udn(device);
  // Pro: setup 18 ns, 1.429 ns/hop; vertical routes ~1 ns faster; turning
  // routes +1 ns (Table III: 18/19 ns neighbors, 33 ns corners).
  const auto right = udn.wire_latency_ps(9, 10, 1);
  const auto down = udn.wire_latency_ps(9, 17, 1);  // 8-wide mesh
  EXPECT_NEAR(static_cast<double>(right) / 1000.0, 19.4, 0.1);
  EXPECT_NEAR(static_cast<double>(down) / 1000.0, 18.4, 0.1);
  // 6x6-area corner on the 8x8 mesh: virtual 0 -> virtual 35 = physical 45.
  const auto corner = udn.wire_latency_ps(0, 45, 1);
  EXPECT_NEAR(static_cast<double>(corner) / 1000.0, 33.3, 0.2);
}

TEST_F(UdnTest, SendRecvDeliversPayload) {
  device_.run(2, [&](Tile& tile) {
    if (tile.id() == 0) {
      const std::uint64_t words[3] = {11, 22, 33};
      udn_.send(tile, 1, 0, words);
    } else {
      const auto pkt = udn_.recv(tile, 0);
      EXPECT_EQ(pkt.src_tile, 0);
      EXPECT_EQ(pkt.header.dest_tile, 1);
      EXPECT_EQ(pkt.header.payload_words, 3);
      ASSERT_EQ(pkt.payload.size(), 3u);
      EXPECT_EQ(pkt.payload[0], 11u);
      EXPECT_EQ(pkt.payload[2], 33u);
    }
  });
}

TEST_F(UdnTest, RecvAdvancesClockToArrival) {
  device_.run(2, [&](Tile& tile) {
    if (tile.id() == 0) {
      tile.clock().advance(5'000'000);  // sender is 5 us ahead
      udn_.send1(tile, 1, 0, 99);
    } else {
      const auto pkt = udn_.recv(tile, 0);
      // Receiver was at ~0; its clock must jump to the arrival time.
      EXPECT_EQ(tile.clock().now(), pkt.arrival_ps);
      EXPECT_GE(pkt.arrival_ps, 5'000'000u + udn_.wire_latency_ps(0, 1, 1));
    }
  });
}

TEST_F(UdnTest, HalvedRoundTripEqualsWireLatency) {
  // The paper's Fig 4 measurement methodology: one-way latency is half the
  // send+ack round trip. In the model this recovers wire latency exactly
  // (the 1-cycle sender injection overlaps the flight of the ack).
  device_.run(2, [&](Tile& tile) {
    const auto wire = udn_.wire_latency_ps(0, 1, 1);
    if (tile.id() == 0) {
      const auto t0 = tile.clock().now();
      udn_.send1(tile, 1, 0, 1);
      (void)udn_.recv(tile, 0);
      const auto rtt = tile.clock().now() - t0;
      EXPECT_EQ(rtt / 2, wire);
    } else {
      (void)udn_.recv(tile, 0);
      udn_.send1(tile, 0, 0, 2);
    }
  });
}

TEST_F(UdnTest, QueuesAreIndependent) {
  device_.run(2, [&](Tile& tile) {
    if (tile.id() == 0) {
      udn_.send1(tile, 1, 2, 100);  // queue 2
      udn_.send1(tile, 1, 1, 200);  // queue 1
    } else {
      // Receive in the opposite order of sending: queues don't interfere.
      const auto q1 = udn_.recv(tile, 1);
      const auto q2 = udn_.recv(tile, 2);
      EXPECT_EQ(q1.payload[0], 200u);
      EXPECT_EQ(q2.payload[0], 100u);
    }
  });
}

TEST_F(UdnTest, FifoOrderWithinQueue) {
  device_.run(2, [&](Tile& tile) {
    if (tile.id() == 0) {
      for (std::uint64_t i = 0; i < 20; ++i) udn_.send1(tile, 1, 0, i);
    } else {
      for (std::uint64_t i = 0; i < 20; ++i) {
        EXPECT_EQ(udn_.recv(tile, 0).payload[0], i);
      }
    }
  });
}

TEST_F(UdnTest, TryRecvNonBlocking) {
  device_.run(1, [&](Tile& tile) {
    EXPECT_FALSE(udn_.try_recv(tile, 0).has_value());
    udn_.send1(tile, 0, 0, 7);  // self-send
    const auto pkt = udn_.try_recv(tile, 0);
    ASSERT_TRUE(pkt.has_value());
    EXPECT_EQ(pkt->payload[0], 7u);
  });
}

TEST_F(UdnTest, OversizedPayloadThrows) {
  device_.run(1, [&](Tile& tile) {
    std::vector<std::uint64_t> words(128, 0);
    EXPECT_THROW(udn_.send(tile, 0, 0, words), std::invalid_argument);
    EXPECT_THROW(udn_.send(tile, 0, 0, {}), std::invalid_argument);
  });
}

TEST_F(UdnTest, BadDestinationOrQueueThrows) {
  device_.run(1, [&](Tile& tile) {
    EXPECT_THROW(udn_.send1(tile, 99, 0, 1), std::invalid_argument);
    EXPECT_THROW(udn_.send1(tile, -1, 0, 1), std::invalid_argument);
    EXPECT_THROW(udn_.send1(tile, 0, 4, 1), std::invalid_argument);
    EXPECT_THROW((void)udn_.recv(tile, 7), std::invalid_argument);
  });
}

TEST_F(UdnTest, FlowControlBlocksWhenQueueFull) {
  // A queue holds at most 127 words; a sender stalls until the receiver
  // drains. The receiver sleeps first so the sender demonstrably blocks.
  device_.run(2, [&](Tile& tile) {
    if (tile.id() == 0) {
      std::vector<std::uint64_t> words(100, 1);
      udn_.send(tile, 1, 0, words);  // fills most of the queue
      udn_.send(tile, 1, 0, words);  // must block until drained
    } else {
      // Deliberate delay so the sender demonstrably blocks; not a wait
      // loop, so the Watchdog wrapper does not apply.
      std::this_thread::sleep_for(  // tshmem-lint: allow(R002)
          std::chrono::milliseconds(20));
      EXPECT_EQ(udn_.queued_words(1, 0), 100u);
      (void)udn_.recv(tile, 0);
      (void)udn_.recv(tile, 0);
      EXPECT_EQ(udn_.queued_words(1, 0), 0u);
    }
  });
}

TEST_F(UdnTest, EffectiveThroughputMatchesPaperTable) {
  // Paper §III-C: neighbor/side/corner throughput 2900/2500/2000 Mbps on
  // the Gx (8-byte word over the one-way latency).
  auto mbits = [&](int src, int dst) {
    const double ns = static_cast<double>(udn_.wire_latency_ps(src, dst, 1)) /
                      1000.0;
    return 8.0 * 8.0 / ns * 1000.0;  // bits / ns -> Mbps
  };
  EXPECT_NEAR(mbits(14, 13), 2900, 150);
  EXPECT_NEAR(mbits(6, 11), 2500, 100);
  EXPECT_NEAR(mbits(0, 35), 2000, 100);
}

// Four tiles send to the next while they receive from the previous, so
// every sender injects concurrently with the others. Each tile's traffic
// counts are written by that tile alone, and equal what it sent.
TEST(UdnTraffic, TotalsEqualPacketsSent) {
  Device device(tilesim::tile_gx36());
  UdnFabric udn(device);
  constexpr int kTiles = 4;
  constexpr int kPackets = 600;
  device.run(kTiles, [&](Tile& tile) {
    const int next = (tile.id() + 1) % kTiles;
    const std::uint64_t words[3] = {1, 2, 3};
    for (int i = 0; i < kPackets; ++i) {
      udn.send(tile, next, i % 2,
               std::span<const std::uint64_t>(words, 1 + i % 3));
      // The closed-form path counts as a send with no packet moving.
      if (i % 5 == 0) udn.send_unqueued(tile, next, 2);
      (void)udn.recv(tile, i % 2);
    }
  });
  for (int t = 0; t < kTiles; ++t) {
    const auto traffic = udn.traffic(t);
    const std::uint64_t sends = kPackets + kPackets / 5;
    // 1, 2, 3 words in turn, plus 2 words per closed-form send.
    const std::uint64_t words = kPackets / 3 * 6 + kPackets / 5 * 2;
    EXPECT_EQ(traffic.packets, sends) << "tile " << t;
    EXPECT_EQ(traffic.words, words) << "tile " << t;
    EXPECT_EQ(traffic.hops,
              sends * static_cast<std::uint64_t>(device.topology().hops(
                          t, (t + 1) % kTiles)))
        << "tile " << t;
    EXPECT_EQ(traffic.retries, 0u);
  }
}

}  // namespace
