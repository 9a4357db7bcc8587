// User Dynamic Network (UDN) model (paper §III-C).
//
// Real Tilera tiles exchange packets over a dimension-order-routed dynamic
// network: a 1-word header carrying the destination plus up to 127 payload
// words land in one of four demultiplexing queues at the destination tile.
// Here packets travel through blocking inter-thread queues (functional
// behaviour) and carry a virtual arrival timestamp computed from the wire
// model (timing behaviour):
//
//   arrival = departure + setup_teardown + hops*cycle + (words-1)*cycle
//             + turn_cost + first_leg_direction_bias
//
// The receiver's clock advances to max(now, arrival) + rx_overhead, so the
// halved round-trip measurement of Fig 4 / Table III reproduces the paper's
// derivation exactly.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "sim/device.hpp"

namespace tmc {

using tilesim::Device;
using tilesim::ps_t;
using tilesim::Tile;

/// Demux queue identifiers. TSHMEM reserves queue 3 for barrier tokens and
/// queue 2 for collective control so application traffic on 0/1 cannot
/// stall synchronization.
inline constexpr int kUdnQueue0 = 0;
inline constexpr int kUdnQueue1 = 1;
inline constexpr int kUdnCollectiveQueue = 2;
inline constexpr int kUdnBarrierQueue = 3;

/// The 1-word UDN header: destination tile, demux queue tag, payload words.
struct UdnHeader {
  int dest_tile = 0;
  int demux_queue = 0;
  int payload_words = 0;

  [[nodiscard]] std::uint64_t encode() const noexcept;
  static UdnHeader decode(std::uint64_t word) noexcept;

  friend bool operator==(const UdnHeader&, const UdnHeader&) = default;
};

struct UdnPacket {
  int src_tile = 0;
  UdnHeader header;
  ps_t arrival_ps = 0;
  std::vector<std::uint64_t> payload;
  /// Per-packet checksum over (src, header, payload), computed at send and
  /// verified at every receive (robustness layer). Host-side only: it never
  /// costs virtual time.
  std::uint64_t checksum = 0;
};

/// The checksum both endpoints compute (exposed for tests).
[[nodiscard]] std::uint64_t udn_checksum(int src_tile, const UdnHeader& header,
                                         std::span<const std::uint64_t> words)
    noexcept;

/// The wire model above as a pure function of the device's config and
/// mesh: virtual time for a packet of `words` payload words from src to dst.
[[nodiscard]] ps_t udn_wire_latency_ps(const tilesim::DeviceConfig& cfg,
                                       const tilesim::Topology& topo,
                                       int src_tile, int dst_tile, int words);

class UdnFabric {
 public:
  explicit UdnFabric(Device& device);

  UdnFabric(const UdnFabric&) = delete;
  UdnFabric& operator=(const UdnFabric&) = delete;

  /// Sends `words` from `sender` to demux queue `queue` on `dst_tile`.
  /// Blocks while the destination queue lacks buffer space (each queue can
  /// hold udn_max_payload_words words, as on hardware). Throws
  /// std::invalid_argument for oversized payloads or bad destinations.
  ///
  /// When a fault engine is attached to the device, each send attempt may
  /// draw a drop/corrupt verdict (link-level CRC catches the bad flit at
  /// injection): the sender backs off exponentially in virtual time and
  /// retries, up to plan.udn_max_retries, then throws
  /// tshmem::Error(kRetriesExhausted). Delivered packets may additionally
  /// draw an arrival delay. No engine / empty plan ⇒ byte-identical
  /// behaviour to the unhardened path.
  void send(Tile& sender, int dst_tile, int queue,
            std::span<const std::uint64_t> words);

  /// Convenience: single-word message.
  void send1(Tile& sender, int dst_tile, int queue, std::uint64_t word);

  /// Blocking receive from one of the caller's demux queues. Advances the
  /// receiving tile's clock to the packet arrival time.
  UdnPacket recv(Tile& receiver, int queue);

  /// Non-blocking receive; std::nullopt when the queue is empty. On success
  /// the clock advances exactly as in recv().
  std::optional<UdnPacket> try_recv(Tile& receiver, int queue);

  /// Blocking receive that does NOT advance the receiver's clock. For
  /// protocol layers that match packets out of order: a packet that gets
  /// stashed for later must not drag the clock to its arrival time (that
  /// would make virtual time depend on host scheduling). The caller
  /// advances to pkt.arrival_ps when it actually consumes a packet, and
  /// reports the receive's kWaitBegin/kWaitEnd bracket: this pull reports
  /// no probe event.
  UdnPacket recv_raw(Tile& receiver, int queue);

  /// Pure wire-latency query (no state change): virtual time for a packet
  /// of `words` payload words from src to dst.
  [[nodiscard]] ps_t wire_latency_ps(int src_tile, int dst_tile,
                                     int words) const;

  /// What send() does on the sender's side when no fault engine is
  /// attached and the destination queue has room, with no packet moving:
  /// the full-queue wait bracket at the sender's clock, one injection
  /// cycle per word, the traffic counters and the kUdnSend record. For
  /// protocol layers that compute a message exchange in closed form; they
  /// take each arrival time from the wire model themselves.
  void send_unqueued(Tile& sender, int dst_tile, std::size_t words);

  /// Total words currently buffered in a destination queue (for tests).
  [[nodiscard]] std::size_t queued_words(int tile, int queue) const;

  /// Cumulative traffic injected by a tile since fabric construction
  /// (metrics scrape): packets, payload words, mesh hops traversed, plus
  /// recovery accounting (fault-injected retries and the virtual-time
  /// backoff they cost the sender).
  struct TileTraffic {
    std::uint64_t packets = 0;
    std::uint64_t words = 0;
    std::uint64_t hops = 0;
    std::uint64_t retries = 0;
    std::uint64_t backoff_ps = 0;
  };
  [[nodiscard]] TileTraffic traffic(int tile) const;

  [[nodiscard]] Device& device() const noexcept { return *device_; }

 private:
  struct TrafficCell {
    std::atomic<std::uint64_t> packets{0};
    std::atomic<std::uint64_t> words{0};
    std::atomic<std::uint64_t> hops{0};
    std::atomic<std::uint64_t> retries{0};
    std::atomic<std::uint64_t> backoff_ps{0};
  };

  struct Queue {
    mutable std::mutex mu;
    std::condition_variable cv_data;   // signaled when a packet arrives
    std::condition_variable cv_space;  // signaled when space frees up
    std::deque<UdnPacket> packets;
    /// Payload words in `packets`, written under `mu` and read lock-free
    /// by spinning waiters. Every packet has a word, so it is also the
    /// data waits' readiness: non-zero exactly when a packet is queued.
    std::atomic<std::size_t> buffered_words{0};

    [[nodiscard]] std::size_t words() const noexcept {
      return buffered_words.load(std::memory_order_relaxed);
    }
    /// Under `mu`. The count goes last: a spinner that sees it takes `mu`
    /// at once, and should find it free.
    void push(UdnPacket pkt) {
      const std::size_t n = pkt.payload.size();
      packets.push_back(std::move(pkt));
      buffered_words.store(words() + n, std::memory_order_relaxed);
    }
    /// Under `mu`, with a packet queued.
    UdnPacket pop() {
      UdnPacket pkt = std::move(packets.front());
      packets.pop_front();
      buffered_words.store(words() - pkt.payload.size(),
                           std::memory_order_relaxed);
      return pkt;
    }
  };

  Device* device_;
  int queues_per_tile_;
  std::vector<std::unique_ptr<Queue>> queues_;  // tile * queues_per_tile_
  std::vector<std::unique_ptr<TrafficCell>> traffic_;  // per sender tile

  [[nodiscard]] Queue& queue_at(int tile, int queue) const;
  void check_queue_args(int tile, int queue) const;
  /// The sender's side once a packet of `words` words is queued: the
  /// injection cycles, the traffic counters and the kUdnSend record.
  void injected(Tile& sender, int dst_tile, std::size_t words);
};

}  // namespace tmc
