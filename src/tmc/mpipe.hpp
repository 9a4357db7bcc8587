// mPIPE (multicore Programmable Intelligent Packet Engine) model.
//
// The TILE-Gx's mPIPE accelerator performs wire-speed packet
// classification, distribution, and load balancing (paper Table II); the
// paper's §VI future work proposes leveraging it to expand TSHMEM's
// shared-memory abstraction across multiple many-core devices. This module
// models the data path needed for that extension:
//
//   egress eDMA -> 10GbE-class link (serialization at link_gbps)
//     -> ingress classification pipeline (exact-match rules, else flow
//        hashing for load balancing) -> per-worker notification rings.
//
// Functionally, packets travel through real blocking queues between the
// two devices' thread pools; virtual arrival timestamps carry the link
// serialization + classification + notification costs.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "sim/device.hpp"

namespace tmc {

using tilesim::Device;
using tilesim::ps_t;
using tilesim::Tile;

struct MpipeConfig {
  double link_gbps = 10.0;     ///< XAUI/10GbE wire rate
  ps_t egress_dma_ps = 250'000;     ///< eDMA descriptor post + fetch
  ps_t classify_ps = 300'000;       ///< classification pipeline latency
  ps_t notif_ps = 450'000;          ///< notification ring delivery
  int notif_rings = 16;             ///< distribution targets
  std::size_t max_packet_bytes = 9000;  ///< jumbo frame limit
};

struct MpipePacket {
  int src_device = 0;
  int src_tile = 0;
  std::uint32_t l2_tag = 0;     ///< classification key
  std::uint64_t flow_hash = 0;  ///< load-balancing key
  std::vector<std::byte> payload;
  ps_t arrival_ps = 0;          ///< set by the ingress pipeline
  int ring = -1;                ///< set by classification
};

class MpipeEngine;

/// Full-duplex point-to-point link between two devices' mPIPE engines.
/// An engine may carry one link per remote device (full-mesh clusters).
class MpipeLink {
 public:
  MpipeLink(MpipeEngine& a, MpipeEngine& b);

  MpipeLink(const MpipeLink&) = delete;
  MpipeLink& operator=(const MpipeLink&) = delete;

 private:
  friend class MpipeEngine;
};

class MpipeEngine {
 public:
  MpipeEngine(Device& device, int device_index, MpipeConfig cfg = {});

  MpipeEngine(const MpipeEngine&) = delete;
  MpipeEngine& operator=(const MpipeEngine&) = delete;

  [[nodiscard]] const MpipeConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] int device_index() const noexcept { return device_index_; }
  [[nodiscard]] Device& device() const noexcept { return *device_; }

  /// Installs an exact-match classification rule: packets whose l2_tag
  /// matches are delivered to `ring`. Unmatched packets load-balance by
  /// flow hash across all rings.
  void add_rule(std::uint32_t l2_tag, int ring);

  /// Sends a packet toward `dst_device` over the corresponding link. The
  /// sending tile is charged the eDMA post; serialization/classification
  /// ride on the packet's arrival timestamp. Throws if no link to that
  /// device is attached, the device lacks mPIPE, or the payload exceeds
  /// the jumbo limit. The one-link overload keeps the common two-device
  /// case terse.
  void egress(Tile& sender, int dst_device, MpipePacket pkt);
  void egress(Tile& sender, MpipePacket pkt);

  [[nodiscard]] int link_count() const;

  /// Blocking receive from one notification ring; advances the caller's
  /// clock to the packet arrival time.
  MpipePacket recv(Tile& receiver, int ring);
  std::optional<MpipePacket> try_recv(Tile& receiver, int ring);

  /// Virtual time to move `bytes` across the link (serialization only).
  [[nodiscard]] ps_t serialization_ps(std::size_t bytes) const;

  /// One-way latency for a packet of `bytes` (dma + wire + classify +
  /// notification).
  [[nodiscard]] ps_t one_way_ps(std::size_t bytes) const;

  [[nodiscard]] std::size_t queued(int ring) const;
  [[nodiscard]] std::uint64_t packets_ingressed() const;

 private:
  struct Ring {
    mutable std::mutex mu;
    std::condition_variable cv;
    std::deque<MpipePacket> packets;
    /// packets.size(), written under `mu` for receivers that spin
    /// without it.
    std::atomic<std::size_t> depth{0};
  };

  Device* device_;
  int device_index_;
  MpipeConfig cfg_;
  std::map<int, MpipeEngine*> peers_;  // remote device index -> engine

  mutable std::mutex rules_mu_;
  std::map<std::uint32_t, int> rules_;
  std::vector<std::unique_ptr<Ring>> rings_;
  std::atomic<std::uint64_t> ingressed_{0};

  friend class MpipeLink;

  /// Ingress path run on the *receiving* engine: classify and enqueue.
  void ingress(MpipePacket pkt);
  [[nodiscard]] int classify(const MpipePacket& pkt) const;
};

}  // namespace tmc
