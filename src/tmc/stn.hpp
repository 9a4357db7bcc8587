// STN — the TILEPro's developer-defined statically routed network.
//
// The paper (§II-C) notes the TILEPro's iMesh consists of "four dynamically
// dimension-order-routed networks and one developer-defined statically
// routed network"; the TILE-Gx replaced the latter with a fifth dynamic
// network. On the STN, routes are configured once (each switch is
// programmed with fixed input->output port mappings), so messages carry no
// header and pay no per-packet route computation — a few cycles of setup
// instead of the UDN's ~18 ns — at the price of static, conflict-free
// route planning.
//
// This module models route configuration (validated against mesh
// adjacency, with switch-port conflict detection), transfer timing
// (setup + hops * cycle + (words-1) * cycle), and real inter-thread
// delivery through per-route queues.
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
#include "sim/topology.hpp"

namespace tmc {

using tilesim::Device;
using tilesim::ps_t;
using tilesim::Tile;

struct StnMessage {
  int route = -1;
  int src_tile = 0;
  std::vector<std::uint64_t> payload;  // 4-byte words on TILEPro (modeled 64)
  ps_t arrival_ps = 0;
};

class StaticNetwork {
 public:
  explicit StaticNetwork(Device& device);

  StaticNetwork(const StaticNetwork&) = delete;
  StaticNetwork& operator=(const StaticNetwork&) = delete;

  /// Programs a unidirectional route through the given ordered tile path
  /// (every consecutive pair must be mesh-adjacent; length >= 2). Each
  /// switch's directional ports are exclusive resources: two routes may not
  /// enter-and-leave the same tile through the same port pair. Returns the
  /// route id.
  int configure_route(const std::vector<int>& path);

  [[nodiscard]] int route_count() const;
  [[nodiscard]] const std::vector<int>& route_path(int route) const;

  /// Sends `words` along `route`; the caller must sit at the route's head.
  void send(Tile& sender, int route, std::span<const std::uint64_t> words);

  /// Blocking receive at the route's tail; advances the caller's clock to
  /// the arrival time.
  StnMessage recv(Tile& receiver, int route);
  std::optional<StnMessage> try_recv(Tile& receiver, int route);

  /// One-way latency on the route for `words` payload words.
  [[nodiscard]] ps_t route_latency_ps(int route, int words) const;

 private:
  struct Route {
    std::vector<int> path;
    mutable std::mutex mu;
    std::condition_variable cv;
    std::deque<StnMessage> messages;
    /// messages.size(), written under `mu` for receivers that spin
    /// without it.
    std::atomic<std::size_t> depth{0};
  };

  Device* device_;
  mutable std::mutex routes_mu_;
  std::vector<std::unique_ptr<Route>> routes_;
  // Occupied switch ports: (tile, direction) pairs, direction encoding the
  // outgoing port used by some route.
  std::vector<std::pair<int, tilesim::Dir>> occupied_ports_;

  [[nodiscard]] Route& route_at(int route) const;
};

}  // namespace tmc
