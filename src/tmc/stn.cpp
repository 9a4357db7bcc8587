#include "tmc/stn.hpp"

#include <algorithm>
#include <stdexcept>

#include "sim/guarded_wait.hpp"

namespace tmc {

namespace {

tilesim::Dir step_direction(const tilesim::Topology& topo, int from, int to) {
  if (topo.hops(from, to) != 1) {
    throw std::invalid_argument(
        "STN route path must consist of mesh-adjacent tiles");
  }
  return topo.first_direction(from, to);
}

}  // namespace

StaticNetwork::StaticNetwork(Device& device) : device_(&device) {
  if (!device.config().has_stn) {
    throw std::invalid_argument(
        device.config().name +
        " has no static network (the TILE-Gx replaced it with a fifth "
        "dynamic network, paper SII-C)");
  }
}

int StaticNetwork::configure_route(const std::vector<int>& path) {
  if (path.size() < 2) {
    throw std::invalid_argument("STN route needs at least two tiles");
  }
  const auto& topo = device_->topology();
  for (const int tile : path) {
    if (tile < 0 || tile >= device_->tile_count()) {
      throw std::invalid_argument("STN route tile out of range");
    }
  }
  // Validate adjacency and collect the switch ports the route claims.
  std::vector<std::pair<int, tilesim::Dir>> claims;
  claims.reserve(path.size() - 1);
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    claims.emplace_back(path[i], step_direction(topo, path[i], path[i + 1]));
  }
  std::scoped_lock lk(routes_mu_);
  for (const auto& claim : claims) {
    if (std::find(occupied_ports_.begin(), occupied_ports_.end(), claim) !=
        occupied_ports_.end()) {
      throw std::invalid_argument(
          "STN route conflicts with an existing route's switch port (tile " +
          std::to_string(claim.first) + ", " +
          tilesim::to_string(claim.second) + ")");
    }
  }
  occupied_ports_.insert(occupied_ports_.end(), claims.begin(), claims.end());
  auto route = std::make_unique<Route>();
  route->path = path;
  routes_.push_back(std::move(route));
  return static_cast<int>(routes_.size()) - 1;
}

StaticNetwork::Route& StaticNetwork::route_at(int route) const {
  std::scoped_lock lk(routes_mu_);
  if (route < 0 || route >= static_cast<int>(routes_.size())) {
    throw std::out_of_range("STN route id out of range");
  }
  return *routes_[static_cast<std::size_t>(route)];
}

int StaticNetwork::route_count() const {
  std::scoped_lock lk(routes_mu_);
  return static_cast<int>(routes_.size());
}

const std::vector<int>& StaticNetwork::route_path(int route) const {
  return route_at(route).path;
}

ps_t StaticNetwork::route_latency_ps(int route, int words) const {
  const Route& r = route_at(route);
  const auto& cfg = device_->config();
  const auto hops = static_cast<ps_t>(r.path.size() - 1);
  ps_t lat = cfg.stn_setup_ps + hops * cfg.cycle_ps();
  if (words > 1) {
    lat += static_cast<ps_t>(words - 1) * cfg.cycle_ps();
  }
  return lat;
}

void StaticNetwork::send(Tile& sender, int route,
                         std::span<const std::uint64_t> words) {
  Route& r = route_at(route);
  if (r.path.front() != sender.id()) {
    throw std::invalid_argument(
        "STN send must originate at the route's head tile");
  }
  if (words.empty()) {
    throw std::invalid_argument("STN message needs at least one word");
  }
  StnMessage msg;
  msg.route = route;
  msg.src_tile = sender.id();
  msg.payload.assign(words.begin(), words.end());
  msg.arrival_ps =
      sender.clock().now() + route_latency_ps(route, static_cast<int>(words.size()));
  {
    std::scoped_lock lk(r.mu);
    r.messages.push_back(std::move(msg));
    r.depth.store(r.messages.size(), std::memory_order_relaxed);
  }
  r.cv.notify_one();
  sender.clock().advance(static_cast<ps_t>(words.size()) *
                         device_->config().cycle_ps());
}

StnMessage StaticNetwork::recv(Tile& receiver, int route) {
  Route& r = route_at(route);
  if (r.path.back() != receiver.id()) {
    throw std::invalid_argument(
        "STN recv must happen at the route's tail tile");
  }
  StnMessage msg;
  {
    std::unique_lock lk(r.mu);
    tilesim::guarded_wait(
        *device_, lk, r.cv, receiver.id(), "stn recv",
        [&] { return r.depth.load(std::memory_order_relaxed) != 0; },
        [&] { return !r.messages.empty(); });
    msg = std::move(r.messages.front());
    r.messages.pop_front();
    r.depth.store(r.messages.size(), std::memory_order_relaxed);
  }
  receiver.clock().advance_to(msg.arrival_ps);
  return msg;
}

std::optional<StnMessage> StaticNetwork::try_recv(Tile& receiver, int route) {
  Route& r = route_at(route);
  if (r.path.back() != receiver.id()) {
    throw std::invalid_argument(
        "STN recv must happen at the route's tail tile");
  }
  StnMessage msg;
  {
    std::scoped_lock lk(r.mu);
    if (r.messages.empty()) return std::nullopt;
    msg = std::move(r.messages.front());
    r.messages.pop_front();
    r.depth.store(r.messages.size(), std::memory_order_relaxed);
  }
  receiver.clock().advance_to(msg.arrival_ps);
  return msg;
}

}  // namespace tmc
