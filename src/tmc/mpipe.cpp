#include "tmc/mpipe.hpp"

#include <stdexcept>

#include "sim/guarded_wait.hpp"

namespace tmc {

MpipeLink::MpipeLink(MpipeEngine& a, MpipeEngine& b) {
  if (&a == &b) {
    throw std::invalid_argument("MpipeLink endpoints must differ");
  }
  if (a.device_index_ == b.device_index_) {
    throw std::invalid_argument("MpipeLink endpoints need distinct indices");
  }
  if (a.peers_.count(b.device_index_) != 0 ||
      b.peers_.count(a.device_index_) != 0) {
    throw std::logic_error("MpipeEngine pair already linked");
  }
  a.peers_[b.device_index_] = &b;
  b.peers_[a.device_index_] = &a;
}

MpipeEngine::MpipeEngine(Device& device, int device_index, MpipeConfig cfg)
    : device_(&device), device_index_(device_index), cfg_(cfg) {
  if (!device.config().has_mpipe) {
    throw std::invalid_argument(device.config().name +
                                " has no mPIPE engine (paper Table II)");
  }
  if (cfg_.notif_rings < 1) {
    throw std::invalid_argument("mPIPE needs at least one notification ring");
  }
  rings_.reserve(static_cast<std::size_t>(cfg_.notif_rings));
  for (int i = 0; i < cfg_.notif_rings; ++i) {
    rings_.push_back(std::make_unique<Ring>());
  }
}

void MpipeEngine::add_rule(std::uint32_t l2_tag, int ring) {
  if (ring < 0 || ring >= cfg_.notif_rings) {
    throw std::invalid_argument("classification rule targets a bad ring");
  }
  std::scoped_lock lk(rules_mu_);
  rules_[l2_tag] = ring;
}

ps_t MpipeEngine::serialization_ps(std::size_t bytes) const {
  // bits / (gbps * 1e9 bits/s) seconds -> ps.
  const double secs =
      static_cast<double>(bytes) * 8.0 / (cfg_.link_gbps * 1e9);
  return static_cast<ps_t>(secs * 1e12 + 0.5);
}

ps_t MpipeEngine::one_way_ps(std::size_t bytes) const {
  return cfg_.egress_dma_ps + serialization_ps(bytes) + cfg_.classify_ps +
         cfg_.notif_ps;
}

int MpipeEngine::classify(const MpipePacket& pkt) const {
  std::scoped_lock lk(rules_mu_);
  if (const auto it = rules_.find(pkt.l2_tag); it != rules_.end()) {
    return it->second;
  }
  return static_cast<int>(pkt.flow_hash %
                          static_cast<std::uint64_t>(cfg_.notif_rings));
}

void MpipeEngine::egress(Tile& sender, int dst_device, MpipePacket pkt) {
  const auto it = peers_.find(dst_device);
  if (it == peers_.end()) {
    throw std::logic_error("mPIPE egress without a link to device " +
                           std::to_string(dst_device));
  }
  MpipeEngine& peer = *it->second;
  if (pkt.payload.size() > cfg_.max_packet_bytes) {
    throw std::invalid_argument("mPIPE packet exceeds the jumbo-frame limit");
  }
  pkt.src_device = device_index_;
  pkt.src_tile = sender.id();
  // The sender posts the eDMA descriptor and returns; the wire and the
  // remote ingress pipeline ride on the arrival timestamp.
  sender.clock().advance(cfg_.egress_dma_ps);
  pkt.arrival_ps = sender.clock().now() + serialization_ps(pkt.payload.size()) +
                   peer.cfg_.classify_ps + peer.cfg_.notif_ps;
  peer.ingress(std::move(pkt));
}

void MpipeEngine::egress(Tile& sender, MpipePacket pkt) {
  if (peers_.size() != 1) {
    throw std::logic_error(
        "destination-less mPIPE egress requires exactly one link");
  }
  egress(sender, peers_.begin()->first, std::move(pkt));
}

int MpipeEngine::link_count() const {
  return static_cast<int>(peers_.size());
}

void MpipeEngine::ingress(MpipePacket pkt) {
  pkt.ring = classify(pkt);
  Ring& ring = *rings_[static_cast<std::size_t>(pkt.ring)];
  {
    std::scoped_lock lk(ring.mu);
    ring.packets.push_back(std::move(pkt));
    ring.depth.store(ring.packets.size(), std::memory_order_relaxed);
  }
  ring.cv.notify_one();
  ingressed_.fetch_add(1, std::memory_order_relaxed);
}

MpipePacket MpipeEngine::recv(Tile& receiver, int ring_index) {
  if (ring_index < 0 || ring_index >= cfg_.notif_rings) {
    throw std::invalid_argument("mPIPE recv from a bad ring");
  }
  Ring& ring = *rings_[static_cast<std::size_t>(ring_index)];
  MpipePacket pkt;
  {
    std::unique_lock lk(ring.mu);
    tilesim::guarded_wait(
        *device_, lk, ring.cv, receiver.id(), "mpipe recv",
        [&] { return ring.depth.load(std::memory_order_relaxed) != 0; },
        [&] { return !ring.packets.empty(); });
    pkt = std::move(ring.packets.front());
    ring.packets.pop_front();
    ring.depth.store(ring.packets.size(), std::memory_order_relaxed);
  }
  receiver.clock().advance_to(pkt.arrival_ps);
  return pkt;
}

std::optional<MpipePacket> MpipeEngine::try_recv(Tile& receiver,
                                                 int ring_index) {
  if (ring_index < 0 || ring_index >= cfg_.notif_rings) {
    throw std::invalid_argument("mPIPE recv from a bad ring");
  }
  Ring& ring = *rings_[static_cast<std::size_t>(ring_index)];
  MpipePacket pkt;
  {
    std::scoped_lock lk(ring.mu);
    if (ring.packets.empty()) return std::nullopt;
    pkt = std::move(ring.packets.front());
    ring.packets.pop_front();
    ring.depth.store(ring.packets.size(), std::memory_order_relaxed);
  }
  receiver.clock().advance_to(pkt.arrival_ps);
  return pkt;
}

std::size_t MpipeEngine::queued(int ring_index) const {
  if (ring_index < 0 || ring_index >= cfg_.notif_rings) {
    throw std::invalid_argument("bad ring index");
  }
  const Ring& ring = *rings_[static_cast<std::size_t>(ring_index)];
  std::scoped_lock lk(ring.mu);
  return ring.packets.size();
}

std::uint64_t MpipeEngine::packets_ingressed() const {
  return ingressed_.load(std::memory_order_relaxed);
}

}  // namespace tmc
