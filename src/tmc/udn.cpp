#include "tmc/udn.hpp"

#include <stdexcept>
#include <string>

#include "sim/fault.hpp"
#include "sim/guarded_wait.hpp"
#include "sim/probe.hpp"
#include "sim/topology.hpp"
#include "util/error.hpp"
#include "util/owner_add.hpp"

namespace tmc {

namespace {
// Header layout (64-bit word): [payload_words:16][demux_queue:8][dest:16].
constexpr std::uint64_t kDestMask = 0xffff;
constexpr std::uint64_t kQueueMask = 0xff;
constexpr std::uint64_t kWordsMask = 0xffff;

// SplitMix64 finalizer — one avalanche round per mixed word.
constexpr std::uint64_t mix64(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

using tilesim::guarded_wait;
using tshmem_util::owner_add;

/// The sender's wait while the destination queue lacks room.
constexpr const char* kQueueFullWait = "udn send: destination queue full";
}  // namespace

std::uint64_t udn_checksum(int src_tile, const UdnHeader& header,
                           std::span<const std::uint64_t> words) noexcept {
  std::uint64_t h = mix64(header.encode() ^
                          (static_cast<std::uint64_t>(src_tile) + 1) *
                              0x9e3779b97f4a7c15ULL);
  for (std::uint64_t w : words) h = mix64(h ^ w);
  return h;
}

std::uint64_t UdnHeader::encode() const noexcept {
  return (static_cast<std::uint64_t>(payload_words) & kWordsMask) << 24 |
         (static_cast<std::uint64_t>(demux_queue) & kQueueMask) << 16 |
         (static_cast<std::uint64_t>(dest_tile) & kDestMask);
}

UdnHeader UdnHeader::decode(std::uint64_t word) noexcept {
  UdnHeader h;
  h.dest_tile = static_cast<int>(word & kDestMask);
  h.demux_queue = static_cast<int>((word >> 16) & kQueueMask);
  h.payload_words = static_cast<int>((word >> 24) & kWordsMask);
  return h;
}

UdnFabric::UdnFabric(Device& device)
    : device_(&device),
      queues_per_tile_(device.config().udn_demux_queues) {
  const int total = device.tile_count() * queues_per_tile_;
  queues_.reserve(static_cast<std::size_t>(total));
  for (int i = 0; i < total; ++i) {
    queues_.push_back(std::make_unique<Queue>());
  }
  traffic_.reserve(static_cast<std::size_t>(device.tile_count()));
  for (int i = 0; i < device.tile_count(); ++i) {
    traffic_.push_back(std::make_unique<TrafficCell>());
  }
}

UdnFabric::TileTraffic UdnFabric::traffic(int tile) const {
  if (tile < 0 || tile >= device_->tile_count()) {
    throw std::invalid_argument("UDN traffic query: tile out of range");
  }
  const TrafficCell& c = *traffic_[static_cast<std::size_t>(tile)];
  return TileTraffic{c.packets.load(std::memory_order_relaxed),
                     c.words.load(std::memory_order_relaxed),
                     c.hops.load(std::memory_order_relaxed),
                     c.retries.load(std::memory_order_relaxed),
                     c.backoff_ps.load(std::memory_order_relaxed)};
}

void UdnFabric::check_queue_args(int tile, int queue) const {
  if (tile < 0 || tile >= device_->tile_count()) {
    throw std::invalid_argument("UDN destination tile out of range");
  }
  if (queue < 0 || queue >= queues_per_tile_) {
    throw std::invalid_argument("UDN demux queue out of range");
  }
}

UdnFabric::Queue& UdnFabric::queue_at(int tile, int queue) const {
  return *queues_[static_cast<std::size_t>(tile * queues_per_tile_ + queue)];
}

ps_t udn_wire_latency_ps(const tilesim::DeviceConfig& cfg,
                         const tilesim::Topology& topo, int src_tile,
                         int dst_tile, int words) {
  const ps_t cycle = cfg.cycle_ps();
  std::int64_t lat = static_cast<std::int64_t>(cfg.udn_setup_teardown_ps);
  if (src_tile != dst_tile) {
    const int hops = topo.hops(src_tile, dst_tile);
    lat += static_cast<std::int64_t>(hops) * static_cast<std::int64_t>(cycle);
    lat += cfg.udn_dir_bias_ps[static_cast<int>(
        topo.first_direction(src_tile, dst_tile))];
    if (topo.route_turns(src_tile, dst_tile)) {
      lat += static_cast<std::int64_t>(cfg.udn_turn_ps);
    }
  }
  // The header word is consumed by routing; each additional payload word
  // follows cut-through at one word per cycle.
  if (words > 1) {
    lat += static_cast<std::int64_t>(words - 1) *
           static_cast<std::int64_t>(cycle);
  }
  return lat < 0 ? 0 : static_cast<ps_t>(lat);
}

ps_t UdnFabric::wire_latency_ps(int src_tile, int dst_tile, int words) const {
  return udn_wire_latency_ps(device_->config(), device_->topology(), src_tile,
                             dst_tile, words);
}

void UdnFabric::injected(Tile& sender, int dst_tile, std::size_t words) {
  // Sender-side cost: injecting header+payload into the switch takes one
  // cycle per word; the wire latency itself is charged to the receiver via
  // the arrival timestamp.
  sender.clock().advance(static_cast<ps_t>(words) *
                         device_->config().cycle_ps());
  TrafficCell& c = *traffic_[static_cast<std::size_t>(sender.id())];
  owner_add(c.packets, std::uint64_t{1});
  owner_add(c.words, static_cast<std::uint64_t>(words));
  if (sender.id() != dst_tile) {
    owner_add(c.hops, static_cast<std::uint64_t>(device_->topology().hops(
                          sender.id(), dst_tile)));
  }
  tilesim::probe_event(sender, {tilesim::ProbeKind::kUdnSend, "udn_send",
                                sender.clock().now(), dst_tile,
                                words * sizeof(std::uint64_t)});
}

void UdnFabric::send_unqueued(Tile& sender, int dst_tile, std::size_t words) {
  // guarded_wait's bracket: begin and end at the same clock, waited or not.
  const ps_t now = sender.clock().now();
  tilesim::probe_event(sender,
                       {tilesim::ProbeKind::kWaitBegin, kQueueFullWait, now});
  tilesim::probe_event(sender,
                       {tilesim::ProbeKind::kWaitEnd, kQueueFullWait, now});
  injected(sender, dst_tile, words);
}

void UdnFabric::send(Tile& sender, int dst_tile, int queue,
                     std::span<const std::uint64_t> words) {
  check_queue_args(dst_tile, queue);
  const auto& cfg = device_->config();
  if (words.size() >
      static_cast<std::size_t>(cfg.udn_max_payload_words)) {
    throw std::invalid_argument("UDN payload exceeds 127 words");
  }
  if (words.empty()) {
    throw std::invalid_argument("UDN payload must have at least one word");
  }

  UdnPacket pkt;
  pkt.src_tile = sender.id();
  pkt.header = UdnHeader{dst_tile, queue,
                         static_cast<int>(words.size())};
  pkt.payload.assign(words.begin(), words.end());
  pkt.checksum = udn_checksum(pkt.src_tile, pkt.header, words);

  // Fault injection: every injection attempt may be dropped or corrupted
  // at the link (link-level CRC catches the bad flit); the sender backs
  // off exponentially in virtual time and retries, bounded by the plan.
  ps_t inject_delay_ps = 0;
  if (tilesim::FaultEngine* fault = device_->fault(); fault != nullptr) {
    const tilesim::FaultPlan& plan = fault->plan();
    TrafficCell& traffic = *traffic_[static_cast<std::size_t>(sender.id())];
    int attempt = 0;
    for (;;) {
      const auto d = fault->udn_attempt(sender.id(), sender.clock().now());
      if (d.verdict == tilesim::FaultEngine::UdnVerdict::kDeliver) {
        inject_delay_ps = d.delay_ps;
        break;
      }
      if (attempt >= plan.udn_max_retries) {
        tilesim::probe_event(
            sender,
            {tilesim::ProbeKind::kError, "udn_send", sender.clock().now(),
             dst_tile, 0, static_cast<int>(tshmem::Errc::kRetriesExhausted)});
        throw tshmem::Error(
            tshmem::Errc::kRetriesExhausted,
            "UDN send from PE " + std::to_string(sender.id()) + " to PE " +
                std::to_string(dst_tile) + " queue " + std::to_string(queue) +
                ": " + std::to_string(attempt + 1) +
                " attempt(s) dropped/corrupted; retry budget exhausted");
      }
      const ps_t backoff = plan.udn_backoff_base_ps
                           << (attempt < 20 ? attempt : 20);
      sender.clock().advance(backoff);
      owner_add(traffic.retries, std::uint64_t{1});
      owner_add(traffic.backoff_ps, static_cast<std::uint64_t>(backoff));
      tilesim::probe_event(sender, {tilesim::ProbeKind::kFaultRetry,
                                    "udn_retry", sender.clock().now(), dst_tile,
                                    static_cast<std::uint64_t>(backoff)});
      ++attempt;
    }
  }

  pkt.arrival_ps = sender.clock().now() +
                   wire_latency_ps(sender.id(), dst_tile,
                                   static_cast<int>(words.size())) +
                   inject_delay_ps;

  Queue& q = queue_at(dst_tile, queue);
  {
    const auto fits = [&q, need = words.size(),
                       cap = static_cast<std::size_t>(
                           cfg.udn_max_payload_words)] {
      return q.words() + need <= cap;
    };
    std::unique_lock lk(q.mu);
    guarded_wait(*device_, lk, q.cv_space, sender.id(), kQueueFullWait, fits,
                 fits);
    q.push(std::move(pkt));
  }
  q.cv_data.notify_one();
  injected(sender, dst_tile, words.size());
}

void UdnFabric::send1(Tile& sender, int dst_tile, int queue,
                      std::uint64_t word) {
  send(sender, dst_tile, queue, std::span<const std::uint64_t>(&word, 1));
}

namespace {
// Receiver-side integrity check. A mismatch means a corrupted packet made
// it past every link-level retry — surface it, never deliver silently.
void verify_checksum(const UdnPacket& pkt, int receiver_tile) {
  if (pkt.checksum ==
      udn_checksum(pkt.src_tile, pkt.header, pkt.payload)) {
    return;
  }
  throw tshmem::Error(
      tshmem::Errc::kCorruptPacket,
      "UDN packet from PE " + std::to_string(pkt.src_tile) + " to PE " +
          std::to_string(receiver_tile) + " queue " +
          std::to_string(pkt.header.demux_queue) +
          " failed its checksum at delivery");
}
}  // namespace

UdnPacket UdnFabric::recv(Tile& receiver, int queue) {
  check_queue_args(receiver.id(), queue);
  Queue& q = queue_at(receiver.id(), queue);
  UdnPacket pkt;
  {
    std::unique_lock lk(q.mu);
    guarded_wait(
        *device_, lk, q.cv_data, receiver.id(), "udn recv",
        [&] { return q.words() != 0; }, [&] { return !q.packets.empty(); });
    pkt = q.pop();
  }
  q.cv_space.notify_all();
  verify_checksum(pkt, receiver.id());
  tilesim::probe_wait_edge(receiver, pkt.src_tile,
                           tilesim::ProbeKind::kUdnRecv, "udn_recv",
                           receiver.clock().now(), pkt.arrival_ps);
  receiver.clock().advance_to(pkt.arrival_ps);
  receiver.clock().advance(device_->config().udn_rx_overhead_ps);
  // recv_raw/try_recv are deliberately NOT reported: tag-matched consumers
  // (recv_ctrl) pull packets in host-arrival order before matching, so only
  // the clock-advancing receive here is program-order deterministic.
  tilesim::probe_event(receiver, {tilesim::ProbeKind::kUdnRecv, "udn_recv",
                                  receiver.clock().now(), pkt.src_tile,
                                  pkt.payload.size() * sizeof(std::uint64_t)});
  return pkt;
}

UdnPacket UdnFabric::recv_raw(Tile& receiver, int queue) {
  check_queue_args(receiver.id(), queue);
  Queue& q = queue_at(receiver.id(), queue);
  UdnPacket pkt;
  {
    // No wait bracket: the tag-matching caller reports one per receive.
    std::unique_lock lk(q.mu);
    guarded_host_wait(
        *device_, lk, q.cv_data, receiver.id(), "udn recv",
        [&] { return q.words() != 0; }, [&] { return !q.packets.empty(); });
    pkt = q.pop();
  }
  q.cv_space.notify_all();
  verify_checksum(pkt, receiver.id());
  return pkt;
}

std::optional<UdnPacket> UdnFabric::try_recv(Tile& receiver, int queue) {
  check_queue_args(receiver.id(), queue);
  Queue& q = queue_at(receiver.id(), queue);
  UdnPacket pkt;
  {
    std::scoped_lock lk(q.mu);
    if (q.packets.empty()) return std::nullopt;
    pkt = q.pop();
  }
  q.cv_space.notify_all();
  verify_checksum(pkt, receiver.id());
  tilesim::probe_wait_edge(receiver, pkt.src_tile,
                           tilesim::ProbeKind::kUdnRecv, "udn_recv",
                           receiver.clock().now(), pkt.arrival_ps);
  receiver.clock().advance_to(pkt.arrival_ps);
  receiver.clock().advance(device_->config().udn_rx_overhead_ps);
  return pkt;
}

std::size_t UdnFabric::queued_words(int tile, int queue) const {
  check_queue_args(tile, queue);
  return queue_at(tile, queue).words();
}

}  // namespace tmc
