#include "compare/msg_passing.hpp"

#include <cstring>
#include <stdexcept>

#include "sim/mem_model.hpp"
#include "sim/probe.hpp"

namespace compare {

namespace {
constexpr int kDataQueue = 0;
constexpr int kAckQueue = 1;
constexpr int kBarrierQueue = 2;
// Library software overhead per MPI-style call (argument checking, request
// bookkeeping, progress-engine pass) — typical shared-memory MPI adds a few
// hundred nanoseconds per operation on top of the raw transport.
constexpr tilesim::ps_t kCallOverheadPs = 300'000;
}  // namespace

MsgPassing::MsgPassing(Device& device, tmc::CommonMemory& cmem, int ranks,
                       std::size_t max_message_bytes)
    : device_(&device),
      cmem_(&cmem),
      udn_(device),
      ranks_(ranks),
      max_bytes_(max_message_bytes) {
  if (ranks < 1 || ranks > device.tile_count()) {
    throw std::invalid_argument("MsgPassing ranks out of range");
  }
  if (max_message_bytes == 0) {
    throw std::invalid_argument("MsgPassing needs a positive message limit");
  }
  staging_ = static_cast<std::byte*>(
      cmem.map("msg_passing_staging",
               static_cast<std::size_t>(ranks) * ranks * max_bytes_,
               tilesim::Homing::kHashForHome, 0));
  barrier_epoch_.assign(static_cast<std::size_t>(ranks), 0);
  barrier_stash_.resize(static_cast<std::size_t>(ranks));
  data_stash_.resize(static_cast<std::size_t>(ranks));
}

MsgPassing::~MsgPassing() { cmem_->unmap("msg_passing_staging"); }

std::byte* MsgPassing::slot(int src, int dst) const {
  return staging_ +
         (static_cast<std::size_t>(src) * static_cast<std::size_t>(ranks_) +
          static_cast<std::size_t>(dst)) *
             max_bytes_;
}

std::uint64_t MsgPassing::pack_header(int tag, std::size_t bytes) noexcept {
  return (static_cast<std::uint64_t>(tag) << 40) |
         static_cast<std::uint64_t>(bytes);
}

void MsgPassing::send(Tile& self, int dst, int tag,
                      std::span<const std::byte> data) {
  if (dst < 0 || dst >= ranks_) {
    throw std::invalid_argument("MsgPassing send to bad rank");
  }
  if (data.size() > max_bytes_) {
    throw std::length_error("MsgPassing message exceeds the staging slot");
  }
  self.clock().advance(kCallOverheadPs);
  // Copy-in to the staging slot (the first of the two copies a two-sided
  // transfer pays that a one-sided put does not).
  tilesim::CopyRequest req;
  req.bytes = data.size();
  req.src = tilesim::MemSpace::kPrivate;
  req.dst = tilesim::MemSpace::kShared;
  self.charge_copy(req);
  std::memcpy(slot(self.id(), dst), data.data(), data.size());
  udn_.send1(self, dst, kDataQueue, pack_header(tag, data.size()));
  // Rendezvous: wait for the receiver's completion acknowledgment before
  // the staging slot may be reused.
  (void)udn_.recv(self, kAckQueue);
}

std::size_t MsgPassing::recv(Tile& self, int src, int tag,
                             std::span<std::byte> out) {
  if (src < 0 || src >= ranks_) {
    throw std::invalid_argument("MsgPassing recv from bad rank");
  }
  self.clock().advance(kCallOverheadPs);
  // Match (src, tag), stashing notifications from other senders that raced
  // ahead (e.g. reduction-tree children arriving out of program order).
  // One wait bracket per receive, at its entry clock: the number of raw
  // pulls depends on host arrival order.
  const ps_t entry = self.clock().now();
  tilesim::probe_event(self, {tilesim::ProbeKind::kWaitBegin, "udn recv",
                              entry});
  auto& stash = data_stash_[static_cast<std::size_t>(self.id())];
  for (;;) {
    tmc::UdnPacket pkt;
    bool have = false;
    for (std::size_t i = 0; i < stash.size(); ++i) {
      const int stag = static_cast<int>(stash[i].payload[0] >> 40);
      if (stash[i].src_tile == src && stag == tag) {
        pkt = stash[i];
        stash.erase(stash.begin() + static_cast<std::ptrdiff_t>(i));
        have = true;
        break;
      }
    }
    if (!have) {
      // Clock-neutral receive: only the matching notification gates us.
      pkt = udn_.recv_raw(self, kDataQueue);
      const int msg_tag = static_cast<int>(pkt.payload[0] >> 40);
      if (pkt.src_tile != src || msg_tag != tag) {
        stash.push_back(pkt);
        continue;
      }
    }
    tilesim::probe_event(self,
                         {tilesim::ProbeKind::kWaitEnd, "udn recv", entry});
    self.clock().advance_to(pkt.arrival_ps);
    const auto bytes =
        static_cast<std::size_t>(pkt.payload[0] & 0xffffffffffull);
    if (bytes > out.size()) {
      // Truncation: the message is consumed and dropped (MPI_ERR_TRUNCATE
      // semantics); the sender must still be released from its rendezvous.
      udn_.send1(self, src, kAckQueue, 0);
      throw std::length_error("MsgPassing recv buffer too small");
    }
    tilesim::CopyRequest req;
    req.bytes = bytes;
    req.src = tilesim::MemSpace::kShared;
    req.dst = tilesim::MemSpace::kPrivate;
    self.charge_copy(req);
    std::memcpy(out.data(), slot(src, self.id()), bytes);
    udn_.send1(self, src, kAckQueue, 1);
    return bytes;
  }
}

void MsgPassing::bcast(Tile& self, int root, std::span<std::byte> data) {
  const int n = ranks_;
  const int rel = (self.id() - root + n) % n;
  if (rel != 0) {
    // Parent in the binomial tree: a node at relative rank r is reached in
    // the round whose span is r's highest set bit, sent by r - bit_floor(r).
    int floor = 1;
    while (floor * 2 <= rel) floor *= 2;
    const int parent = (root + (rel - floor)) % n;
    (void)recv(self, parent, /*tag=*/0x42, data);
  }
  for (int span = 1; span < n; span <<= 1) {
    if (rel < span && rel + span < n) {
      send(self, (root + rel + span) % n, /*tag=*/0x42, data);
    }
  }
}

void MsgPassing::reduce_sum(Tile& self, int root, std::span<long> values) {
  const int n = ranks_;
  const int rel = (self.id() - root + n) % n;
  std::vector<long> incoming(values.size());
  auto* bytes = reinterpret_cast<std::byte*>(values.data());
  const std::size_t len = values.size() * sizeof(long);
  for (int span = 1; span < n; span <<= 1) {
    if (rel % (span << 1) == span) {
      send(self, (root + rel - span) % n, /*tag=*/0x43,
           std::span<const std::byte>(bytes, len));
      return;  // contributed up the tree; done
    }
    if (rel % (span << 1) == 0 && rel + span < n) {
      (void)recv(self, (root + rel + span) % n, /*tag=*/0x43,
                 std::span<std::byte>(
                     reinterpret_cast<std::byte*>(incoming.data()), len));
      for (std::size_t i = 0; i < values.size(); ++i) {
        values[i] += incoming[i];
      }
      self.charge_int_ops(values.size() * 3);
    }
  }
}

void MsgPassing::barrier(Tile& self) {
  // Dissemination barrier: ceil(log2 n) rounds of token exchange. Tokens
  // carry (epoch, round) so a fast neighbor's next-barrier token cannot
  // release this barrier early.
  const int n = ranks_;
  const auto me = static_cast<std::size_t>(self.id());
  const std::uint32_t epoch = barrier_epoch_[me]++;
  int round = 0;
  for (int span = 1; span < n; span <<= 1, ++round) {
    self.clock().advance(kCallOverheadPs);
    const std::uint64_t token =
        (static_cast<std::uint64_t>(epoch) << 8) |
        static_cast<std::uint64_t>(round);
    udn_.send1(self, (self.id() + span) % n, kBarrierQueue, token);
    // Wait for this round's token, stashing any that belong to later
    // rounds/epochs (earlier ones are protocol errors). Stashed tokens do
    // not advance the clock — only the matching round's token gates — and
    // the round reports one wait bracket at its entry clock.
    const ps_t entry = self.clock().now();
    tilesim::probe_event(self, {tilesim::ProbeKind::kWaitBegin, "udn recv",
                                entry});
    bool matched = false;
    ps_t arrival = 0;
    auto& stash = barrier_stash_[me];
    for (std::size_t i = 0; i < stash.size(); ++i) {
      if (stash[i].first == token) {
        arrival = stash[i].second;
        stash.erase(stash.begin() + static_cast<std::ptrdiff_t>(i));
        matched = true;
        break;
      }
    }
    while (!matched) {
      const tmc::UdnPacket pkt = udn_.recv_raw(self, kBarrierQueue);
      if (pkt.payload[0] == token) {
        arrival = pkt.arrival_ps;
        matched = true;
      } else {
        stash.emplace_back(pkt.payload[0], pkt.arrival_ps);
      }
    }
    tilesim::probe_event(self,
                         {tilesim::ProbeKind::kWaitEnd, "udn recv", entry});
    self.clock().advance_to(arrival);
  }
}

}  // namespace compare
