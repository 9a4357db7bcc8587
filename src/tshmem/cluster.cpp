#include "tshmem/cluster.hpp"

#include <cstring>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "sim/rendezvous.hpp"

namespace tshmem {

namespace {

// Classification tags for the leader-protocol packets. Each traffic class
// gets its OWN notification ring: recv() is FIFO-any-tag within a ring, and
// packets from different senders have no cross-device ordering guarantee —
// on one ring, a fast leader's broadcast data can overtake another leader's
// still-unsent barrier release and be consumed as it (observed as a rare
// ThreeDeviceBroadcastFromMiddleDevice failure under host load).
constexpr std::uint32_t kTagBarrier = 0x7001;
constexpr std::uint32_t kTagBarrierRelease = 0x7002;
constexpr std::uint32_t kTagBcastData = 0x7003;
constexpr int kBarrierRing = 0;  ///< gather tokens at device 0's leader
constexpr int kReleaseRing = 1;  ///< device 0's releases to other leaders
constexpr int kBcastRing = 2;    ///< broadcast data chunks

}  // namespace

Cluster::Cluster(const DeviceConfig& cfg, ClusterOptions opts,
                 int num_devices)
    : opts_(opts), num_devices_(num_devices) {
  if (!cfg.has_mpipe) {
    throw std::invalid_argument(
        "cluster expansion requires mPIPE (TILE-Gx only, paper SVI)");
  }
  if (num_devices < 2) {
    throw std::invalid_argument("a cluster needs at least two devices");
  }
  for (int d = 0; d < num_devices_; ++d) {
    runtimes_.push_back(std::make_unique<Runtime>(cfg, opts_.runtime));
    engines_.push_back(std::make_unique<tmc::MpipeEngine>(
        runtimes_.back()->device(), d, opts_.mpipe));
    engines_.back()->add_rule(kTagBarrier, kBarrierRing);
    engines_.back()->add_rule(kTagBarrierRelease, kReleaseRing);
    engines_.back()->add_rule(kTagBcastData, kBcastRing);
  }
  // Full mesh: one link per device pair.
  for (int a = 0; a < num_devices_; ++a) {
    for (int b = a + 1; b < num_devices_; ++b) {
      links_.push_back(std::make_unique<tmc::MpipeLink>(
          *engines_[static_cast<std::size_t>(a)],
          *engines_[static_cast<std::size_t>(b)]));
    }
  }
}

Cluster::~Cluster() = default;

Runtime& Cluster::runtime(int device) {
  if (device < 0 || device >= num_devices_) {
    throw std::out_of_range("cluster device index");
  }
  return *runtimes_[static_cast<std::size_t>(device)];
}

tmc::MpipeEngine& Cluster::mpipe(int device) {
  if (device < 0 || device >= num_devices_) {
    throw std::out_of_range("cluster device index");
  }
  return *engines_[static_cast<std::size_t>(device)];
}

void Cluster::run_shard(int device, int pes,
                        const std::function<void(Context&)>& fn) {
  runtime(device).run(pes, fn);
}

void Cluster::run(int pes_per_device,
                  const std::function<void(ClusterContext&)>& fn) {
  pes_per_dev_ = pes_per_device;
  // Harness gates over every PE cluster-wide (member d * pes_per_device +
  // pe), at zero virtual cost: all devices' partitions must exist before
  // any PE touches a remote one, and stay alive until every PE is done
  // issuing cross-device operations.
  const int members = num_devices_ * pes_per_device;
  tilesim::Rendezvous started(members, "cluster start",
                              tilesim::RendezvousReport::kNone);
  tilesim::Rendezvous finished(members, "cluster finish",
                               tilesim::RendezvousReport::kNone);
  auto leave = [&](int member) {
    started.drop(member);
    finished.drop(member);
  };
  std::exception_ptr first_error;
  std::mutex error_mu;

  std::vector<std::thread> device_threads;
  device_threads.reserve(static_cast<std::size_t>(num_devices_));
  for (int d = 0; d < num_devices_; ++d) {
    device_threads.emplace_back([&, d] {
      try {
        runtimes_[static_cast<std::size_t>(d)]->run(
            pes_per_device, [&, d](Context& ctx) {
              const int member = d * pes_per_device + ctx.my_pe();
              // A PE that throws leaves both gates, so its peers (and the
              // other devices) are not left waiting for it.
              try {
                started.arrive(ctx.tile(), member);
                ClusterContext cctx(*this, d, ctx);
                fn(cctx);
                finished.arrive(ctx.tile(), member);
              } catch (...) {
                leave(member);
                throw;
              }
            });
      } catch (...) {
        {
          std::scoped_lock lk(error_mu);
          if (!first_error) first_error = std::current_exception();
        }
        // A device whose job never started still owes its PEs' departures.
        // Dropping a PE that already left, or from a gate that already
        // opened, changes nothing.
        for (int pe = 0; pe < pes_per_device; ++pe) {
          leave(d * pes_per_device + pe);
        }
      }
    });
  }
  for (auto& t : device_threads) t.join();
  pes_per_dev_ = 0;
  if (first_error) std::rethrow_exception(first_error);
}

ClusterContext::ClusterContext(Cluster& cluster, int device_index,
                               Context& local)
    : cluster_(&cluster), device_(device_index), local_(&local) {}

void* ClusterContext::cross_device_addr(const void* my_sym,
                                        int global_pe) const {
  if (local_->classify(my_sym) != AddrClass::kDynamic) {
    throw std::invalid_argument(
        "cross-device transfers require dynamic symmetric objects (the "
        "mPIPE eDMA addresses shared memory only)");
  }
  Runtime& remote_rt = cluster_->runtime(device_of(global_pe));
  const auto* b = static_cast<const std::byte*>(my_sym);
  const std::size_t offset = static_cast<std::size_t>(
      b - static_cast<const std::byte*>(
              local_->runtime().partition_base(local_->my_pe())));
  return remote_rt.partition_base(local_pe_of(global_pe)) + offset;
}

void ClusterContext::put(void* target, const void* source, std::size_t bytes,
                         int global_pe) {
  if (global_pe < 0 || global_pe >= global_npes()) {
    throw std::out_of_range("cluster put: global PE out of range");
  }
  if (device_of(global_pe) == device_) {
    local_->put(target, source, bytes, local_pe_of(global_pe));
    return;
  }
  if (bytes == 0) return;
  void* remote = cross_device_addr(target, global_pe);
  tmc::MpipeEngine& engine = cluster_->mpipe(device_);
  // The eDMA streams the payload onto the wire; the iDMA on the remote
  // engine writes it into the (hash-for-home) shared segment. The put
  // completes locally once the last byte is serialized + lands.
  local_->tile().clock().advance(
      local_->runtime().config().shmem_call_overhead_ps);
  local_->tile().clock().advance(engine.one_way_ps(bytes));
  // Delivery time before the data, so a poller that sees the data also
  // sees when it landed.
  cluster_->runtime(device_of(global_pe))
      .note_delivery(local_pe_of(global_pe),
                     local_->tile().clock().now());
  std::memcpy(remote, source, bytes);
}

void ClusterContext::get(void* target, const void* source, std::size_t bytes,
                         int global_pe) {
  if (global_pe < 0 || global_pe >= global_npes()) {
    throw std::out_of_range("cluster get: global PE out of range");
  }
  if (device_of(global_pe) == device_) {
    local_->get(target, source, bytes, local_pe_of(global_pe));
    return;
  }
  if (bytes == 0) return;
  const void* remote = cross_device_addr(source, global_pe);
  tmc::MpipeEngine& engine = cluster_->mpipe(device_);
  tmc::MpipeEngine& remote_engine = cluster_->mpipe(device_of(global_pe));
  local_->tile().clock().advance(
      local_->runtime().config().shmem_call_overhead_ps);
  std::memcpy(target, remote, bytes);
  // Round trip: a small read request out, the data back.
  local_->tile().clock().advance(engine.one_way_ps(64) +
                                 remote_engine.one_way_ps(bytes));
}

void ClusterContext::barrier_all() {
  const std::uint32_t seq = barrier_seq_++;
  local_->barrier_all();
  if (local_->my_pe() == 0) {
    tmc::MpipeEngine& engine = cluster_->mpipe(device_);
    tmc::MpipePacket token;
    token.l2_tag = kTagBarrier;
    token.flow_hash = seq;
    token.payload.resize(8);
    if (device_ == 0) {
      // Device 0's leader collects every other leader's token, then
      // releases them.
      for (int d = 1; d < cluster_->num_devices(); ++d) {
        (void)engine.recv(local_->tile(), kBarrierRing);
      }
      tmc::MpipePacket release = token;
      release.l2_tag = kTagBarrierRelease;
      for (int d = 1; d < cluster_->num_devices(); ++d) {
        engine.egress(local_->tile(), d, release);
      }
    } else {
      engine.egress(local_->tile(), 0, token);
      (void)engine.recv(local_->tile(), kReleaseRing);
    }
  }
  // Second local barrier propagates the leader's release (and its virtual
  // timestamp) to every PE on the device.
  local_->barrier_all();
}

void ClusterContext::broadcast(void* target, const void* source,
                               std::size_t bytes, int root_global_pe) {
  if (root_global_pe < 0 || root_global_pe >= global_npes()) {
    throw std::out_of_range("cluster broadcast: root out of range");
  }
  const std::uint32_t seq = bcast_seq_++;
  const int root_device = device_of(root_global_pe);
  const std::size_t jumbo = cluster_->mpipe(device_).config().max_packet_bytes;

  if (device_ == root_device) {
    // Local broadcast first so the leader holds the data.
    local_->broadcast(target, source, bytes, local_pe_of(root_global_pe),
                      local_->world(), BcastAlgo::kPull);
    if (local_->my_pe() == 0) {
      const auto* data = static_cast<const std::byte*>(
          local_->my_pe() == local_pe_of(root_global_pe) ? source : target);
      tmc::MpipeEngine& engine = cluster_->mpipe(device_);
      for (int d = 0; d < cluster_->num_devices(); ++d) {
        if (d == device_) continue;
        for (std::size_t off = 0; off < bytes; off += jumbo) {
          const std::size_t len = std::min(jumbo, bytes - off);
          tmc::MpipePacket pkt;
          pkt.l2_tag = kTagBcastData;
          pkt.flow_hash = (static_cast<std::uint64_t>(seq) << 32) | off;
          pkt.payload.assign(data + off, data + off + len);
          engine.egress(local_->tile(), d, pkt);
        }
      }
    }
  } else {
    if (local_->my_pe() == 0) {
      tmc::MpipeEngine& engine = cluster_->mpipe(device_);
      auto* out = static_cast<std::byte*>(target);
      for (std::size_t off = 0; off < bytes; off += jumbo) {
        const tmc::MpipePacket pkt = engine.recv(local_->tile(), kBcastRing);
        const std::size_t len = std::min(jumbo, bytes - off);
        if (pkt.payload.size() != len) {
          throw std::runtime_error("cluster broadcast: chunk size mismatch");
        }
        std::memcpy(out + off, pkt.payload.data(), len);
      }
      local_->quiet();
    }
    // Fan out within the device from the leader.
    local_->broadcast(target, target, bytes, 0, local_->world(),
                      BcastAlgo::kPull);
  }
}

}  // namespace tshmem
