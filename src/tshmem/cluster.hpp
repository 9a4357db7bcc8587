// Multi-device TSHMEM over mPIPE (the paper's §VI future work: "we plan to
// leverage novel architectural features of the TILE-Gx such as the mPIPE
// packet engine as we explore designs for expanding the shared-memory
// abstraction in TSHMEM across multiple many-core devices").
//
// A Cluster runs one TSHMEM job per device and links the devices with a
// 10GbE-class mPIPE path. The global PE space concatenates the per-device
// PE spaces; symmetric-heap offsets are cluster-wide symmetric because all
// PEs execute the same allocation sequence. Cross-device one-sided
// transfers ride the mPIPE eDMA/iDMA path (link serialization + ingress
// pipeline costs); cluster barriers and broadcasts use a hierarchical
// design — local UDN collective + leader exchange over mPIPE notification
// rings.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "tmc/mpipe.hpp"
#include "tshmem/context.hpp"
#include "tshmem/runtime.hpp"

namespace tshmem {

struct ClusterOptions {
  RuntimeOptions runtime;
  tmc::MpipeConfig mpipe;
};

class ClusterContext;

/// `num_devices` identical TILE-Gx devices joined pairwise by full-duplex
/// mPIPE links (a full mesh: every device can reach every other in one
/// hop).
class Cluster {
 public:
  explicit Cluster(const DeviceConfig& cfg, ClusterOptions opts = {},
                   int num_devices = 2);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Runs `fn` as an SPMD job over num_devices * pes_per_device global PEs.
  void run(int pes_per_device,
           const std::function<void(ClusterContext&)>& fn);

  /// Runs `fn` as an SPMD job on ONE device's runtime — the serving layer's
  /// per-shard job hook (one device = one shard; src/svc, docs/SERVING.md).
  /// The job sees a plain single-device Context; cluster links are idle.
  void run_shard(int device, int pes,
                 const std::function<void(Context&)>& fn);

  [[nodiscard]] Runtime& runtime(int device);
  [[nodiscard]] tmc::MpipeEngine& mpipe(int device);
  [[nodiscard]] int num_devices() const noexcept { return num_devices_; }
  [[nodiscard]] int pes_per_device() const noexcept { return pes_per_dev_; }
  [[nodiscard]] int global_npes() const noexcept {
    return num_devices_ * pes_per_dev_;
  }
  [[nodiscard]] const ClusterOptions& options() const noexcept {
    return opts_;
  }

 private:
  ClusterOptions opts_;
  int num_devices_;
  std::vector<std::unique_ptr<Runtime>> runtimes_;
  std::vector<std::unique_ptr<tmc::MpipeEngine>> engines_;
  std::vector<std::unique_ptr<tmc::MpipeLink>> links_;
  int pes_per_dev_ = 0;

  friend class ClusterContext;
};

/// Per-PE view of the cluster job.
class ClusterContext {
 public:
  ClusterContext(Cluster& cluster, int device_index, Context& local);

  [[nodiscard]] Cluster& cluster() noexcept { return *cluster_; }
  [[nodiscard]] Context& local() noexcept { return *local_; }
  [[nodiscard]] int device_index() const noexcept { return device_; }
  [[nodiscard]] int global_pe() const noexcept {
    return device_ * cluster_->pes_per_device() + local_->my_pe();
  }
  [[nodiscard]] int global_npes() const noexcept {
    return cluster_->global_npes();
  }
  [[nodiscard]] int device_of(int global_pe) const {
    return global_pe / cluster_->pes_per_device();
  }
  [[nodiscard]] int local_pe_of(int global_pe) const {
    return global_pe % cluster_->pes_per_device();
  }

  /// One-sided transfers addressing the *global* PE space. Local-device
  /// targets go through the normal TSHMEM path; remote-device targets ride
  /// the mPIPE eDMA/iDMA path. Only dynamic symmetric objects are
  /// cross-device accessible (the eDMA writes shared memory directly).
  void put(void* target, const void* source, std::size_t bytes,
           int global_pe);
  void get(void* target, const void* source, std::size_t bytes,
           int global_pe);

  /// Cluster-wide barrier: local barrier, leader token exchange over
  /// mPIPE, local barrier.
  void barrier_all();

  /// Cluster-wide broadcast from `root_global_pe` (dynamic symmetric
  /// objects): local pull-broadcast on the root device, leader-to-leader
  /// mPIPE transfer, local pull-broadcasts elsewhere.
  void broadcast(void* target, const void* source, std::size_t bytes,
                 int root_global_pe);

 private:
  Cluster* cluster_;
  int device_;
  Context* local_;
  std::uint32_t barrier_seq_ = 0;
  std::uint32_t bcast_seq_ = 0;

  /// Resolve a caller-local dynamic symmetric address on another device.
  [[nodiscard]] void* cross_device_addr(const void* my_sym,
                                        int global_pe) const;
};

}  // namespace tshmem
