#include "tshmem/context.hpp"

#include <algorithm>
#include <cstring>

#include "sim/fault.hpp"
#include "sim/mem_model.hpp"
#include "sim/probe.hpp"
#include "tmc/barrier.hpp"
#include "util/error.hpp"

namespace tshmem {

using tilesim::CopyRequest;
using tilesim::MemSpace;
using tilesim::ProbeKind;

namespace {
/// A control-message receive's one wait bracket, at its entry clock.
constexpr const char* kCtrlRecvWait = "udn recv";
}  // namespace

Context::Context(Runtime& rt, int pe, Tile& tile, std::byte* partition,
                 std::size_t partition_bytes, std::byte* private_arena,
                 std::size_t private_bytes)
    : rt_(&rt),
      pe_(pe),
      tile_(&tile),
      partition_base_(partition),
      partition_bytes_(partition_bytes),
      private_base_(private_arena),
      private_bytes_(private_bytes),
      heap_(partition, partition_bytes) {}

// ===========================================================================
// Address classification & translation (paper §IV-B)
// ===========================================================================

AddrClass Context::classify(const void* p) const noexcept {
  const auto* b = static_cast<const std::byte*>(p);
  if (b >= partition_base_ && b < partition_base_ + partition_bytes_) {
    return AddrClass::kDynamic;
  }
  if (b >= private_base_ && b < private_base_ + private_bytes_) {
    return AddrClass::kStatic;
  }
  return AddrClass::kOther;
}

void* Context::remote_addr(const void* my_sym, int pe) const {
  if (pe < 0 || pe >= num_pes()) {
    throw std::out_of_range("remote_addr: PE out of range");
  }
  const auto* b = static_cast<const std::byte*>(my_sym);
  switch (classify(my_sym)) {
    case AddrClass::kDynamic: {
      // Offset from my partition base + target partition base (§IV-B1).
      const std::size_t offset =
          static_cast<std::size_t>(b - partition_base_);
      return rt_->partition_base(pe) + offset;
    }
    case AddrClass::kStatic: {
      const std::size_t offset = static_cast<std::size_t>(b - private_base_);
      return rt_->private_base(pe) + offset;
    }
    case AddrClass::kOther:
      throw std::invalid_argument(
          "remote_addr: address is not a symmetric object");
  }
  return nullptr;
}

void* Context::ptr(const void* target, int pe) const {
  if (pe < 0 || pe >= num_pes()) return nullptr;
  // Only dynamic symmetric objects are directly addressable across PEs:
  // static objects live in another process's private memory on hardware.
  if (classify(target) != AddrClass::kDynamic) return nullptr;
  return remote_addr(target, pe);
}

bool Context::pe_accessible(int pe) const noexcept {
  return pe >= 0 && pe < num_pes();
}

bool Context::addr_accessible(const void* addr, int pe) const noexcept {
  if (!pe_accessible(pe)) return false;
  return classify(addr) != AddrClass::kOther;
}

// ===========================================================================
// Symmetric memory (paper §IV-A)
// ===========================================================================

void* Context::shmalloc(std::size_t bytes) {
  // All PEs call with the same size at the same point, keeping the heaps
  // implicitly symmetric; the implicit barrier enforces the rendezvous.
  rt_->note_op(pe_, "shmalloc");
  tile_->charge_calls(1);
  if (rt_->options().validate_symmetry) {
    rt_->check_symmetric_arg(pe_, bytes, "shmalloc(size)");
  }
  void* p = heap_.alloc(bytes);
  note_heap_denial(p, bytes);
  tilesim::probe_event(
      *tile_, {ProbeKind::kAlloc, "shmalloc", tile_->clock().now(), -1, bytes});
  barrier_all();
  return p;
}

void Context::note_heap_denial(const void* p, std::size_t bytes) {
  // Injected heap pressure (FaultPlan::heap_cap_bytes): the denial itself is
  // the heap's deterministic threshold check — symmetric across PEs — but it
  // must land in the replayable event log and the fault.heap_cap counter.
  if (p != nullptr || bytes == 0) return;
  if (!heap_.cap_would_deny(bytes)) return;
  if (tilesim::FaultEngine* fault = tile_->device().fault();
      fault != nullptr) {
    fault->note_heap_cap_denial(pe_, tile_->clock().now());
  }
}

void Context::shfree(void* p) {
  rt_->note_op(pe_, "shfree");
  tile_->charge_calls(1);
  if (rt_->options().validate_symmetry) {
    const std::uint64_t offset =
        p == nullptr ? ~0ull
                     : static_cast<std::uint64_t>(
                           static_cast<const std::byte*>(p) - partition_base_);
    rt_->check_symmetric_arg(pe_, offset, "shfree(offset)");
  }
  try {
    if (race_ != nullptr && p != nullptr) {
      // Forget shadow state for the block: a recycled allocation must not
      // inherit stale epochs from its previous life.
      race_->on_heap_free(p, heap_.allocation_size(p));
    }
    heap_.free(p);
  } catch (const std::invalid_argument& e) {
    // Foreign or corrupted pointer: surface the structured error instead of
    // the heap's internal exception. No barrier on the error path — peers
    // freeing a valid pointer proceed; the watchdog catches a PE that then
    // waits on this one.
    throw Error(Errc::kForeignFree,
                "shfree on PE " + std::to_string(pe_) + ": " + e.what());
  }
  tilesim::probe_event(*tile_,
                       {ProbeKind::kFree, "shfree", tile_->clock().now()});
  barrier_all();
}

void* Context::shrealloc(void* p, std::size_t bytes) {
  rt_->note_op(pe_, "shrealloc");
  tile_->charge_calls(1);
  if (race_ != nullptr && p != nullptr) {
    race_->on_heap_free(p, heap_.allocation_size(p));
  }
  void* out = heap_.realloc(p, bytes);
  tilesim::probe_event(*tile_, {ProbeKind::kAlloc, "shrealloc",
                                tile_->clock().now(), -1, bytes});
  barrier_all();
  return out;
}

void* Context::shmemalign(std::size_t alignment, std::size_t bytes) {
  rt_->note_op(pe_, "shmemalign");
  tile_->charge_calls(1);
  void* p = heap_.memalign(alignment, bytes);
  note_heap_denial(p, bytes);
  tilesim::probe_event(*tile_, {ProbeKind::kAlloc, "shmemalign",
                                tile_->clock().now(), -1, bytes});
  barrier_all();
  return p;
}

// ===========================================================================
// Data movement engine (paper §IV-B)
// ===========================================================================

void Context::do_memcpy_visible(void* dst, const void* src,
                                std::size_t bytes) {
  // Elemental-size stores are made atomic so shmem_wait pollers never see
  // torn values; larger copies use plain memcpy.
  const auto addr = reinterpret_cast<std::uintptr_t>(dst);
  switch (bytes) {
    case 4:
      if (addr % 4 == 0) {
        std::uint32_t v;
        std::memcpy(&v, src, 4);
        std::atomic_ref<std::uint32_t>(*static_cast<std::uint32_t*>(dst))
            .store(v, std::memory_order_release);
        return;
      }
      break;
    case 8:
      if (addr % 8 == 0) {
        std::uint64_t v;
        std::memcpy(&v, src, 8);
        std::atomic_ref<std::uint64_t>(*static_cast<std::uint64_t*>(dst))
            .store(v, std::memory_order_release);
        return;
      }
      break;
    default:
      break;
  }
  std::memcpy(dst, src, bytes);
  std::atomic_thread_fence(std::memory_order_release);
}

void Context::charge_local_copy(std::size_t bytes, MemSpace dst, MemSpace src,
                                CopyHints hints) {
  CopyRequest req;
  req.bytes = bytes;
  req.src = src;
  req.dst = dst;
  req.homing = tilesim::Homing::kHashForHome;
  req.concurrent_readers = hints.readers;
  req.concurrent_writers = hints.writers;
  tile_->charge_copy(req);
}

void Context::validate_transfer(const void* target, const void* source,
                                std::size_t bytes, int pe, bool is_put,
                                const char* what) const {
  auto where = [&](const char* detail) {
    return std::string(what) + " on PE " + std::to_string(pe_) + ": " +
           detail;
  };
  if (pe < 0 || pe >= num_pes()) {
    throw Error(Errc::kInvalidPe,
                where("remote PE ") + std::to_string(pe) +
                    " outside [0, " + std::to_string(num_pes()) + ")");
  }
  const void* remote = is_put ? target : source;
  const AddrClass remote_cls = classify(remote);
  if (remote_cls == AddrClass::kOther) {
    throw Error(Errc::kNotSymmetric,
                where(is_put ? "target is not a symmetric object"
                             : "source is not a symmetric object"));
  }
  if (bytes == 0) return;
  const auto* rb = static_cast<const std::byte*>(remote);
  if (remote_cls == AddrClass::kStatic) {
    if (!rt_->statics().contains_range(
            static_cast<std::size_t>(rb - private_base_), bytes)) {
      throw Error(Errc::kOutOfBounds,
                  where("transfer of ") + std::to_string(bytes) +
                      " bytes is not contained in one registered static "
                      "symmetric object");
    }
  } else if (!heap_.contains_range(remote, bytes)) {
    throw Error(Errc::kOutOfBounds,
                where("transfer of ") + std::to_string(bytes) +
                    " bytes is not contained in one live symmetric-heap "
                    "allocation");
  }
}

void Context::transfer(void* target, const void* source, std::size_t bytes,
                       int pe, bool is_put, CopyHints hints) {
  rt_->note_op(pe_, is_put ? "shmem_put" : "shmem_get");
  if (rt_->debug_validation()) {
    validate_transfer(target, source, bytes, pe, is_put,
                      is_put ? "shmem put" : "shmem get");
  }
  if (pe < 0 || pe >= num_pes()) {
    throw std::out_of_range("put/get: PE out of range");
  }
  const tilesim::ProbeSpan probe(
      *tile_, is_put ? ProbeKind::kPut : ProbeKind::kGet,
      is_put ? "shmem_put" : "shmem_get");
  tile_->clock().advance(rt_->config().shmem_call_overhead_ps);
  // One event per call at issue time, regardless of which servicing path
  // (local copy / interrupt / bounce) the transfer takes below.
  probe.event(tile_->clock().now(), pe, bytes);
  if (bytes == 0) return;

  // `target` is the destination *on PE pe* for puts / locally for gets;
  // `source` is local for puts / on PE pe for gets. Classification always
  // happens with the caller's own addresses (SHMEM symmetric semantics).
  const AddrClass remote_cls = classify(is_put ? target : source);
  const AddrClass local_cls = classify(is_put ? source : target);

  if (remote_cls == AddrClass::kOther) {
    throw std::invalid_argument(
        is_put ? "shmem put: target is not a symmetric object"
               : "shmem get: source is not a symmetric object");
  }

  if (race_ != nullptr) {
    // tshmem-check: record both sides before the copy (non-symmetric local
    // sides are ignored by the detector). Elemental puts also publish a
    // release clock on the target granule, pairing with shmem_wait_until.
    const char* site = is_put ? "shmem_put" : "shmem_get";
    const std::uint64_t vt = tile_->clock().now();
    if (is_put) {
      void* rem = remote_addr(target, pe);
      race_->on_access(pe_, false, analysis::AccessKind::kRead, source,
                       bytes, site, vt);
      race_->on_access(pe_, false, analysis::AccessKind::kWrite, rem, bytes,
                       site, vt);
      if (bytes == 4 || bytes == 8) race_->on_release(pe_, rem);
    } else {
      race_->on_access(pe_, false, analysis::AccessKind::kRead,
                       remote_addr(source, pe), bytes, site, vt);
      race_->on_access(pe_, false, analysis::AccessKind::kWrite, target,
                       bytes, site, vt);
    }
  }

  const bool remote_is_dynamic = remote_cls == AddrClass::kDynamic;
  const bool local_is_dynamic = local_cls == AddrClass::kDynamic;

  auto space_of = [](AddrClass c) {
    return c == AddrClass::kDynamic ? MemSpace::kShared : MemSpace::kPrivate;
  };

  if (pe == pe_ || remote_is_dynamic) {
    // The local tile can service the whole operation itself: the remote
    // side of the transfer is directly addressable (dynamic symmetric), or
    // the "remote" PE is us (§IV-B1 and the dynamic-* rows of Fig 7).
    void* dst = is_put ? remote_addr(target, pe) : target;
    const void* src =
        is_put ? source
               : static_cast<const void*>(remote_addr(source, pe));
    const MemSpace dst_space =
        is_put ? space_of(remote_cls) : space_of(local_cls);
    const MemSpace src_space =
        is_put ? space_of(local_cls) : space_of(remote_cls);
    charge_local_copy(bytes, dst_space, src_space, hints);
    // Publish the delivery time before the data: a shmem_wait_until poller
    // that sees the data must also see the time it landed.
    if (is_put && pe != pe_) {
      rt_->note_delivery(pe, tile_->clock().now());
    }
    do_memcpy_visible(dst, src, bytes);
    return;
  }

  // Remote side is a static symmetric object on another PE: the local tile
  // cannot touch it. The remote tile must service the operation via a UDN
  // interrupt (§IV-B2) — unsupported on the TILEPro.
  if (local_is_dynamic) {
    // One side is dynamic: the interrupted remote tile services the request
    // with a single copy (static-dynamic put / dynamic-static get paths;
    // "minor performance degradation").
    void* dst = is_put ? remote_addr(target, pe) : target;
    const void* src =
        is_put ? source
               : static_cast<const void*>(remote_addr(source, pe));
    rt_->interrupts().raise(*tile_, pe, [&](Tile& remote) {
      CopyRequest req;
      req.bytes = bytes;
      req.src = is_put ? MemSpace::kShared : MemSpace::kPrivate;
      req.dst = is_put ? MemSpace::kPrivate : MemSpace::kShared;
      req.homing = tilesim::Homing::kHashForHome;
      req.concurrent_readers = hints.readers;
      req.concurrent_writers = hints.writers;
      remote.charge_copy(req);
      // The handler's clock now equals the requester's once raise()
      // returns: publish it before the data, as on the direct path.
      if (is_put) rt_->note_delivery(pe, remote.clock().now());
      do_memcpy_visible(dst, src, bytes);
    });
    // Wait: for a put with a *dynamic local source*, the local source is in
    // shared memory, so the remote can read it directly — handled above.
    return;
  }

  // Both sides are static (or local non-symmetric with a static remote):
  // neither tile can address the other's private memory directly, so a
  // temporary shared bounce buffer bridges the transfer at the cost of an
  // extra copy (§IV-B2: "major performance penalty ... static-static").
  tile_->clock().advance(rt_->config().bounce_alloc_ps);
  void* bounce = rt_->alloc_bounce(bytes, pe_);
  if (is_put) {
    // Local: private source -> shared bounce; remote: bounce -> its static.
    charge_local_copy(bytes, MemSpace::kShared, MemSpace::kPrivate, hints);
    std::memcpy(bounce, source, bytes);
    void* dst = remote_addr(target, pe);
    rt_->interrupts().raise(*tile_, pe, [&](Tile& remote) {
      CopyRequest req;
      req.bytes = bytes;
      req.src = MemSpace::kShared;
      req.dst = MemSpace::kPrivate;
      req.homing = tilesim::Homing::kHashForHome;
      remote.charge_copy(req);
      rt_->note_delivery(pe, remote.clock().now());
      do_memcpy_visible(dst, bounce, bytes);
    });
  } else {
    // Remote: its static source -> shared bounce; local: bounce -> target.
    const void* src = remote_addr(source, pe);
    rt_->interrupts().raise(*tile_, pe, [&](Tile& remote) {
      CopyRequest req;
      req.bytes = bytes;
      req.src = MemSpace::kPrivate;
      req.dst = MemSpace::kShared;
      req.homing = tilesim::Homing::kHashForHome;
      remote.charge_copy(req);
      std::memcpy(bounce, src, bytes);
    });
    charge_local_copy(bytes, MemSpace::kPrivate, MemSpace::kShared, hints);
    do_memcpy_visible(target, bounce, bytes);
  }
}

void Context::put(void* target, const void* source, std::size_t bytes, int pe,
                  CopyHints hints) {
  transfer(target, source, bytes, pe, /*is_put=*/true, hints);
}

void Context::get(void* target, const void* source, std::size_t bytes, int pe,
                  CopyHints hints) {
  transfer(target, source, bytes, pe, /*is_put=*/false, hints);
}

// ===========================================================================
// Non-blocking data movement (sim/dma.hpp; docs/NBI.md)
// ===========================================================================

void Context::transfer_nbi(void* target, const void* source,
                           std::size_t bytes, int pe, bool is_put) {
  rt_->note_op(pe_, is_put ? "shmem_put_nbi" : "shmem_get_nbi");
  if (rt_->debug_validation()) {
    validate_transfer(target, source, bytes, pe, is_put,
                      is_put ? "shmem put_nbi" : "shmem get_nbi");
  }
  if (pe < 0 || pe >= num_pes()) {
    throw std::out_of_range("put/get nbi: PE out of range");
  }
  const AddrClass remote_cls = classify(is_put ? target : source);
  if (remote_cls == AddrClass::kOther) {
    throw std::invalid_argument(
        is_put ? "shmem put_nbi: target is not a symmetric object"
               : "shmem get_nbi: source is not a symmetric object");
  }
  if (pe != pe_ && remote_cls != AddrClass::kDynamic) {
    // The remote side is a static symmetric object: only the remote tile's
    // interrupt handler can touch it, so the DMA engine cannot service the
    // descriptor. Complete synchronously — a blocking transfer is a valid
    // NBI implementation — and never enqueue (counts as a blocking op in
    // the metrics; see docs/NBI.md).
    transfer(target, source, bytes, pe, is_put, {});
    return;
  }
  const tilesim::ProbeSpan probe(
      *tile_, is_put ? ProbeKind::kPutNbi : ProbeKind::kGetNbi,
      is_put ? "shmem_put_nbi" : "shmem_get_nbi");
  const AddrClass local_cls = classify(is_put ? source : target);
  tile_->clock().advance(rt_->config().shmem_call_overhead_ps +
                         rt_->config().dma_issue_ps);
  if (bytes == 0) return;

  tilesim::FaultEngine* fault = tile_->device().fault();
  if (fault != nullptr &&
      fault->dma_desc_fails(pe_, tile_->clock().now())) {
    // Injected descriptor-post failure: degrade gracefully to a blocking
    // transfer (a valid NBI implementation) instead of losing the data.
    // The fault log's entry is the recovery.nbi.sync_fallbacks count.
    transfer(target, source, bytes, pe, is_put, {});
    return;
  }

  auto space_of = [](AddrClass c) {
    return c == AddrClass::kDynamic ? MemSpace::kShared : MemSpace::kPrivate;
  };
  void* dst = is_put ? remote_addr(target, pe) : target;
  const void* src =
      is_put ? source : static_cast<const void*>(remote_addr(source, pe));
  CopyRequest req;
  req.bytes = bytes;
  req.src = is_put ? space_of(local_cls) : space_of(remote_cls);
  req.dst = is_put ? space_of(remote_cls) : space_of(local_cls);
  req.homing = tilesim::Homing::kHashForHome;
  const ps_t cost = tile_->device().mem_model().copy_cost_ps(req);

  const ps_t stall_ps =
      fault != nullptr ? fault->dma_stall(pe_, tile_->clock().now()) : 0;
  const tilesim::DmaDescriptor d = tile_->dma().issue(
      pe, is_put, bytes, tile_->clock().now(), cost, stall_ps);
  tilesim::probe_event(*tile_, {ProbeKind::kDmaIssue,
                                is_put ? "dma_put" : "dma_get", d.issue_ps, pe,
                                bytes, 0, d.start_ps, d.complete_ps});
  // The host-side copy happens eagerly; virtual time defers delivery to the
  // descriptor's completion timestamp (the same host-eager/virtual-deferred
  // split every blocking path already relies on).
  if (is_put && pe != pe_) rt_->note_delivery(pe, d.complete_ps);
  do_memcpy_visible(dst, src, bytes);
  if (race_ != nullptr) {
    // The DMA pseudo-actor performs the transfer: unordered with this PE's
    // subsequent program until shmem_quiet joins the engine back.
    race_->on_nbi_issue(pe_, src, dst, bytes,
                        is_put ? "shmem_put_nbi" : "shmem_get_nbi",
                        d.start_ps, d.complete_ps);
  }
  probe.event(tile_->clock().now(), pe, bytes);
}

void Context::put_nbi(void* target, const void* source, std::size_t bytes,
                      int pe) {
  transfer_nbi(target, source, bytes, pe, /*is_put=*/true);
}

void Context::get_nbi(void* target, const void* source, std::size_t bytes,
                      int pe) {
  transfer_nbi(target, source, bytes, pe, /*is_put=*/false);
}

// ===========================================================================
// Fence / quiet (paper §IV-C2, extended for the DMA queue)
// ===========================================================================

void Context::quiet() {
  rt_->note_op(pe_, "shmem_quiet");
  const tilesim::ProbeSpan probe(*tile_, ProbeKind::kQuiet, "shmem_quiet");
  tilesim::DmaEngine& dma = tile_->dma();
  if (dma.pending() != 0) {
    const ps_t before = tile_->clock().now();
    const tilesim::DmaEngine::DrainResult drained = dma.drain_all();
    // `bytes` carries the retired-descriptor count.
    tilesim::probe_event(*tile_, {ProbeKind::kDmaDrain, "dma_drain",
                                  drained.max_complete_ps, -1,
                                  drained.retired});
    tile_->clock().advance_to(drained.max_complete_ps);
    // The engine is this PE's own DMA pseudo-actor, so the wait edge points
    // at ourselves: the bound is our earlier issue stream, not another PE.
    tilesim::probe_wait_edge(*tile_, pe_, ProbeKind::kDmaDrain,
                             "dma_drain", before, drained.max_complete_ps);
  }
  // tmc_mem_fence(): blocks until all memory stores are visible. With an
  // empty DMA queue this is the whole operation — the pre-NBI behavior,
  // bit-identical with the paper's figures.
  tmc::mem_fence(*tile_);
  if (race_ != nullptr) race_->on_quiet(pe_);
  probe.event(tile_->clock().now());
}

void Context::fence() {
  const tilesim::ProbeSpan probe(*tile_, ProbeKind::kFence, "shmem_fence");
  if (tile_->dma().pending() == 0) {
    // §IV-C2: with nothing in flight shmem_fence() stays an alias of
    // shmem_quiet(), keeping existing figure results bit-identical.
    quiet();
    return;
  }
  // Per-destination ordering only: the single-channel DMA engine retires
  // descriptors in issue order, so delivery to any one PE is already FIFO.
  // A fence therefore drains the CPU store buffer but NOT the engine — the
  // clock never jumps to a completion timestamp here.
  tmc::mem_fence(*tile_);
  probe.event(tile_->clock().now());
}

// ===========================================================================
// Control messaging
// ===========================================================================

void Context::send_ctrl(int dst_pe, int queue, const CtrlMsg& msg) {
  if (race_ != nullptr) {
    race_->on_ctrl_send(pe_, dst_pe, queue, static_cast<int>(msg.tag));
  }
  const std::uint64_t words[kCtrlMsgWords] = {msg.word0(), msg.aux};
  rt_->udn().send(*tile_, dst_pe, queue, words);
  ctrl_sent(dst_pe);
}

void Context::ctrl_sent(int dst_pe) {
  tilesim::probe_event(*tile_, {ProbeKind::kCtrlSend, "ctrl_send",
                                tile_->clock().now(), dst_pe,
                                kCtrlMsgWords * sizeof(std::uint64_t)});
}

CtrlMsg Context::recv_ctrl(int queue, MsgTag tag, int src_pe,
                           int* actual_src) {
  // The clock advances only when the *matching* message is consumed; a
  // message stashed for later must not drag this PE's clock to its own
  // arrival time (virtual time would then depend on host scheduling).
  // For the same reason the receive reports one wait bracket at its entry
  // clock, stash or fabric alike: how many raw pulls a match takes depends
  // on host arrival order, so recv_raw reports none.
  const tilesim::ps_t wait_begin = tile_->clock().now();
  tilesim::probe_event(*tile_,
                       {ProbeKind::kWaitBegin, kCtrlRecvWait, wait_begin});
  auto consume = [&](int src, tilesim::ps_t arrival) {
    tilesim::probe_event(*tile_,
                         {ProbeKind::kWaitEnd, kCtrlRecvWait, wait_begin});
    if (race_ != nullptr) {
      // Join the clock snapshot of the *matched* message: the tag+FIFO
      // discipline mirrors this function's own stash-or-match logic, so the
      // edge is protocol-determined, not host-schedule-determined.
      race_->on_ctrl_consume(pe_, src, queue, static_cast<int>(tag));
    }
    ctrl_consumed(src, wait_begin, arrival);
  };
  auto& stash = ctrl_stash_[queue];
  for (std::size_t i = 0; i < stash.size(); ++i) {
    if (stash[i].msg.tag == tag &&
        (src_pe < 0 || stash[i].src_pe == src_pe)) {
      const CtrlMsg msg = stash[i].msg;
      if (actual_src != nullptr) *actual_src = stash[i].src_pe;
      consume(stash[i].src_pe, stash[i].arrival_ps);
      stash.erase(stash.begin() + static_cast<std::ptrdiff_t>(i));
      return msg;
    }
  }
  for (;;) {
    tmc::UdnPacket pkt = rt_->udn().recv_raw(*tile_, queue);
    if (pkt.payload.size() != 2) {
      throw std::runtime_error("malformed TSHMEM control message");
    }
    const CtrlMsg msg = CtrlMsg::decode(pkt.payload[0], pkt.payload[1]);
    if (msg.tag == tag && (src_pe < 0 || pkt.src_tile == src_pe)) {
      if (actual_src != nullptr) *actual_src = pkt.src_tile;
      consume(pkt.src_tile, pkt.arrival_ps);
      return msg;
    }
    stash.push_back(StashedCtrl{pkt.src_tile, pkt.arrival_ps, msg});
  }
}

void Context::ctrl_consumed(int src_pe, ps_t wait_begin, ps_t arrival) {
  tile_->clock().advance_to(arrival);
  // No span here on purpose: the wait time must attribute to whatever
  // enclosing phase (barrier/collective) issued the receive; the edge
  // records which PE's send bounded us.
  tilesim::probe_wait_edge(*tile_, src_pe, ProbeKind::kCtrlRecv, "ctrl",
                           wait_begin, arrival);
  // Recorded on *match*, not packet arrival: the tag+FIFO discipline makes
  // this edge protocol-determined even when arrivals race.
  tilesim::probe_event(*tile_, {ProbeKind::kCtrlRecv, "ctrl_recv",
                                tile_->clock().now(), src_pe});
}

// ===========================================================================
// Barriers (paper §IV-C1)
// ===========================================================================

Context::SetState& Context::set_state(const ActiveSet& as) {
  for (SetState& s : sets_) {
    if (s.set == as) return s;
  }
  return sets_.emplace_back(SetState{as});
}

void Context::barrier_all() { barrier(world()); }

void Context::barrier(const ActiveSet& as) { barrier(as, barrier_algo_); }

void Context::barrier(const ActiveSet& as, BarrierAlgo algo) {
  rt_->note_op(pe_, "shmem_barrier");
  if (!as.contains(pe_)) {
    throw std::invalid_argument("barrier: calling PE not in active set");
  }
  const tilesim::ProbeSpan probe(*tile_, ProbeKind::kBarrier, "shmem_barrier");
  const ps_t bar_begin = tile_->clock().now();
  // A barrier also completes outstanding puts (OpenSHMEM semantics).
  quiet();
  if (as.pe_size > 1) {
    SetState& s = set_state(as);
    const std::uint32_t seq = s.barrier_seq++;
    switch (algo) {
      case BarrierAlgo::kLinearToken:
        barrier_linear(as, seq, s);
        break;
      case BarrierAlgo::kBroadcastRelease:
        barrier_broadcast_release(as, seq);
        break;
      case BarrierAlgo::kTmcSpin:
        barrier_tmc_spin(as, s);
        break;
    }
  }
  // bytes carries the barrier's virtual duration (arrival skew + release).
  const ps_t bar_end = tile_->clock().now();
  probe.event(bar_end, -1, static_cast<std::uint64_t>(bar_end - bar_begin));
}

void Context::barrier_linear(const ActiveSet& as, std::uint32_t seq,
                             SetState& s) {
  // The start tile generates a token identifying this barrier instance; a
  // WAIT signal circulates linearly through the active set and back to the
  // start, then a RELEASE signal makes the same loop. Tokens travel on the
  // dedicated barrier demux queue.
  const int idx = as.index_of(pe_);
  const int n = as.pe_size;
  const int next = as.pe_at((idx + 1) % n);
  const int prev = as.pe_at((idx + n - 1) % n);
  const auto forward_cost = rt_->config().barrier_forward_ps;

  if (rt_->token_rendezvous()) {
    // Nothing perturbs the tokens: take their arrival times from the
    // closed form, then replay this PE's side of the loop as the message
    // path below runs it. Each send and receive makes the same clock
    // advances and merges, the same traffic counts and the same probe
    // records, in the same order.
    if (s.token == nullptr) s.token = &rt_->token_barrier_for(as);
    const TokenTimes t = s.token->wait(*tile_, idx);
    auto send = [&] {
      tile_->clock().advance(forward_cost);
      rt_->udn().send_unqueued(*tile_, next, kCtrlMsgWords);
      ctrl_sent(next);
    };
    auto receive = [&](ps_t arrival) {
      const ps_t begin = tile_->clock().now();
      tilesim::probe_event(*tile_,
                           {ProbeKind::kWaitBegin, kCtrlRecvWait, begin});
      tilesim::probe_event(*tile_,
                           {ProbeKind::kWaitEnd, kCtrlRecvWait, begin});
      ctrl_consumed(prev, begin, arrival);
    };
    if (idx == 0) {
      send();
      receive(t.wait_in);
      send();
      receive(t.release_in);
    } else {
      receive(t.wait_in);
      send();
      receive(t.release_in);
      send();
    }
    return;
  }

  auto expect = [&](MsgTag tag) {
    const CtrlMsg msg = recv_ctrl(tmc::kUdnBarrierQueue, tag, prev);
    if (msg.set_id != (as.id() & 0xffffff) || msg.seq != seq) {
      throw std::runtime_error(
          "TSHMEM barrier token mismatch (overlapping barriers?)");
    }
  };
  auto token = [&](MsgTag tag) {
    return CtrlMsg{tag, as.id() & 0xffffff, seq, 0};
  };

  if (idx == 0) {
    tile_->clock().advance(forward_cost);
    send_ctrl(next, tmc::kUdnBarrierQueue, token(MsgTag::kBarrierWait));
    expect(MsgTag::kBarrierWait);  // everyone has arrived
    tile_->clock().advance(forward_cost);
    send_ctrl(next, tmc::kUdnBarrierQueue, token(MsgTag::kBarrierRelease));
    expect(MsgTag::kBarrierRelease);  // start tile exits last
  } else {
    expect(MsgTag::kBarrierWait);
    tile_->clock().advance(forward_cost);
    send_ctrl(next, tmc::kUdnBarrierQueue, token(MsgTag::kBarrierWait));
    expect(MsgTag::kBarrierRelease);
    tile_->clock().advance(forward_cost);
    send_ctrl(next, tmc::kUdnBarrierQueue, token(MsgTag::kBarrierRelease));
    // Non-start tiles resume as soon as they forwarded the release.
  }
}

void Context::barrier_broadcast_release(const ActiveSet& as,
                                        std::uint32_t seq) {
  // The §IV-C1 alternative the paper measured 2x slower: the WAIT phase is
  // the same linear loop, but the start tile then broadcasts the RELEASE
  // individually, requiring an acknowledgment per tile before its UDN
  // resources can be reused — serializing a round trip per member.
  const int idx = as.index_of(pe_);
  const int n = as.pe_size;
  const int next = as.pe_at((idx + 1) % n);
  const int prev = as.pe_at((idx + n - 1) % n);
  const int start = as.pe_at(0);
  const auto forward_cost = rt_->config().barrier_forward_ps;
  auto token = [&](MsgTag tag) {
    return CtrlMsg{tag, as.id() & 0xffffff, seq, 0};
  };

  if (idx == 0) {
    tile_->clock().advance(forward_cost);
    send_ctrl(next, tmc::kUdnBarrierQueue, token(MsgTag::kBarrierWait));
    recv_ctrl(tmc::kUdnBarrierQueue, MsgTag::kBarrierWait, prev);
    for (int i = 1; i < n; ++i) {
      tile_->clock().advance(forward_cost);
      send_ctrl(as.pe_at(i), tmc::kUdnBarrierQueue,
                token(MsgTag::kBarrierRelease));
      recv_ctrl(tmc::kUdnBarrierQueue, MsgTag::kBarrierAck, as.pe_at(i));
      // Draining each acknowledgment from the demux queue costs the root a
      // software-loop iteration, further serializing the release phase.
      tile_->clock().advance(forward_cost);
    }
  } else {
    recv_ctrl(tmc::kUdnBarrierQueue, MsgTag::kBarrierWait, prev);
    tile_->clock().advance(forward_cost);
    send_ctrl(next, tmc::kUdnBarrierQueue, token(MsgTag::kBarrierWait));
    recv_ctrl(tmc::kUdnBarrierQueue, MsgTag::kBarrierRelease, start);
    tile_->clock().advance(forward_cost);
    send_ctrl(start, tmc::kUdnBarrierQueue, token(MsgTag::kBarrierAck));
  }
}

void Context::barrier_tmc_spin(const ActiveSet& as, SetState& s) {
  // §IV-E: on the TILE-Gx the TMC spin barrier beats the UDN token design;
  // this variant adopts it (usable only when each PE owns its tile, which
  // is always true under this runtime).
  if (s.spin == nullptr) s.spin = &rt_->spin_barrier_for(as);
  s.spin->wait(*tile_, as.index_of(pe_));
}

// ===========================================================================
// Atomics
// ===========================================================================

void Context::charge_atomic(int pe) {
  const auto& cfg = rt_->config();
  // Round trip to the target line's home tile. Hash-for-home scatters lines
  // pseudo-randomly, so charge the mean mesh distance.
  const int avg_hops = (cfg.mesh_width + cfg.mesh_height) / 3;
  ps_t cost = cfg.shmem_call_overhead_ps + cfg.udn_setup_teardown_ps +
              2 * static_cast<ps_t>(avg_hops) * cfg.cycle_ps();
  if (pe == pe_) cost = cfg.shmem_call_overhead_ps + 4 * cfg.cycle_ps();
  tile_->clock().advance(cost);
}

void Context::atomic_engine(void* target, int pe, std::size_t bytes,
                            const char* site,
                            const std::function<void(void*)>& op) {
  if (pe < 0 || pe >= num_pes()) {
    throw std::out_of_range("atomic: PE out of range");
  }
  const AddrClass cls = classify(target);
  if (cls == AddrClass::kOther) {
    throw std::invalid_argument("atomic: target is not a symmetric object");
  }
  const tilesim::ProbeSpan probe(*tile_, ProbeKind::kAtomic, site);
  charge_atomic(pe);
  if (race_ != nullptr) {
    // Acquire-check-release on the target granule; even a failed CAS
    // acquires, which is what makes lock spin loops race-free.
    race_->on_atomic(pe_, remote_addr(target, pe), bytes, site,
                     tile_->clock().now());
  }
  probe.event(tile_->clock().now(), pe, bytes);
  if (cls == AddrClass::kDynamic || pe == pe_) {
    if (pe != pe_) rt_->note_delivery(pe, tile_->clock().now());
    op(remote_addr(target, pe));
    return;
  }
  // Static symmetric object on a remote PE: service via UDN interrupt.
  void* addr = remote_addr(target, pe);
  rt_->interrupts().raise(*tile_, pe, [&](Tile& remote) {
    remote.clock().advance(rt_->config().cycle_ps() * 8);
    rt_->note_delivery(pe, remote.clock().now());
    op(addr);
  });
}

// ===========================================================================
// Locks (OpenSHMEM §8.7): the lock lives on PE 0's copy of the symmetric
// variable; value 0 = unlocked, 1 + owner = locked.
// ===========================================================================

void Context::set_lock(long* lock) {
  rt_->note_op(pe_, "shmem_set_lock");
  // Each failed CAS is a full attempt (it advances virtual time via the
  // atomic cost model); the guarded spin bounds the retry loop with the
  // watchdog like every other blocking wait in the tree.
  tilesim::guarded_spin(tile_->device(), pe_, "shmem_set_lock", [&] {
    long prev = 0;
    atomic_engine(lock, 0, sizeof(long), "shmem_set_lock", [&](void* addr) {
      std::atomic_ref<long> ref(*static_cast<long*>(addr));
      long expected = 0;
      if (ref.compare_exchange_strong(expected, 1 + pe_,
                                      std::memory_order_acq_rel)) {
        prev = 0;
      } else {
        prev = expected;
      }
    });
    return prev == 0;
  });
  // Close the guarded spin's kWaitBegin: the acquiring CAS's timestamp is
  // the deterministic end of the lock wait.
  tilesim::probe_event(
      *tile_, {ProbeKind::kWaitEnd, "shmem_set_lock", tile_->clock().now()});
  tilesim::probe_event(
      *tile_, {ProbeKind::kLock, "shmem_set_lock", tile_->clock().now(), 0});
  rt_->note_lock_delta(pe_, +1);
}

void Context::clear_lock(long* lock) {
  rt_->note_op(pe_, "shmem_clear_lock");
  quiet();  // spec: releases after outstanding stores complete
  atomic_engine(lock, 0, sizeof(long), "shmem_clear_lock", [&](void* addr) {
    std::atomic_ref<long> ref(*static_cast<long*>(addr));
    const long cur = ref.load(std::memory_order_acquire);
    if (cur != 1 + pe_) {
      throw std::logic_error("clear_lock by non-owner PE");
    }
    ref.store(0, std::memory_order_release);
  });
  tilesim::probe_event(
      *tile_, {ProbeKind::kLock, "shmem_clear_lock", tile_->clock().now(), 0});
  rt_->note_lock_delta(pe_, -1);
}

int Context::test_lock(long* lock) {
  long prev = 0;
  atomic_engine(lock, 0, sizeof(long), "shmem_test_lock", [&](void* addr) {
    std::atomic_ref<long> ref(*static_cast<long*>(addr));
    long expected = 0;
    if (!ref.compare_exchange_strong(expected, 1 + pe_,
                                     std::memory_order_acq_rel)) {
      prev = expected;
    }
  });
  tilesim::probe_event(
      *tile_, {ProbeKind::kLock, "shmem_test_lock", tile_->clock().now(), 0});
  if (prev == 0) rt_->note_lock_delta(pe_, +1);
  return prev == 0 ? 0 : 1;
}

// ===========================================================================
// Finalize (proposed extension, paper §IV-E)
// ===========================================================================

void Context::finalize() {
  rt_->note_op(pe_, "shmem_finalize");
  if (finalized_) {
    throw std::logic_error("shmem_finalize called twice");
  }
  // Outstanding non-blocking transfers at finalize are a program error (the
  // OpenSHMEM spec requires quiescence before teardown): surface it rather
  // than silently dropping descriptors whose completion nobody will await.
  if (const std::size_t n = tile_->dma().pending(); n != 0) {
    throw Error(
        Errc::kFinalizePending,
        "shmem_finalize: PE " + std::to_string(pe_) + " has " +
            std::to_string(n) +
            " outstanding non-blocking transfer(s); call shmem_quiet() "
            "before shmem_finalize()");
  }
  // Proper teardown requires the UDN to be fully disengaged: any packet
  // still queued here indicates a protocol bug that would lock up a real
  // Tilera device.
  for (int q = 0; q < rt_->config().udn_demux_queues; ++q) {
    if (rt_->udn().queued_words(pe_, q) != 0 || !ctrl_stash_[q].empty()) {
      throw std::runtime_error(
          "shmem_finalize: UDN demux queue not drained on PE " +
          std::to_string(pe_));
    }
  }
  finalized_ = true;
}

}  // namespace tshmem
