// Per-PE TSHMEM context: the engine behind every OpenSHMEM routine.
//
// The C-style API in tshmem/api.hpp forwards to the Context bound to the
// calling tile thread. Tests and benches may also use Context directly.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstring>
#include <functional>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "sim/clock.hpp"
#include "sim/guarded_wait.hpp"
#include "sim/probe.hpp"
#include "tshmem/messages.hpp"
#include "tshmem/runtime.hpp"
#include "tshmem/symheap.hpp"
#include "tshmem/types.hpp"

namespace tshmem {

/// Classification of an address from the calling PE's point of view
/// (paper §IV-B: the put/get paths inspect target and source addresses).
enum class AddrClass : std::uint8_t {
  kDynamic,  ///< in my symmetric partition (directly addressable remotely)
  kStatic,   ///< in my private arena (needs UDN-interrupt service remotely)
  kOther,    ///< non-symmetric local memory (stack, plain heap)
};

/// Extra knobs for modeled copies inside collectives.
struct CopyHints {
  int readers = 1;  ///< concurrent streams reading the (shared) source
  int writers = 1;  ///< concurrent streams writing the (shared) target
};

class Context {
 public:
  Context(Runtime& rt, int pe, Tile& tile, std::byte* partition,
          std::size_t partition_bytes, std::byte* private_arena,
          std::size_t private_bytes);

  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  // --- environment ---------------------------------------------------------
  [[nodiscard]] int my_pe() const noexcept { return pe_; }
  [[nodiscard]] int num_pes() const noexcept { return rt_->npes(); }
  [[nodiscard]] Runtime& runtime() noexcept { return *rt_; }
  [[nodiscard]] Tile& tile() noexcept { return *tile_; }
  [[nodiscard]] tilesim::SimClock& clock() noexcept { return tile_->clock(); }
  [[nodiscard]] ActiveSet world() const noexcept {
    return ActiveSet{0, 0, num_pes()};
  }

  /// Proposed shmem_finalize() (paper §IV-E): drains/validates UDN state.
  /// Runtime verifies every PE called it when the job ends.
  void finalize();
  [[nodiscard]] bool finalized() const noexcept { return finalized_; }

  // --- symmetric memory ----------------------------------------------------
  /// Collective; includes an implicit barrier_all (OpenSHMEM semantics).
  [[nodiscard]] void* shmalloc(std::size_t bytes);
  void shfree(void* p);  ///< collective
  [[nodiscard]] void* shrealloc(void* p, std::size_t bytes);   ///< collective
  [[nodiscard]] void* shmemalign(std::size_t alignment,
                                 std::size_t bytes);  ///< collective

  template <typename T>
  [[nodiscard]] T* shmalloc_n(std::size_t count) {
    return static_cast<T*>(shmalloc(count * sizeof(T)));
  }

  /// Static symmetric object: same offset in every PE's private arena.
  /// Must be requested by all PEs (like declaring a global in SPMD code).
  template <typename T>
  [[nodiscard]] T* static_sym(const std::string& name, std::size_t count = 1) {
    const auto entry =
        rt_->statics().reserve(name, count * sizeof(T), alignof(T));
    return reinterpret_cast<T*>(private_base_ + entry.offset);
  }

  [[nodiscard]] SymHeap& heap() noexcept { return heap_; }

  // --- address queries -----------------------------------------------------
  [[nodiscard]] AddrClass classify(const void* p) const noexcept;
  /// Translate my symmetric address to PE `pe`'s copy (dynamic or static).
  [[nodiscard]] void* remote_addr(const void* my_sym, int pe) const;
  /// shmem_ptr(): direct pointer to the remote object, or nullptr when the
  /// object is not directly addressable (static objects on other PEs).
  [[nodiscard]] void* ptr(const void* target, int pe) const;
  [[nodiscard]] bool pe_accessible(int pe) const noexcept;
  [[nodiscard]] bool addr_accessible(const void* addr, int pe) const noexcept;

  // --- RMA -----------------------------------------------------------------
  void put(void* target, const void* source, std::size_t bytes, int pe,
           CopyHints hints = {});
  void get(void* target, const void* source, std::size_t bytes, int pe,
           CopyHints hints = {});

  template <typename T>
  void p(T* target, T value, int pe) {
    put(target, &value, sizeof(T), pe);
  }

  template <typename T>
  [[nodiscard]] T g(const T* source, int pe) {
    T out{};
    get(&out, source, sizeof(T), pe);
    return out;
  }

  template <typename T>
  void iput(T* target, const T* source, std::ptrdiff_t target_stride,
            std::ptrdiff_t source_stride, std::size_t nelems, int pe);
  template <typename T>
  void iget(T* target, const T* source, std::ptrdiff_t target_stride,
            std::ptrdiff_t source_stride, std::size_t nelems, int pe);

  // --- non-blocking RMA (sim/dma.hpp; see docs/NBI.md) ---------------------
  /// Posts the transfer to this tile's DMA engine and returns immediately;
  /// completion (local buffer reuse for puts, valid data for gets) is only
  /// guaranteed after quiet(). Transfers whose remote side is a static
  /// symmetric object need the remote tile's interrupt service and complete
  /// synchronously before returning (a valid NBI implementation; the
  /// descriptor never enters the queue).
  void put_nbi(void* target, const void* source, std::size_t bytes, int pe);
  void get_nbi(void* target, const void* source, std::size_t bytes, int pe);

  /// In-flight descriptors on this PE's DMA engine.
  [[nodiscard]] std::size_t nbi_pending() const noexcept {
    return tile_->dma().pending();
  }

  // --- synchronization -----------------------------------------------------
  void barrier_all();
  void barrier(const ActiveSet& as);
  void barrier(const ActiveSet& as, BarrierAlgo algo);
  void set_barrier_algo(BarrierAlgo algo) noexcept { barrier_algo_ = algo; }
  [[nodiscard]] BarrierAlgo barrier_algo() const noexcept {
    return barrier_algo_;
  }

  /// Orders delivery per destination PE. With no in-flight NBI transfers it
  /// keeps the paper's §IV-C2 behavior (an alias of quiet); with a pending
  /// DMA queue it only drains the CPU store buffer — per-destination FIFO
  /// delivery is inherent to the single-channel DMA engine, so the queue is
  /// NOT drained and the clock never jumps to a completion time.
  void fence();
  /// Completes all outstanding transfers: drains this PE's DMA queue,
  /// advancing the clock to the latest outstanding completion, then drains
  /// the store buffer. With an empty queue this is exactly the pre-NBI
  /// behavior (bit-identical virtual time).
  void quiet();

  template <typename T>
  void wait_until(volatile T* ivar, Cmp cmp, T value);
  template <typename T>
  void wait(volatile T* ivar, T value) {  // block while *ivar == value
    wait_until(ivar, Cmp::kNe, value);
  }

  // --- collectives ---------------------------------------------------------
  /// `root_index` is the zero-based ordinal within the active set.
  void broadcast(void* target, const void* source, std::size_t bytes,
                 int root_index, const ActiveSet& as,
                 BcastAlgo algo = BcastAlgo::kPull);
  void fcollect(void* target, const void* source, std::size_t bytes_per_pe,
                const ActiveSet& as, CollectAlgo algo = CollectAlgo::kNaive);
  void collect(void* target, const void* source, std::size_t my_bytes,
               const ActiveSet& as, CollectAlgo algo = CollectAlgo::kNaive);

  template <typename T>
  void reduce(T* target, const T* source, std::size_t nreduce, RedOp op,
              const ActiveSet& as, ReduceAlgo algo = ReduceAlgo::kNaive);

  /// Type-erased reduction entry point for element types the arithmetic
  /// template cannot express (e.g. std::complex products). `apply` folds
  /// `n` elements of `in` into `acc`.
  using ReduceApply = void (*)(void* acc, const void* in, std::size_t n);
  void reduce_custom(void* target, const void* source, std::size_t nreduce,
                     std::size_t elem_size, ReduceApply apply, bool is_fp,
                     const ActiveSet& as, ReduceAlgo algo = ReduceAlgo::kNaive);

  // --- atomics -------------------------------------------------------------
  template <typename T>
  T swap(T* target, T value, int pe);
  template <typename T>
  T cswap(T* target, T cond, T value, int pe);
  template <typename T>
  T fadd(T* target, T value, int pe);
  template <typename T>
  T finc(T* target, int pe) {
    return fadd(target, T{1}, pe);
  }
  template <typename T>
  void add(T* target, T value, int pe) {
    (void)fadd(target, value, pe);
  }
  template <typename T>
  void inc(T* target, int pe) {
    (void)fadd(target, T{1}, pe);
  }

  // --- locks ---------------------------------------------------------------
  void set_lock(long* lock);
  void clear_lock(long* lock);
  [[nodiscard]] int test_lock(long* lock);

  // --- compute-model passthrough (applications) ----------------------------
  void charge_int_ops(std::uint64_t n) { tile_->charge_int_ops(n); }
  void charge_fp_ops(std::uint64_t n) { tile_->charge_fp_ops(n); }
  void charge_mem_ops(std::uint64_t n) { tile_->charge_mem_ops(n); }
  void charge_calls(std::uint64_t n) { tile_->charge_calls(n); }

  // --- instrumented local access (tshmem-check; docs/ANALYSIS.md) ----------
  /// Local load/store through the race detector: plain local accesses to
  /// symmetric objects are invisible to the runtime, so checked kernels
  /// read/write their own copies via these to give tshmem-check the local
  /// side of a conflict. With the detector off they are plain (atomic, for
  /// 4/8-byte types) accesses with zero extra cost; they never advance
  /// virtual time beyond what the plain access would.
  template <typename T>
  [[nodiscard]] T sym_load(const T* p) {
    static_assert(std::is_trivially_copyable_v<T>);
    T out;
    if constexpr (sizeof(T) == 4 || sizeof(T) == 8) {
      std::atomic_ref<T> ref(*const_cast<T*>(p));
      out = ref.load(std::memory_order_acquire);
    } else {
      std::memcpy(&out, const_cast<const T*>(p), sizeof(T));
    }
    if (race_ != nullptr) {
      race_->on_access(pe_, false, analysis::AccessKind::kRead, p, sizeof(T),
                       "local_read", clock().now());
    }
    return out;
  }
  template <typename T>
  void sym_store(T* p, T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    if constexpr (sizeof(T) == 4 || sizeof(T) == 8) {
      std::atomic_ref<T> ref(*p);
      ref.store(value, std::memory_order_release);
    } else {
      std::memcpy(p, &value, sizeof(T));
    }
    if (race_ != nullptr) {
      race_->on_access(pe_, false, analysis::AccessKind::kWrite, p, sizeof(T),
                       "local_write", clock().now());
    }
  }

  // --- harness helpers -----------------------------------------------------
  /// Zero-virtual-cost rendezvous + clock reset (benchmark phases).
  void harness_sync_reset() { tile_->device().sync_and_reset_clocks(); }
  void harness_sync() { tile_->device().host_sync(); }

  // --- control messaging (used by collectives; exposed for examples) ------
  void send_ctrl(int dst_pe, int queue, const CtrlMsg& msg);
  /// Receives the next control message on `queue` matching `tag` (and
  /// `src_pe` unless -1), stashing non-matching traffic for later.
  CtrlMsg recv_ctrl(int queue, MsgTag tag, int src_pe = -1,
                    int* actual_src = nullptr);

 private:
  Runtime* rt_;
  int pe_;
  Tile* tile_;
  std::byte* partition_base_;
  std::size_t partition_bytes_;
  std::byte* private_base_;
  std::size_t private_bytes_;
  SymHeap heap_;
  BarrierAlgo barrier_algo_ = BarrierAlgo::kLinearToken;
  bool finalized_ = false;
  analysis::RaceDetector* race_ = nullptr;  ///< tshmem-check (set by Runtime)

  std::map<std::uint32_t, std::uint32_t> barrier_seq_;   // active-set id -> seq
  std::map<std::uint32_t, std::uint32_t> collective_seq_;
  struct StashedCtrl {
    int src_pe;
    tilesim::ps_t arrival_ps;
    CtrlMsg msg;
  };
  std::vector<StashedCtrl> ctrl_stash_[4];  // per demux queue

  // --- engine internals (context.cpp / collectives.cpp) -------------------
  struct ResolvedTransfer {
    // Host pointers the data actually moves between, after translation.
    void* dst;
    const void* src;
    tilesim::MemSpace dst_space;
    tilesim::MemSpace src_space;
    bool needs_interrupt;      // remote tile must service the operation
    bool needs_bounce;         // static-static: shared bounce buffer
    int service_pe;            // PE whose tile services the copy
  };

  void transfer(void* target, const void* source, std::size_t bytes, int pe,
                bool is_put, CopyHints hints);
  void transfer_nbi(void* target, const void* source, std::size_t bytes,
                    int pe, bool is_put);
  /// TSHMEM_DEBUG validation (docs/ROBUSTNESS.md): invalid PE, non-symmetric
  /// remote address, or out-of-bounds range -> structured tshmem::Error.
  /// Host-side only; never advances virtual time.
  void validate_transfer(const void* target, const void* source,
                         std::size_t bytes, int pe, bool is_put,
                         const char* what) const;
  /// Records an injected heap-cap denial in the fault event log.
  void note_heap_denial(const void* p, std::size_t bytes);
  void charge_local_copy(std::size_t bytes, tilesim::MemSpace dst,
                         tilesim::MemSpace src, CopyHints hints);
  void do_memcpy_visible(void* dst, const void* src, std::size_t bytes);

  std::uint32_t next_barrier_seq(const ActiveSet& as);
  std::uint32_t next_collective_seq(const ActiveSet& as);

  /// The records of a control message to `dst_pe` leaving this PE.
  void ctrl_sent(int dst_pe);
  /// Consumes a control message from `src_pe` that arrived at `arrival`,
  /// in a receive entered at `wait_begin`: merges the clock and reports the
  /// wait edge and kCtrlRecv.
  void ctrl_consumed(int src_pe, ps_t wait_begin, ps_t arrival);

  void barrier_linear(const ActiveSet& as, std::uint32_t seq);
  void barrier_broadcast_release(const ActiveSet& as, std::uint32_t seq);
  void barrier_tmc_spin(const ActiveSet& as);

  void bcast_push(void* target, const void* source, std::size_t bytes,
                  int root_index, const ActiveSet& as, std::uint32_t seq);
  void bcast_pull(void* target, const void* source, std::size_t bytes,
                  int root_index, const ActiveSet& as, std::uint32_t seq);
  void bcast_binomial(void* target, const void* source, std::size_t bytes,
                      int root_index, const ActiveSet& as, std::uint32_t seq);

  void collect_engine(void* target, const void* source, std::size_t my_bytes,
                      bool fixed_size, const ActiveSet& as, CollectAlgo algo);

  void reduce_engine(void* target, const void* source, std::size_t nreduce,
                     std::size_t elem_size, ReduceApply apply, bool is_fp,
                     const ActiveSet& as, ReduceAlgo algo);

  /// Atomic cost model: round trip to the home tile of the target line.
  void charge_atomic(int pe);
  /// Runs `op` atomically against the symmetric object `target` on `pe`;
  /// used by all atomic ops. `op` receives the resolved host address.
  /// `bytes`/`site` feed tshmem-check's acquire-release shadow check.
  void atomic_engine(void* target, int pe, std::size_t bytes,
                     const char* site,
                     const std::function<void(void*)>& op);

  friend class Runtime;
};

// ===========================================================================
// Template implementations
// ===========================================================================

template <typename T>
void Context::iput(T* target, const T* source, std::ptrdiff_t target_stride,
                   std::ptrdiff_t source_stride, std::size_t nelems, int pe) {
  // Strided transfers are element-wise puts (paper Table I: shmem_int_iput).
  for (std::size_t i = 0; i < nelems; ++i) {
    put(target + static_cast<std::ptrdiff_t>(i) * target_stride,
        source + static_cast<std::ptrdiff_t>(i) * source_stride, sizeof(T),
        pe);
  }
}

template <typename T>
void Context::iget(T* target, const T* source, std::ptrdiff_t target_stride,
                   std::ptrdiff_t source_stride, std::size_t nelems, int pe) {
  for (std::size_t i = 0; i < nelems; ++i) {
    get(target + static_cast<std::ptrdiff_t>(i) * target_stride,
        source + static_cast<std::ptrdiff_t>(i) * source_stride, sizeof(T),
        pe);
  }
}

template <typename T>
void Context::wait_until(volatile T* ivar, Cmp cmp, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  rt_->note_op(pe_, "shmem_wait_until");
  // The op is reported as the kWaitEnd that closes the guarded spin's
  // kWaitBegin below.
  const tilesim::ProbeSpan probe(*tile_, tilesim::ProbeKind::kWaitEnd,
                                "shmem_wait_until");
  // Point-to-point sync: poll the symmetric variable. Remote elemental puts
  // store atomically (see do_memcpy_visible), so an atomic load here pairs
  // with them. Virtual time: on success the clock advances to the latest
  // remote delivery into this PE, ordering us after the releasing put.
  auto* nv = const_cast<T*>(const_cast<const volatile T*>(ivar));
  std::atomic_ref<T> ref(*nv);
  tilesim::guarded_spin(tile_->device(), pe_, "shmem_wait_until", [&] {
    return compare(cmp, ref.load(std::memory_order_acquire), value);
  });
  {
    const ps_t wait_from = clock().now();
    const ps_t delivered = rt_->last_delivery(pe_);
    clock().advance_to(delivered);
    // The delivering PE is not identifiable from the timestamp slot alone,
    // so the edge's producer is unknown (-1).
    tilesim::probe_wait_edge(*tile_, -1, tilesim::ProbeKind::kWaitEnd,
                             "delivery", wait_from, delivered);
  }
  clock().advance(rt_->config().shmem_call_overhead_ps);
  // The spin's attempt count is host-schedule dependent, so only this
  // post-merge timestamp is deterministic.
  probe.event(clock().now());
  if (race_ != nullptr) {
    // The satisfied wait acquires the release clock the elemental put
    // published on this granule, then counts as an ordered read of it.
    race_->on_acquire(pe_, nv);
    race_->on_access(pe_, false, analysis::AccessKind::kRead, nv, sizeof(T),
                     "shmem_wait_until", clock().now());
  }
}

template <typename T>
void Context::reduce(T* target, const T* source, std::size_t nreduce,
                     RedOp op, const ActiveSet& as, ReduceAlgo algo) {
  static_assert(std::is_arithmetic_v<T> || std::is_same_v<T, long double>);
  ReduceApply apply = nullptr;
  switch (op) {
    case RedOp::kSum:
      apply = [](void* acc, const void* in, std::size_t n) {
        auto* a = static_cast<T*>(acc);
        const auto* b = static_cast<const T*>(in);
        for (std::size_t i = 0; i < n; ++i) a[i] = static_cast<T>(a[i] + b[i]);
      };
      break;
    case RedOp::kProd:
      apply = [](void* acc, const void* in, std::size_t n) {
        auto* a = static_cast<T*>(acc);
        const auto* b = static_cast<const T*>(in);
        for (std::size_t i = 0; i < n; ++i) a[i] = static_cast<T>(a[i] * b[i]);
      };
      break;
    case RedOp::kMin:
      apply = [](void* acc, const void* in, std::size_t n) {
        auto* a = static_cast<T*>(acc);
        const auto* b = static_cast<const T*>(in);
        for (std::size_t i = 0; i < n; ++i) a[i] = b[i] < a[i] ? b[i] : a[i];
      };
      break;
    case RedOp::kMax:
      apply = [](void* acc, const void* in, std::size_t n) {
        auto* a = static_cast<T*>(acc);
        const auto* b = static_cast<const T*>(in);
        for (std::size_t i = 0; i < n; ++i) a[i] = b[i] > a[i] ? b[i] : a[i];
      };
      break;
    case RedOp::kAnd:
    case RedOp::kOr:
    case RedOp::kXor:
      if constexpr (std::is_integral_v<T>) {
        if (op == RedOp::kAnd) {
          apply = [](void* acc, const void* in, std::size_t n) {
            auto* a = static_cast<T*>(acc);
            const auto* b = static_cast<const T*>(in);
            for (std::size_t i = 0; i < n; ++i) a[i] &= b[i];
          };
        } else if (op == RedOp::kOr) {
          apply = [](void* acc, const void* in, std::size_t n) {
            auto* a = static_cast<T*>(acc);
            const auto* b = static_cast<const T*>(in);
            for (std::size_t i = 0; i < n; ++i) a[i] |= b[i];
          };
        } else {
          apply = [](void* acc, const void* in, std::size_t n) {
            auto* a = static_cast<T*>(acc);
            const auto* b = static_cast<const T*>(in);
            for (std::size_t i = 0; i < n; ++i) a[i] ^= b[i];
          };
        }
      } else {
        throw std::invalid_argument(
            "bitwise reductions require an integral type");
      }
      break;
  }
  reduce_engine(target, source, nreduce, sizeof(T), apply,
                std::is_floating_point_v<T>, as, algo);
}

template <typename T>
T Context::swap(T* target, T value, int pe) {
  static_assert(std::is_trivially_copyable_v<T> &&
                (sizeof(T) == 4 || sizeof(T) == 8));
  T old{};
  atomic_engine(target, pe, sizeof(T), "shmem_swap", [&](void* addr) {
    if constexpr (std::is_integral_v<T>) {
      std::atomic_ref<T> ref(*static_cast<T*>(addr));
      old = ref.exchange(value, std::memory_order_acq_rel);
    } else {
      // Floating-point swap via same-width integer exchange (bit pattern).
      using Bits = std::conditional_t<sizeof(T) == 4, std::uint32_t,
                                      std::uint64_t>;
      Bits bits;
      std::memcpy(&bits, &value, sizeof(T));
      std::atomic_ref<Bits> ref(*static_cast<Bits*>(addr));
      const Bits prev = ref.exchange(bits, std::memory_order_acq_rel);
      std::memcpy(&old, &prev, sizeof(T));
    }
  });
  return old;
}

template <typename T>
T Context::cswap(T* target, T cond, T value, int pe) {
  static_assert(std::is_integral_v<T>);
  T old = cond;
  atomic_engine(target, pe, sizeof(T), "shmem_cswap", [&](void* addr) {
    std::atomic_ref<T> ref(*static_cast<T*>(addr));
    T expected = cond;
    if (!ref.compare_exchange_strong(expected, value,
                                     std::memory_order_acq_rel)) {
      old = expected;
    } else {
      old = cond;
    }
  });
  return old;
}

template <typename T>
T Context::fadd(T* target, T value, int pe) {
  static_assert(std::is_integral_v<T>);
  T old{};
  atomic_engine(target, pe, sizeof(T), "shmem_fadd", [&](void* addr) {
    std::atomic_ref<T> ref(*static_cast<T*>(addr));
    old = ref.fetch_add(value, std::memory_order_acq_rel);
  });
  return old;
}

}  // namespace tshmem
