// Collective communication engines (paper §IV-D).
//
// All control traffic rides the dedicated collective demux queue; data
// moves through the put/get engine with concurrency hints so the memory
// model reflects simultaneous readers/writers against one partition.
#include <algorithm>
#include <cstring>
#include <vector>

#include "tshmem/context.hpp"

namespace tshmem {

namespace {

/// Naive reductions run an unoptimized per-element dispatch loop on the
/// root tile; this constant is the modeled cost per element, calibrated so
/// Fig 12's aggregate bandwidth lands near the paper's 150 MB/s @ 36 tiles.
constexpr std::uint64_t kNaiveReduceOpsPerElement = 26;

/// Chunk size of the naive reduction's repeated gets from each PE.
constexpr std::size_t kReduceChunkBytes = 4096;

int bit_ceil_log2(int n) {
  int k = 0;
  while ((1 << k) < n) ++k;
  return k;
}

}  // namespace

// ===========================================================================
// Broadcast (paper §IV-D1)
// ===========================================================================

void Context::broadcast(void* target, const void* source, std::size_t bytes,
                        int root_index, const ActiveSet& as, BcastAlgo algo) {
  if (!as.contains(pe_)) {
    throw std::invalid_argument("broadcast: calling PE not in active set");
  }
  if (root_index < 0 || root_index >= as.pe_size) {
    throw std::out_of_range("broadcast: root index outside active set");
  }
  const tilesim::ProbeSpan probe(*tile_, tilesim::ProbeKind::kBroadcast,
                                "shmem_broadcast");
  tile_->clock().advance(rt_->config().shmem_call_overhead_ps);
  probe.event(tile_->clock().now(), as.pe_at(root_index), bytes);
  const std::uint32_t seq = next_collective_seq(as);
  if (as.pe_size == 1) return;
  switch (algo) {
    case BcastAlgo::kPush:
      bcast_push(target, source, bytes, root_index, as, seq);
      break;
    case BcastAlgo::kPull:
      bcast_pull(target, source, bytes, root_index, as, seq);
      break;
    case BcastAlgo::kBinomial:
      bcast_binomial(target, source, bytes, root_index, as, seq);
      break;
  }
}

void Context::bcast_push(void* target, const void* source, std::size_t bytes,
                         int root_index, const ActiveSet& as,
                         std::uint32_t seq) {
  // Root puts to every other member sequentially, then notifies each; all
  // the work serializes on the root tile, which is exactly why Fig 9 shows
  // no scaling with the number of tiles.
  const int root = as.pe_at(root_index);
  const CtrlMsg note{MsgTag::kPushNotify, as.id() & 0xffffff, seq, 0};
  if (pe_ == root) {
    for (int i = 0; i < as.pe_size; ++i) {
      const int peer = as.pe_at(i);
      if (peer == root) continue;
      // The root writes into one destination at a time: no write contention.
      put(target, source, bytes, peer);
    }
    quiet();
    for (int i = 0; i < as.pe_size; ++i) {
      const int peer = as.pe_at(i);
      if (peer == root) continue;
      send_ctrl(peer, tmc::kUdnCollectiveQueue, note);
    }
  } else {
    const CtrlMsg msg =
        recv_ctrl(tmc::kUdnCollectiveQueue, MsgTag::kPushNotify, root);
    if (msg.seq != seq) {
      throw std::runtime_error("broadcast: stale push notification");
    }
  }
}

void Context::bcast_pull(void* target, const void* source, std::size_t bytes,
                         int root_index, const ActiveSet& as,
                         std::uint32_t seq) {
  // All non-root members get the data from the root concurrently,
  // exploiting the iMesh/DDC aggregate bandwidth (Fig 10).
  const int root = as.pe_at(root_index);
  if (pe_ == root) {
    quiet();  // the source must be globally visible before anyone reads it
    const CtrlMsg ready{MsgTag::kBcastReady, as.id() & 0xffffff, seq, bytes};
    for (int i = 0; i < as.pe_size; ++i) {
      const int peer = as.pe_at(i);
      if (peer == root) continue;
      send_ctrl(peer, tmc::kUdnCollectiveQueue, ready);
    }
    for (int i = 0; i < as.pe_size; ++i) {
      const int peer = as.pe_at(i);
      if (peer == root) continue;
      recv_ctrl(tmc::kUdnCollectiveQueue, MsgTag::kBcastDone, peer);
    }
  } else {
    const CtrlMsg ready =
        recv_ctrl(tmc::kUdnCollectiveQueue, MsgTag::kBcastReady, root);
    if (ready.seq != seq) {
      throw std::runtime_error("broadcast: stale ready notification");
    }
    CopyHints hints;
    hints.readers = as.pe_size - 1;  // everyone pulls from the root at once
    get(target, source, bytes, root, hints);
    send_ctrl(root, tmc::kUdnCollectiveQueue,
              CtrlMsg{MsgTag::kBcastDone, as.id() & 0xffffff, seq, 0});
  }
}

void Context::bcast_binomial(void* target, const void* source,
                             std::size_t bytes, int root_index,
                             const ActiveSet& as, std::uint32_t seq) {
  // §IV-E future-work algorithm: log2(n) rounds; in round k the members
  // with relative rank < 2^k put their block to rank + 2^k.
  const int n = as.pe_size;
  const int rel = (as.index_of(pe_) - root_index + n) % n;
  const int rounds = bit_ceil_log2(n);
  auto abs_pe = [&](int relative) {
    return as.pe_at((relative + root_index) % n);
  };

  const void* block = source;
  if (rel != 0) {
    // Wait for my parent's notification, then forward from `target`.
    const CtrlMsg msg =
        recv_ctrl(tmc::kUdnCollectiveQueue, MsgTag::kTreeNotify, -1);
    if (msg.seq != seq) {
      throw std::runtime_error("broadcast: stale tree notification");
    }
    block = target;
  }
  for (int k = 0; k < rounds; ++k) {
    const int span = 1 << k;
    if (rel < span && rel + span < n) {
      const int child = abs_pe(rel + span);
      put(target, block, bytes, child);
      quiet();
      send_ctrl(child, tmc::kUdnCollectiveQueue,
                CtrlMsg{MsgTag::kTreeNotify, as.id() & 0xffffff, seq, 0});
    }
  }
}

// ===========================================================================
// Collection (paper §IV-D2)
// ===========================================================================

void Context::fcollect(void* target, const void* source,
                       std::size_t bytes_per_pe, const ActiveSet& as,
                       CollectAlgo algo) {
  collect_engine(target, source, bytes_per_pe, /*fixed_size=*/true, as, algo);
}

void Context::collect(void* target, const void* source, std::size_t my_bytes,
                      const ActiveSet& as, CollectAlgo algo) {
  collect_engine(target, source, my_bytes, /*fixed_size=*/false, as, algo);
}

void Context::collect_engine(void* target, const void* source,
                             std::size_t my_bytes, bool fixed_size,
                             const ActiveSet& as, CollectAlgo algo) {
  if (!as.contains(pe_)) {
    throw std::invalid_argument("collect: calling PE not in active set");
  }
  const tilesim::ProbeSpan probe(*tile_, tilesim::ProbeKind::kCollect,
                                "shmem_collect");
  tile_->clock().advance(rt_->config().shmem_call_overhead_ps);
  const std::uint32_t seq = next_collective_seq(as);
  const int n = as.pe_size;
  const int idx = as.index_of(pe_);
  const int root = as.pe_at(0);
  probe.event(tile_->clock().now(), root, my_bytes);

  if (n == 1) {
    charge_local_copy(my_bytes, tilesim::MemSpace::kShared,
                      tilesim::MemSpace::kShared, {});
    std::memmove(target, source, my_bytes);
    return;
  }

  // Determine my offset in the concatenated result. Fast collect: implicit
  // (idx * size). General collect: a running-offset token circulates
  // linearly so each PE learns where to append (paper: "PEs need to
  // communicate ... to know where and when to append").
  std::size_t my_offset = 0;
  std::size_t total_bytes = 0;
  if (fixed_size) {
    my_offset = static_cast<std::size_t>(idx) * my_bytes;
    total_bytes = static_cast<std::size_t>(n) * my_bytes;
  } else {
    if (idx == 0) {
      my_offset = 0;
      send_ctrl(as.pe_at(1), tmc::kUdnCollectiveQueue,
                CtrlMsg{MsgTag::kCollectOffset, as.id() & 0xffffff, seq,
                        my_bytes});
      // The total comes back around the ring from the last member.
      const CtrlMsg back = recv_ctrl(tmc::kUdnCollectiveQueue,
                                     MsgTag::kCollectOffset,
                                     as.pe_at(n - 1));
      total_bytes = back.aux;
    } else {
      const CtrlMsg tok = recv_ctrl(tmc::kUdnCollectiveQueue,
                                    MsgTag::kCollectOffset,
                                    as.pe_at(idx - 1));
      my_offset = tok.aux;
      const std::uint64_t running = tok.aux + my_bytes;
      send_ctrl(as.pe_at((idx + 1) % n), tmc::kUdnCollectiveQueue,
                CtrlMsg{MsgTag::kCollectOffset, as.id() & 0xffffff, seq,
                        running});
      total_bytes = 0;  // learned from the broadcast READY below
    }
  }

  if (algo == CollectAlgo::kRing) {
    // Extension algorithm: n-1 ring steps; each PE forwards the block it
    // received in the previous step. Only valid for fixed sizes.
    if (!fixed_size) {
      throw std::invalid_argument("ring collect requires fixed block sizes");
    }
    auto* tgt = static_cast<std::byte*>(target);
    charge_local_copy(my_bytes, tilesim::MemSpace::kShared,
                      tilesim::MemSpace::kShared, {});
    std::memmove(tgt + my_offset, source, my_bytes);
    const int next_pe = as.pe_at((idx + 1) % n);
    const int prev_pe = as.pe_at((idx + n - 1) % n);
    int have = idx;  // index of the newest block I hold
    for (int step = 0; step < n - 1; ++step) {
      // Push my newest block to the next PE's target slot.
      put(tgt + static_cast<std::size_t>(have) * my_bytes,
          tgt + static_cast<std::size_t>(have) * my_bytes, my_bytes, next_pe,
          CopyHints{1, 1});
      quiet();
      send_ctrl(next_pe, tmc::kUdnCollectiveQueue,
                CtrlMsg{MsgTag::kCollectPutDone, as.id() & 0xffffff, seq,
                        static_cast<std::uint64_t>(have)});
      const CtrlMsg got = recv_ctrl(tmc::kUdnCollectiveQueue,
                                    MsgTag::kCollectPutDone, prev_pe);
      have = static_cast<int>(got.aux);
    }
    return;
  }

  // Naive algorithm (paper §IV-D2): stage 1 — every PE puts its block into
  // the root's target; stage 2 — pull-broadcast of the concatenation.
  if (pe_ == root) {
    charge_local_copy(my_bytes, tilesim::MemSpace::kShared,
                      tilesim::MemSpace::kShared, {});
    std::memmove(static_cast<std::byte*>(target) + my_offset, source,
                 my_bytes);
    for (int i = 1; i < n; ++i) {
      recv_ctrl(tmc::kUdnCollectiveQueue, MsgTag::kCollectPutDone,
                as.pe_at(i));
    }
    // The READY aux field of the broadcast tells members the total.
    bcast_pull(target, target, total_bytes, 0, as, seq);
  } else {
    // Stage 1: put my block into the root's copy of `target`.
    auto* tgt = static_cast<std::byte*>(target);
    CopyHints hints;
    hints.writers = n - 1;  // all members write the root's partition at once
    put(tgt + my_offset, source, my_bytes, root, hints);
    quiet();
    send_ctrl(root, tmc::kUdnCollectiveQueue,
              CtrlMsg{MsgTag::kCollectPutDone, as.id() & 0xffffff, seq,
                      my_bytes});
    // Stage 2: pull the concatenated result. The READY aux carries the
    // total size, which general collect members do not otherwise know.
    const CtrlMsg ready =
        recv_ctrl(tmc::kUdnCollectiveQueue, MsgTag::kBcastReady, root);
    if (ready.seq != seq) {
      throw std::runtime_error("collect: stale broadcast ready");
    }
    CopyHints pull;
    pull.readers = n - 1;
    get(target, target, static_cast<std::size_t>(ready.aux), root, pull);
    send_ctrl(root, tmc::kUdnCollectiveQueue,
              CtrlMsg{MsgTag::kBcastDone, as.id() & 0xffffff, seq, 0});
  }
}

// ===========================================================================
// Reduction (paper §IV-D3)
// ===========================================================================

void Context::reduce_custom(void* target, const void* source,
                            std::size_t nreduce, std::size_t elem_size,
                            ReduceApply apply, bool is_fp, const ActiveSet& as,
                            ReduceAlgo algo) {
  reduce_engine(target, source, nreduce, elem_size, apply, is_fp, as, algo);
}

void Context::reduce_engine(void* target, const void* source,
                            std::size_t nreduce, std::size_t elem_size,
                            ReduceApply apply, bool is_fp, const ActiveSet& as,
                            ReduceAlgo algo) {
  if (!as.contains(pe_)) {
    throw std::invalid_argument("reduce: calling PE not in active set");
  }
  const tilesim::ProbeSpan probe(*tile_, tilesim::ProbeKind::kReduce,
                                "shmem_reduce");
  tile_->clock().advance(rt_->config().shmem_call_overhead_ps);
  const std::uint32_t seq = next_collective_seq(as);
  const int n = as.pe_size;
  const std::size_t bytes = nreduce * elem_size;
  probe.event(tile_->clock().now(), -1, bytes);

  auto charge_reduce_elems = [&](std::uint64_t elems) {
    if (is_fp) {
      tile_->charge_fp_ops(elems * kNaiveReduceOpsPerElement / 4);
      tile_->charge_int_ops(elems * kNaiveReduceOpsPerElement * 3 / 4);
    } else {
      tile_->charge_int_ops(elems * kNaiveReduceOpsPerElement);
    }
  };

  if (n == 1) {
    charge_local_copy(bytes, tilesim::MemSpace::kShared,
                      tilesim::MemSpace::kShared, {});
    std::memmove(target, source, bytes);
    return;
  }

  if (algo == ReduceAlgo::kRecursiveDoubling) {
    // §IV-E extension: binomial-tree combine (log2 n rounds of parallel
    // partial reductions) followed by a pull broadcast of the result.
    const int idx = as.index_of(pe_);
    std::vector<std::byte> acc(bytes);
    std::memcpy(acc.data(), source, bytes);
    std::vector<std::byte> incoming(bytes);
    // Receive buffer must be symmetric for partners to put into; use a
    // bounce allocation in shared memory.
    auto* stage = static_cast<std::byte*>(rt_->alloc_bounce(bytes, pe_));
    for (int span = 1; span < n; span <<= 1) {
      if (idx % (span << 1) == span) {
        const int parent = as.pe_at(idx - span);
        // Push my partial into the parent's stage buffer. Stage buffers are
        // distinct mappings per PE, so translate manually via put to self-
        // addressable shared memory: parent reads my stage directly.
        std::memcpy(stage, acc.data(), bytes);
        charge_local_copy(bytes, tilesim::MemSpace::kShared,
                          tilesim::MemSpace::kPrivate, {});
        quiet();
        send_ctrl(parent, tmc::kUdnCollectiveQueue,
                  CtrlMsg{MsgTag::kReduceReady, as.id() & 0xffffff, seq,
                          reinterpret_cast<std::uint64_t>(stage)});
        break;  // sent up; wait for the broadcast below
      }
      if (idx % (span << 1) == 0 && idx + span < n) {
        const int child = as.pe_at(idx + span);
        const CtrlMsg msg = recv_ctrl(tmc::kUdnCollectiveQueue,
                                      MsgTag::kReduceReady, child);
        const auto* child_stage =
            reinterpret_cast<const std::byte*>(msg.aux);
        charge_local_copy(bytes, tilesim::MemSpace::kPrivate,
                          tilesim::MemSpace::kShared, {});
        std::memcpy(incoming.data(), child_stage, bytes);
        charge_reduce_elems(nreduce);
        apply(acc.data(), incoming.data(), nreduce);
      }
    }
    if (as.index_of(pe_) == 0) {
      charge_local_copy(bytes, tilesim::MemSpace::kShared,
                        tilesim::MemSpace::kPrivate, {});
      std::memcpy(target, acc.data(), bytes);
      quiet();
    }
    bcast_pull(target, target, bytes, 0, as, seq);
    return;
  }

  // Naive design (paper §IV-D3): the root continuously gets data from each
  // remote PE in turn and folds it into the running result — serialized on
  // one tile, hence Fig 12's flat aggregate bandwidth.
  const int root = as.pe_at(0);
  if (pe_ == root) {
    std::vector<std::byte> acc(bytes);
    std::memcpy(acc.data(), source, bytes);
    charge_local_copy(bytes, tilesim::MemSpace::kPrivate,
                      tilesim::MemSpace::kShared, {});
    // Wait for every member's source to be stable.
    for (int i = 1; i < n; ++i) {
      recv_ctrl(tmc::kUdnCollectiveQueue, MsgTag::kReduceReady, as.pe_at(i));
    }
    std::vector<std::byte> chunk(std::min(bytes, kReduceChunkBytes));
    for (int i = 1; i < n; ++i) {
      const int peer = as.pe_at(i);
      for (std::size_t off = 0; off < bytes; off += kReduceChunkBytes) {
        const std::size_t len = std::min(kReduceChunkBytes, bytes - off);
        get(chunk.data(),
            static_cast<const std::byte*>(source) + off, len, peer);
        const std::size_t elems = len / elem_size;
        charge_reduce_elems(elems);
        apply(acc.data() + off, chunk.data(), elems);
      }
    }
    charge_local_copy(bytes, tilesim::MemSpace::kShared,
                      tilesim::MemSpace::kPrivate, {});
    std::memcpy(target, acc.data(), bytes);
    quiet();
    bcast_pull(target, target, bytes, 0, as, seq);
  } else {
    quiet();  // my source must be visible before the root reads it
    send_ctrl(root, tmc::kUdnCollectiveQueue,
              CtrlMsg{MsgTag::kReduceReady, as.id() & 0xffffff, seq, 0});
    bcast_pull(target, target, bytes, 0, as, seq);
  }
}

}  // namespace tshmem
