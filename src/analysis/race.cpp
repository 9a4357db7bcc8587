#include "analysis/race.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <tuple>

namespace tshmem::analysis {

namespace {

/// Suggests the missing sync op for a conflicting pair. Pure function of
/// the (canonicalized) endpoints, so merged reports stay deterministic.
std::string suggest_fix(const RaceEndpoint& a, const RaceEndpoint& b) {
  if (a.via_dma || b.via_dma) {
    return "call shmem_quiet() before reusing or reading buffers touched "
           "by outstanding _nbi transfers";
  }
  if (a.kind == AccessKind::kAtomic || b.kind == AccessKind::kAtomic) {
    return "make both accesses atomic (or guard the plain access with "
           "shmem_set_lock/shmem_clear_lock)";
  }
  if (a.kind == AccessKind::kWrite && b.kind == AccessKind::kWrite) {
    return "order the writers with shmem_barrier_all()/shmem_barrier() or "
           "serialize them with shmem_set_lock/shmem_clear_lock";
  }
  return "separate the write from the read with shmem_barrier_all() or a "
         "shmem_wait_until() on a flag written after the data";
}

std::uint64_t channel_key(int src, int dst, int queue) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src))
          << 36) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst))
          << 8) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(queue));
}

}  // namespace

const char* access_kind_name(AccessKind k) noexcept {
  switch (k) {
    case AccessKind::kRead: return "read";
    case AccessKind::kWrite: return "write";
    case AccessKind::kAtomic: return "atomic";
  }
  return "unknown";
}

bool operator==(const RaceEndpoint& a, const RaceEndpoint& b) {
  return a.pe == b.pe && a.via_dma == b.via_dma && a.kind == b.kind &&
         a.site == b.site && a.vt_ps == b.vt_ps;
}

bool operator==(const RaceReport& a, const RaceReport& b) {
  return a.first == b.first && a.second == b.second &&
         a.owner_pe == b.owner_pe && a.is_static == b.is_static &&
         a.offset == b.offset && a.bytes == b.bytes &&
         a.suggestion == b.suggestion;
}

std::string RaceReport::describe() const {
  auto endpoint = [](const RaceEndpoint& e) {
    std::ostringstream os;
    os << access_kind_name(e.kind) << " by PE " << e.pe
       << (e.via_dma ? " (dma)" : "") << " in " << e.site << " @"
       << e.vt_ps << "ps";
    return os.str();
  };
  std::ostringstream os;
  os << "race on PE " << owner_pe << "'s "
     << (is_static ? "static arena" : "symmetric partition") << " [+"
     << offset << ", " << bytes << "B): " << endpoint(first) << " vs "
     << endpoint(second) << "; fix: " << suggestion;
  return os.str();
}

void write_race_reports_json(std::ostream& os,
                             const std::vector<RaceReport>& reports) {
  auto endpoint = [&os](const char* name, const RaceEndpoint& e) {
    os << '"' << name << "\":{\"pe\":" << e.pe
       << ",\"via_dma\":" << (e.via_dma ? "true" : "false") << ",\"kind\":\""
       << access_kind_name(e.kind) << "\",\"site\":\"" << e.site
       << "\",\"vt_ps\":" << e.vt_ps << '}';
  };
  os << "{\"schema\":\"tshmem.races.v1\",\"reports\":[";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const RaceReport& r = reports[i];
    if (i != 0) os << ',';
    os << '{';
    endpoint("first", r.first);
    os << ',';
    endpoint("second", r.second);
    os << ",\"owner_pe\":" << r.owner_pe << ",\"is_static\":"
       << (r.is_static ? "true" : "false") << ",\"offset\":" << r.offset
       << ",\"bytes\":" << r.bytes << ",\"suggestion\":\"" << r.suggestion
       << "\"}";
  }
  os << "]}\n";
}

// ===========================================================================
// RaceDetector
// ===========================================================================

bool RaceDetector::PairKey::operator<(const PairKey& o) const {
  return std::tie(region, actor_a, actor_b, kind_a, kind_b, site_a,
                  site_b) < std::tie(o.region, o.actor_a, o.actor_b,
                                     o.kind_a, o.kind_b, o.site_a, o.site_b);
}

RaceDetector::RaceDetector(int npes) : RaceDetector(npes, Options{}) {}

RaceDetector::RaceDetector(int npes, Options opts)
    : npes_(npes), opts_(opts) {
  if (npes < 1) throw std::invalid_argument("RaceDetector: npes < 1");
  if (!valid_granule(opts_.granule)) {
    throw std::invalid_argument(
        "RaceDetector: granule must be a power of two in [1, 64]");
  }
  clocks_.assign(static_cast<std::size_t>(2 * npes),
                 VectorClock(static_cast<std::size_t>(2 * npes)));
  // Epochs start at 1: a peer that has synchronized with nobody holds an
  // all-zero view, which must NOT cover anyone's first access.
  for (std::size_t i = 0; i < clocks_.size(); ++i) clocks_[i].tick(i);
}

void RaceDetector::add_region(int owner_pe, bool is_static, std::byte* base,
                              std::size_t bytes) {
  std::scoped_lock lk(mu_);
  regions_.push_back(Region{owner_pe, is_static, base, bytes, {}});
}

RaceDetector::Resolved RaceDetector::resolve(const void* p) noexcept {
  const auto* b = static_cast<const std::byte*>(p);
  for (Region& r : regions_) {
    if (b >= r.base && b < r.base + r.bytes) {
      return Resolved{&r, static_cast<std::size_t>(b - r.base)};
    }
  }
  return Resolved{};
}

std::uint64_t RaceDetector::byte_mask(std::size_t first, std::size_t last) {
  // Bits [first, last) set; `last - first` is at most 64.
  const std::size_t n = last - first;
  const std::uint64_t bits =
      n >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << n) - 1);
  return bits << first;
}

void RaceDetector::record_conflict(std::size_t region_idx,
                                   const AccessRec& prev,
                                   const AccessRec& cur,
                                   std::uint64_t offset, std::uint64_t end) {
  ++stats_.race_pairs;
  // Canonicalize the endpoint order by (actor, kind, site) so the merged
  // report does not depend on which access the detector observed second.
  auto as_tuple = [](const AccessRec& a) {
    return std::make_tuple(a.actor, static_cast<int>(a.kind),
                           std::string_view(a.site));
  };
  const AccessRec& a = as_tuple(prev) <= as_tuple(cur) ? prev : cur;
  const AccessRec& b = as_tuple(prev) <= as_tuple(cur) ? cur : prev;
  PairKey key{static_cast<int>(region_idx), a.actor, b.actor,
              static_cast<std::uint8_t>(a.kind),
              static_cast<std::uint8_t>(b.kind), a.site, b.site};
  auto it = pairs_.find(key);
  if (it == pairs_.end()) {
    if (pairs_.size() >= opts_.max_reports) {
      ++stats_.dropped_reports;
      return;
    }
    pairs_.emplace(std::move(key), PairAgg{offset, end, a.vt_ps, b.vt_ps});
    return;
  }
  PairAgg& agg = it->second;
  agg.min_offset = std::min(agg.min_offset, offset);
  agg.max_end = std::max(agg.max_end, end);
  agg.vt_a = std::min(agg.vt_a, a.vt_ps);
  agg.vt_b = std::min(agg.vt_b, b.vt_ps);
}

void RaceDetector::access_locked(int actor, AccessKind kind,
                                 const Resolved& r, std::size_t bytes,
                                 const char* site, std::uint64_t vt_ps) {
  Region& region = *r.region;
  const std::size_t region_idx =
      static_cast<std::size_t>(r.region - regions_.data());
  const VectorClock& my = clocks_[static_cast<std::size_t>(actor)];
  const std::uint64_t my_clk = my.at(static_cast<std::size_t>(actor));

  const std::size_t g = opts_.granule;
  const std::size_t begin = r.offset;
  const std::size_t end = std::min(r.offset + bytes, region.bytes);
  for (std::size_t gran = begin / g; gran * g < end; ++gran) {
    ++stats_.checked_granules;
    const std::size_t lo = std::max(begin, gran * g) - gran * g;
    const std::size_t hi = std::min(end, (gran + 1) * g) - gran * g;
    const std::uint64_t mask = byte_mask(lo, hi);
    const AccessRec cur{actor, kind, my_clk, vt_ps, site, mask};
    Cell& cell = region.cells[gran];

    auto conflicts = [&](const AccessRec& prev) {
      if (prev.actor == actor) return false;
      if ((prev.mask & mask) == 0) return false;
      if (prev.kind == AccessKind::kRead && kind == AccessKind::kRead) {
        return false;
      }
      if (prev.kind == AccessKind::kAtomic && kind == AccessKind::kAtomic) {
        return false;
      }
      return !my.covers(Epoch{prev.actor, prev.clk});
    };
    auto scan = [&](std::vector<AccessRec>& list) {
      for (const AccessRec& prev : list) {
        if (conflicts(prev)) {
          record_conflict(region_idx, prev, cur, gran * g + lo,
                          gran * g + hi);
        }
      }
    };
    // Reads conflict with prior writes; writes/atomics with everything.
    scan(cell.writers);
    if (kind != AccessKind::kRead) scan(cell.readers);

    // Update the shadow cell. Entries by the same actor are replaced
    // (program order makes the old epoch redundant for the covered bytes);
    // ordered entries fully covered by this access are superseded.
    auto update = [&](std::vector<AccessRec>& list) {
      std::erase_if(list, [&](const AccessRec& prev) {
        if (prev.actor == actor) return (prev.mask & ~mask) == 0;
        return kind != AccessKind::kRead && (prev.mask & ~mask) == 0 &&
               my.covers(Epoch{prev.actor, prev.clk});
      });
      list.push_back(cur);
    };
    if (kind == AccessKind::kRead) {
      update(cell.readers);
    } else {
      update(cell.writers);
    }
  }
}

void RaceDetector::on_access(int pe, bool via_dma, AccessKind kind,
                             const void* p, std::size_t bytes,
                             const char* site, std::uint64_t vt_ps) {
  if (bytes == 0) return;
  std::scoped_lock lk(mu_);
  const Resolved r = resolve(p);
  if (r.region == nullptr) return;
  ++stats_.checked_accesses;
  access_locked(via_dma ? dma_actor(pe) : pe, kind, r, bytes, site, vt_ps);
}

void RaceDetector::on_nbi_issue(int pe, const void* read_side,
                                const void* write_side, std::size_t bytes,
                                const char* site, std::uint64_t issue_ps,
                                std::uint64_t complete_ps) {
  std::scoped_lock lk(mu_);
  const std::size_t d = static_cast<std::size_t>(dma_actor(pe));
  // The engine inherits the issuing PE's history, then starts a new epoch
  // of its own: subsequent PE-side accesses are unordered with the
  // transfer until on_quiet joins the engine back.
  clocks_[d].join(clocks_[static_cast<std::size_t>(pe)]);
  clocks_[d].tick(d);
  ++stats_.sync_edges;
  if (const Resolved r = resolve(read_side); r.region != nullptr) {
    ++stats_.checked_accesses;
    access_locked(static_cast<int>(d), AccessKind::kRead, r, bytes, site,
                  issue_ps);
  }
  if (const Resolved r = resolve(write_side); r.region != nullptr) {
    ++stats_.checked_accesses;
    access_locked(static_cast<int>(d), AccessKind::kWrite, r, bytes, site,
                  complete_ps);
  }
}

void RaceDetector::on_quiet(int pe) {
  std::scoped_lock lk(mu_);
  clocks_[static_cast<std::size_t>(pe)].join(
      clocks_[static_cast<std::size_t>(dma_actor(pe))]);
  ++stats_.sync_edges;
}

void RaceDetector::on_ctrl_send(int src_pe, int dst_pe, int queue, int tag) {
  std::scoped_lock lk(mu_);
  VectorClock& c = clocks_[static_cast<std::size_t>(src_pe)];
  channels_[channel_key(src_pe, dst_pe, queue)].emplace_back(tag, c);
  c.tick(static_cast<std::size_t>(src_pe));
}

void RaceDetector::on_ctrl_consume(int dst_pe, int src_pe, int queue,
                                   int tag) {
  std::scoped_lock lk(mu_);
  auto it = channels_.find(channel_key(src_pe, dst_pe, queue));
  if (it == channels_.end()) return;
  auto& fifo = it->second;
  // Consumption is matched by tag in FIFO order per channel — exactly the
  // order recv_ctrl's stash-or-match logic consumes messages, which is
  // protocol-determined and therefore schedule-independent.
  for (auto entry = fifo.begin(); entry != fifo.end(); ++entry) {
    if (entry->first == tag) {
      clocks_[static_cast<std::size_t>(dst_pe)].join(entry->second);
      ++stats_.sync_edges;
      fifo.erase(entry);
      return;
    }
  }
}

void RaceDetector::on_release(int pe, const void* p) {
  std::scoped_lock lk(mu_);
  const Resolved r = resolve(p);
  if (r.region == nullptr) return;
  const auto key = std::make_pair(
      static_cast<int>(r.region - regions_.data()),
      static_cast<std::uint64_t>(r.offset / opts_.granule));
  VectorClock& c = clocks_[static_cast<std::size_t>(pe)];
  release_clocks_[key].join(c);
  c.tick(static_cast<std::size_t>(pe));
  ++stats_.sync_edges;
}

void RaceDetector::on_acquire(int pe, const void* p) {
  std::scoped_lock lk(mu_);
  const Resolved r = resolve(p);
  if (r.region == nullptr) return;
  const auto key = std::make_pair(
      static_cast<int>(r.region - regions_.data()),
      static_cast<std::uint64_t>(r.offset / opts_.granule));
  if (const auto it = release_clocks_.find(key);
      it != release_clocks_.end()) {
    clocks_[static_cast<std::size_t>(pe)].join(it->second);
    ++stats_.sync_edges;
  }
}

void RaceDetector::on_atomic(int pe, const void* p, std::size_t bytes,
                             const char* site, std::uint64_t vt_ps) {
  std::scoped_lock lk(mu_);
  const Resolved r = resolve(p);
  if (r.region == nullptr) return;
  const auto key = std::make_pair(
      static_cast<int>(r.region - regions_.data()),
      static_cast<std::uint64_t>(r.offset / opts_.granule));
  VectorClock& c = clocks_[static_cast<std::size_t>(pe)];
  // Acquire: even a failed CAS observes the location, ordering us after
  // every prior release on it (this is what makes lock spin loops sound).
  if (const auto it = release_clocks_.find(key);
      it != release_clocks_.end()) {
    c.join(it->second);
  }
  ++stats_.checked_accesses;
  access_locked(pe, AccessKind::kAtomic, r, bytes, site, vt_ps);
  // Release: publish the joined clock back to the location.
  release_clocks_[key].join(c);
  c.tick(static_cast<std::size_t>(pe));
  ++stats_.sync_edges;
}

void RaceDetector::on_heap_free(const void* p, std::size_t bytes) {
  if (p == nullptr || bytes == 0) return;
  std::scoped_lock lk(mu_);
  const Resolved r = resolve(p);
  if (r.region == nullptr) return;
  const int region_idx = static_cast<int>(r.region - regions_.data());
  const std::size_t g = opts_.granule;
  const std::size_t end = std::min(r.offset + bytes, r.region->bytes);
  for (std::size_t gran = r.offset / g; gran * g < end; ++gran) {
    r.region->cells.erase(gran);
    release_clocks_.erase({region_idx, gran});
  }
}

void RaceDetector::on_rendezvous_arrive(const void* barrier,
                                        std::uint64_t generation, int tile) {
  if (tile < 0 || tile >= npes_) return;
  std::scoped_lock lk(mu_);
  rendezvous_[{barrier, generation}].joined.join(
      clocks_[static_cast<std::size_t>(tile)]);
}

void RaceDetector::on_rendezvous_release(const void* barrier,
                                         std::uint64_t generation, int tile,
                                         int parties) {
  if (tile < 0 || tile >= npes_) return;
  std::scoped_lock lk(mu_);
  const auto it = rendezvous_.find({barrier, generation});
  if (it == rendezvous_.end()) return;
  VectorClock& c = clocks_[static_cast<std::size_t>(tile)];
  c.join(it->second.joined);
  c.tick(static_cast<std::size_t>(tile));
  ++stats_.sync_edges;
  if (++it->second.released >= parties) rendezvous_.erase(it);
}

std::vector<RaceReport> RaceDetector::reports() const {
  std::scoped_lock lk(mu_);
  std::vector<RaceReport> out;
  out.reserve(pairs_.size());
  for (const auto& [key, agg] : pairs_) {
    const Region& region = regions_[static_cast<std::size_t>(key.region)];
    auto endpoint = [this](std::int32_t actor, std::uint8_t kind,
                           const std::string& site, std::uint64_t vt) {
      RaceEndpoint e;
      e.pe = actor % npes_;
      e.via_dma = actor >= npes_;
      e.kind = static_cast<AccessKind>(kind);
      e.site = site;
      e.vt_ps = vt;
      return e;
    };
    RaceReport r;
    r.first = endpoint(key.actor_a, key.kind_a, key.site_a, agg.vt_a);
    r.second = endpoint(key.actor_b, key.kind_b, key.site_b, agg.vt_b);
    r.owner_pe = region.owner_pe;
    r.is_static = region.is_static;
    r.offset = agg.min_offset;
    r.bytes = agg.max_end - agg.min_offset;
    r.suggestion = suggest_fix(r.first, r.second);
    out.push_back(std::move(r));
  }
  // pairs_ is an ordered map keyed by the canonical PairKey, so `out` is
  // already in a deterministic, schedule-independent order.
  return out;
}

RaceDetector::Stats RaceDetector::stats() const {
  std::scoped_lock lk(mu_);
  return stats_;
}

VectorClock RaceDetector::clock_of(int actor) const {
  std::scoped_lock lk(mu_);
  return clocks_.at(static_cast<std::size_t>(actor));
}

}  // namespace tshmem::analysis
