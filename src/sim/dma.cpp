#include "sim/dma.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace tilesim {

DmaDescriptor DmaEngine::issue(int peer, bool is_put, std::size_t bytes,
                               ps_t issue_ps, ps_t transfer_cost_ps,
                               ps_t stall_ps) {
  std::scoped_lock lk(mu_);
  DmaDescriptor d;
  d.id = next_id_++;
  d.peer = peer;
  d.is_put = is_put;
  d.bytes = bytes;
  d.issue_ps = issue_ps;
  d.start_ps = std::max(issue_ps, engine_free_ps_) + stall_ps;
  d.complete_ps = d.start_ps + cfg_->dma_setup_ps + transfer_cost_ps;
  engine_free_ps_ = d.complete_ps;
  pending_.push_back(d);
  ++stats_.issued;
  stats_.bytes += bytes;
  stats_.peak_pending = std::max(
      stats_.peak_pending, static_cast<std::uint64_t>(pending_.size()));
  return d;
}

std::size_t DmaEngine::pending() const {
  std::scoped_lock lk(mu_);
  return pending_.size();
}

ps_t DmaEngine::engine_free_ps() const {
  std::scoped_lock lk(mu_);
  return engine_free_ps_;
}

DmaEngine::DrainResult DmaEngine::drain_all() {
  std::scoped_lock lk(mu_);
  DrainResult r;
  for (const DmaDescriptor& d : pending_) {
    r.max_complete_ps = std::max(r.max_complete_ps, d.complete_ps);
    r.busy_ps += d.complete_ps - d.start_ps;
  }
  r.retired = pending_.size();
  stats_.retired += pending_.size();
  pending_.clear();
  return r;
}

std::vector<DmaDescriptor> DmaEngine::pending_snapshot() const {
  std::scoped_lock lk(mu_);
  return pending_;
}

DmaStats DmaEngine::stats() const {
  std::scoped_lock lk(mu_);
  return stats_;
}

void DmaEngine::reset() {
  std::scoped_lock lk(mu_);
  if (!pending_.empty()) {
    // Name the owning PE and the queue depth: "which engine, how much"
    // is the first thing anyone debugging a stuck reset needs.
    const std::string who =
        tile_id_ >= 0 ? "PE " + std::to_string(tile_id_) : "unattached engine";
    throw std::logic_error(
        "DmaEngine::reset on " + who + " with " +
        std::to_string(pending_.size()) +
        " in-flight descriptor(s): call shmem_quiet() before resetting "
        "clocks");
  }
  engine_free_ps_ = 0;
  next_id_ = 1;
  stats_ = DmaStats{};
}

void DmaEngine::clear() {
  std::scoped_lock lk(mu_);
  pending_.clear();
  engine_free_ps_ = 0;
  next_id_ = 1;
  stats_ = DmaStats{};
}

}  // namespace tilesim
