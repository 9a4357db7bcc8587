#include "tshmem/token_barrier.hpp"

#include <algorithm>
#include <stdexcept>

#include "tmc/udn.hpp"

namespace tshmem {

namespace {
/// A token is a two-word control message.
constexpr int kTokenWords = 2;

/// The closed form's evaluation into `t` (one entry per member), with
/// hops[i] the wire latency of member i's token to member i+1.
void linear_token_times(std::span<const ps_t> arrivals,
                        std::span<const ps_t> hops, ps_t forward, ps_t inject,
                        std::span<TokenTimes> t) {
  const std::size_t n = t.size();
  // WAIT loop: the start forwards on arrival; every other member forwards
  // once it has both arrived and received the token. `sent` is the
  // forwarder's clock when the token leaves.
  auto wait_sent = [&](std::size_t i) {
    return i == 0 ? arrivals[0] + forward
                  : std::max(arrivals[i], t[i].wait_in) + forward;
  };
  for (std::size_t i = 1; i < n; ++i) {
    t[i].wait_in = wait_sent(i - 1) + hops[i - 1];
  }
  t[0].wait_in = wait_sent(n - 1) + hops[n - 1];
  // RELEASE loop: each member forwards once its WAIT send has injected and
  // the release has arrived.
  ps_t sent = std::max(wait_sent(0) + inject, t[0].wait_in) + forward;
  for (std::size_t i = 1; i < n; ++i) {
    t[i].release_in = sent + hops[i - 1];
    sent = std::max(wait_sent(i) + inject, t[i].release_in) + forward;
  }
  t[0].release_in = sent + hops[n - 1];
}
}  // namespace

std::vector<TokenTimes> linear_token_schedule(std::span<const ps_t> arrivals,
                                              std::span<const int> pes,
                                              const tilesim::DeviceConfig& cfg) {
  const std::size_t n = pes.size();
  if (n < 2 || arrivals.size() != n) {
    throw std::invalid_argument(
        "linear_token_schedule: needs one arrival per member, >= 2 members");
  }
  const tilesim::Topology topo(cfg);
  std::vector<ps_t> hops(n);
  for (std::size_t i = 0; i < n; ++i) {
    hops[i] = tmc::udn_wire_latency_ps(cfg, topo, pes[i], pes[(i + 1) % n],
                                       kTokenWords);
  }
  std::vector<TokenTimes> t(n);
  linear_token_times(arrivals, hops, cfg.barrier_forward_ps,
                     kTokenWords * cfg.cycle_ps(), t);
  return t;
}

TokenBarrier::TokenBarrier(const ActiveSet& as, const tilesim::Device& device)
    : meet_(as.pe_size, "token barrier", tilesim::RendezvousReport::kSync),
      forward_(device.config().barrier_forward_ps),
      inject_(kTokenWords * device.config().cycle_ps()),
      hops_(static_cast<std::size_t>(as.pe_size)),
      times_(hops_.size()) {
  // Each member's tile is its PE number.
  const int n = as.pe_size;
  for (int i = 0; i < n; ++i) {
    hops_[static_cast<std::size_t>(i)] = tmc::udn_wire_latency_ps(
        device.config(), device.topology(), as.pe_at(i),
        as.pe_at((i + 1) % n), kTokenWords);
  }
}

TokenTimes TokenBarrier::wait(tilesim::Tile& self, int index) {
  meet_.arrive(self, index,
               [&](std::span<const ps_t> clocks, std::span<const int>) {
                 linear_token_times(clocks, hops_, forward_, inject_, times_);
               });
  return times_[static_cast<std::size_t>(index)];
}

}  // namespace tshmem
