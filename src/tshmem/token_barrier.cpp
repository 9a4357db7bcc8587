#include "tshmem/token_barrier.hpp"

#include <algorithm>
#include <stdexcept>

#include "tmc/udn.hpp"

namespace tshmem {

std::vector<TokenTimes> linear_token_schedule(std::span<const ps_t> arrivals,
                                              std::span<const int> pes,
                                              const tilesim::DeviceConfig& cfg) {
  const std::size_t n = pes.size();
  if (n < 2 || arrivals.size() != n) {
    throw std::invalid_argument(
        "linear_token_schedule: needs one arrival per member, >= 2 members");
  }
  const tilesim::Topology topo(cfg);
  const ps_t forward = cfg.barrier_forward_ps;
  const ps_t inject = 2 * cfg.cycle_ps();  // a two-word control message
  // hop[i]: member i's token to member i+1 (the last wraps to member 0).
  std::vector<ps_t> hop(n);
  for (std::size_t i = 0; i < n; ++i) {
    hop[i] = tmc::udn_wire_latency_ps(cfg, topo, pes[i], pes[(i + 1) % n], 2);
  }
  std::vector<TokenTimes> t(n);
  // WAIT loop: the start forwards on arrival; every other member forwards
  // once it has both arrived and received the token. `sent` is the
  // forwarder's clock when the token leaves.
  std::vector<ps_t> wait_sent(n);
  wait_sent[0] = arrivals[0] + forward;
  for (std::size_t i = 1; i < n; ++i) {
    t[i].wait_in = wait_sent[i - 1] + hop[i - 1];
    wait_sent[i] = std::max(arrivals[i], t[i].wait_in) + forward;
  }
  t[0].wait_in = wait_sent[n - 1] + hop[n - 1];
  // RELEASE loop: each member forwards once its WAIT send has injected and
  // the release has arrived.
  ps_t sent = std::max(wait_sent[0] + inject, t[0].wait_in) + forward;
  for (std::size_t i = 1; i < n; ++i) {
    t[i].release_in = sent + hop[i - 1];
    sent = std::max(wait_sent[i] + inject, t[i].release_in) + forward;
  }
  t[0].release_in = sent + hop[n - 1];
  return t;
}

}  // namespace tshmem
