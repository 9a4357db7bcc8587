// The §IV-C1 linear token barrier in closed form, and the host rendezvous
// that evaluates it.
//
// A WAIT token leaves the start tile, circulates through the active set and
// returns; a RELEASE token then makes the same loop. When nothing perturbs
// the individual tokens, the timestamps every member sees are a pure
// function of the members' arrival clocks: linear_token_schedule computes
// them, and TokenBarrier gathers the arrivals in one tilesim::Rendezvous so
// the last arriver can evaluate it and wake everyone at once, instead of 2n
// chained thread handoffs. Each member then replays on its own clock the
// advances and probe records the message path would have made
// (Context::barrier_linear).
#pragma once

#include <span>
#include <vector>

#include "sim/device.hpp"
#include "sim/rendezvous.hpp"
#include "tshmem/types.hpp"

namespace tshmem {

using tilesim::ps_t;

/// When the two tokens reach one member of the loop.
struct TokenTimes {
  ps_t wait_in = 0;     ///< WAIT token arrives from the previous member
  ps_t release_in = 0;  ///< RELEASE token arrives from the previous member
};

/// Closed form of the linear token loop over `pes` (member i forwards to
/// member i+1, the last back to member 0), given each member's clock on
/// entry. Every forward costs cfg.barrier_forward_ps plus two cycles of
/// injection; every hop costs the two-word UDN wire latency. Pure: no
/// state, same answer on every host schedule.
[[nodiscard]] std::vector<TokenTimes> linear_token_schedule(
    std::span<const ps_t> arrivals, std::span<const int> pes,
    const tilesim::DeviceConfig& cfg);

/// One active set's token loop in a host rendezvous: reusable across
/// barrier generations. The release evaluates the closed form into the
/// barrier's own buffer, with each hop's latency computed at construction: it
/// allocates nothing while the other members wait.
class TokenBarrier {
 public:
  TokenBarrier(const ActiveSet& as, const tilesim::Device& device);

  /// Deposits the caller's clock as member `index`'s arrival, blocks until
  /// every member has arrived, and returns that member's token times. The
  /// caller's clock is not touched.
  TokenTimes wait(tilesim::Tile& self, int index);

 private:
  tilesim::Rendezvous meet_;
  ps_t forward_;
  ps_t inject_;
  std::vector<ps_t> hops_;  ///< member i's token to member i+1, by index
  std::vector<TokenTimes> times_;  ///< of the last completed generation
};

}  // namespace tshmem
