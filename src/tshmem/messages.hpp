// Control-message encoding for TSHMEM's UDN protocol traffic (barrier
// tokens, collective handshakes). Each control message is two UDN words:
//   word0 = [seq:32][set_id:24][tag:8]   word1 = aux payload
#pragma once

#include <cstdint>

namespace tshmem {

/// UDN words per control message: word0 and aux below.
inline constexpr int kCtrlMsgWords = 2;

enum class MsgTag : std::uint8_t {
  kBarrierWait = 1,
  kBarrierRelease = 2,
  kBarrierAck = 3,      // broadcast-release ablation: per-tile ack
  kBcastReady = 4,      // pull broadcast: root's data is readable
  kBcastDone = 5,       // pull broadcast: member finished its get
  kPushNotify = 6,      // push broadcast: root's put to you completed
  kCollectOffset = 7,   // collect: running offset token
  kCollectPutDone = 8,  // collect/fcollect: member's put into root landed
  kReduceReady = 9,     // reduction: member's source array is stable
  kTreeNotify = 10,     // binomial tree: parent's block is visible
  kAppMsg = 11,         // application-level messages (examples)
};

struct CtrlMsg {
  MsgTag tag = MsgTag::kAppMsg;
  std::uint32_t set_id = 0;  ///< low 24 bits used
  std::uint32_t seq = 0;
  std::uint64_t aux = 0;

  [[nodiscard]] std::uint64_t word0() const noexcept {
    return (static_cast<std::uint64_t>(seq) << 32) |
           ((static_cast<std::uint64_t>(set_id) & 0xffffff) << 8) |
           static_cast<std::uint64_t>(tag);
  }

  static CtrlMsg decode(std::uint64_t w0, std::uint64_t w1) noexcept {
    CtrlMsg m;
    m.tag = static_cast<MsgTag>(w0 & 0xff);
    m.set_id = static_cast<std::uint32_t>((w0 >> 8) & 0xffffff);
    m.seq = static_cast<std::uint32_t>(w0 >> 32);
    m.aux = w1;
    return m;
  }
};

}  // namespace tshmem
