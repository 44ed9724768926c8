// Wire packets exchanged between simulated NICs.
//
// The fabric treats packets as opaque: a protocol id selects the receiving
// NIC's handler, a POD header carries protocol metadata, and the payload
// carries data bytes. Headers are memcpy-serialized, which keeps the fabric
// decoupled from upper-layer types while still forcing upper layers to
// define an explicit wire format.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "common/diagnostics.hpp"
#include "simtime/engine.hpp"

namespace m3rma::fabric {

/// Fixed per-packet framing overhead (routing, CRC, ...) counted toward
/// transfer time. Roughly a SeaStar-class network header.
inline constexpr std::size_t kWireFramingBytes = 64;

/// Extra framing carried by packets that participate in the reliable
/// transport sublayer (fabric/reliability.hpp): a 32-bit stream sequence
/// number, a 32-bit cumulative ack, the flags and a 32-bit send timestamp
/// (injected_at, which the receiver's delayed-ack rule reads; the simulated
/// NICs share the engine clock). Only counted when rel_flags is nonzero, so
/// runs with reliability disabled are byte-identical to a build without it.
inline constexpr std::size_t kReliabilityFramingBytes = 20;

/// Packet::rel_flags bits.
inline constexpr std::uint8_t kRelFlagData = 0x1;  ///< rel_seq is valid
inline constexpr std::uint8_t kRelFlagAck = 0x2;   ///< rel_ack is valid
/// Ack-only packet sent the moment the receiver buffers an out-of-order
/// packet: the data packet numbered rel_ack + 1 is missing (ordered
/// fabrics only).
inline constexpr std::uint8_t kRelFlagGap = 0x4;

struct Packet {
  int src = -1;
  int dst = -1;
  int protocol = 0;
  std::vector<std::byte> header;
  std::vector<std::byte> payload;
  /// Injection sequence number per (src,dst) pair, assigned by the fabric.
  /// Reassigned on every injection, including retransmissions.
  std::uint64_t seq = 0;
  sim::Time injected_at = 0;
  /// Latency-attribution op tag (trace::op_tag): identifies the RMA op this
  /// packet works on behalf of, 0 when untagged. Pure metadata like seq —
  /// not part of the wire format, not counted by wire_size(), copied into
  /// reliability retransmit duplicates.
  std::uint64_t op = 0;
  /// Reliable-sublayer framing (all zero when reliability is disabled).
  /// rel_seq is the per-(src,dst,protocol) data stream sequence (1-based);
  /// rel_ack is the cumulative ack of the reverse stream.
  std::uint8_t rel_flags = 0;
  std::uint64_t rel_seq = 0;
  std::uint64_t rel_ack = 0;

  std::size_t wire_size() const {
    return kWireFramingBytes + header.size() + payload.size() +
           (rel_flags != 0 ? kReliabilityFramingBytes : 0);
  }
};

/// Serialize a trivially-copyable protocol header into the packet.
template <class H>
void set_header(Packet& p, const H& h) {
  static_assert(std::is_trivially_copyable_v<H>,
                "packet headers must be PODs");
  p.header.resize(sizeof(H));
  std::memcpy(p.header.data(), &h, sizeof(H));
}

/// Deserialize the packet's protocol header.
template <class H>
H get_header(const Packet& p) {
  static_assert(std::is_trivially_copyable_v<H>,
                "packet headers must be PODs");
  M3RMA_ENSURE(p.header.size() == sizeof(H), "packet header size mismatch");
  H h;
  std::memcpy(&h, p.header.data(), sizeof(H));
  return h;
}

}  // namespace m3rma::fabric
