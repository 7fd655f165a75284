// LLC/SNAP encapsulation (IEEE 802.2).
//
// 802.11 data frame bodies carry LLC/SNAP-wrapped network packets:
//   AA AA 03 | 00 00 00 | ethertype(2, BE) | payload
// The paper's connection-establishment accounting includes "7 higher-
// layer frames including DHCP and ARP" — each of those rides inside one
// of these.
#pragma once

#include <cstdint>
#include <optional>

#include "util/byte_buffer.hpp"

namespace wile::net {

enum class EtherType : std::uint16_t {
  Ipv4 = 0x0800,
  Arp = 0x0806,
  Eapol = 0x888e,
};

struct LlcSnap {
  static constexpr std::size_t kHeaderSize = 8;

  EtherType ethertype = EtherType::Ipv4;
  Bytes payload;

  static std::optional<LlcSnap> decode(BytesView body);
};

/// Convenience: wrap `payload` in LLC/SNAP with the given ethertype.
Bytes llc_wrap(EtherType ethertype, BytesView payload);

}  // namespace wile::net
