// Wi-LE application messages.
//
// The paper's future-work section (§6) requires messages to "contain
// unique identifiers so that they can be distinguished from each other";
// we give every message a 32-bit device id and a 32-bit sequence number.
// The sequence number doubles as the AEAD nonce component when payload
// encryption is enabled and lets receivers estimate loss from gaps.
#pragma once

#include <cstdint>
#include <optional>

#include "util/byte_buffer.hpp"
#include "util/units.hpp"

namespace wile::core {

enum class MessageType : std::uint8_t {
  Telemetry = 1,  // periodic sensor reading (the paper's temperature demo)
  Event = 2,      // asynchronous notification
  Downlink = 3,   // controller -> device (two-way extension, §6)
  Probe = 4,      // device discovery / liveness
  /// Controller -> device acknowledgment of an uplink message; the
  /// 4-byte little-endian payload is the acknowledged sequence number.
  /// Rides RX windows like any Downlink and enables reliable mode.
  Ack = 5,
  /// Cross-cycle erasure coding: the payload is the XOR of the last K
  /// uplink message payloads (see RecoveryPayload in codec.hpp). A
  /// receiver that missed exactly one covered message reconstructs it
  /// without any retransmission. Uses its own sequence space so it never
  /// perturbs gap-based loss estimates.
  Recovery = 6,
};

/// The device-originated data types: the uplink stream that carries
/// sequence-gap loss accounting, XOR recovery and reliable-mode Acks.
/// Recovery beacons and controller traffic ride other sequence spaces.
constexpr bool is_uplink_data(MessageType type) {
  return type == MessageType::Telemetry || type == MessageType::Event ||
         type == MessageType::Probe;
}

/// The device's own streams, the only ones a listener tracks: uplink data
/// and its Recovery beacons. A controller's Acks and Downlinks reuse the
/// device id in the controller's downlink sequence space, so they would
/// read as uplink losses and duplicates.
constexpr bool is_uplink_stream(MessageType type) {
  return is_uplink_data(type) || type == MessageType::Recovery;
}

/// Two-way extension (§6): the device announces that it will listen for
/// `duration` starting `offset` after the end of this beacon.
struct RxWindow {
  Duration offset = msec(2);
  Duration duration = msec(20);

  friend bool operator==(const RxWindow&, const RxWindow&) = default;
};

struct Message {
  std::uint32_t device_id = 0;
  std::uint32_t sequence = 0;
  MessageType type = MessageType::Telemetry;
  Bytes data;
  std::optional<RxWindow> rx_window;

  friend bool operator==(const Message&, const Message&) = default;
};

}  // namespace wile::core
