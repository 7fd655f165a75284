// Typed 802.11 management frame bodies (IEEE 802.11-2012 §8.3.3).
//
// Each struct encodes/decodes the frame *body*; frame.hpp pairs a body
// with a MacHeader and FCS to form the full MPDU. These are the frames
// the paper counts when it says establishing a connection costs "at
// least 20 MAC-layer frames" — and Beacon is the one frame Wi-LE keeps.
#pragma once

#include <cstdint>
#include <optional>

#include "dot11/ie.hpp"
#include "util/byte_buffer.hpp"

namespace wile::dot11 {

/// Capability Information bits (§8.4.1.4).
struct Capability {
  static constexpr std::uint16_t kEss = 0x0001;
  static constexpr std::uint16_t kIbss = 0x0002;
  static constexpr std::uint16_t kPrivacy = 0x0010;
  static constexpr std::uint16_t kShortPreamble = 0x0020;
  static constexpr std::uint16_t kShortSlot = 0x0400;
};

/// Status codes (§8.4.1.9), the subset our AP emits.
enum class StatusCode : std::uint16_t {
  Success = 0,
  UnspecifiedFailure = 1,
  AuthAlgoUnsupported = 13,
  AssocDenied = 17,
};

struct Beacon {
  std::uint64_t timestamp_us = 0;       // TSF at transmission
  std::uint16_t beacon_interval_tu = 100;  // 1 TU = 1024 us
  std::uint16_t capability = Capability::kEss;
  IeList ies;

  [[nodiscard]] Bytes encode() const;
  static std::optional<Beacon> decode(BytesView body);
};

struct ProbeRequest {
  IeList ies;  // SSID (possibly wildcard) + supported rates

  [[nodiscard]] Bytes encode() const;
  static std::optional<ProbeRequest> decode(BytesView body);
};

/// Probe responses share the beacon body layout (minus TIM).
struct ProbeResponse {
  std::uint64_t timestamp_us = 0;
  std::uint16_t beacon_interval_tu = 100;
  std::uint16_t capability = Capability::kEss;
  IeList ies;

  [[nodiscard]] Bytes encode() const;
  static std::optional<ProbeResponse> decode(BytesView body);
};

struct Authentication {
  enum class Algorithm : std::uint16_t { OpenSystem = 0, SharedKey = 1 };
  Algorithm algorithm = Algorithm::OpenSystem;
  std::uint16_t transaction_seq = 1;  // 1 = request, 2 = response
  StatusCode status = StatusCode::Success;

  [[nodiscard]] Bytes encode() const;
  static std::optional<Authentication> decode(BytesView body);
};

struct AssocRequest {
  std::uint16_t capability = Capability::kEss;
  std::uint16_t listen_interval = 3;  // beacons; matches WiFi-PS skip of 3
  IeList ies;                         // SSID, rates, RSN, HT caps

  [[nodiscard]] Bytes encode() const;
  static std::optional<AssocRequest> decode(BytesView body);
};

struct AssocResponse {
  std::uint16_t capability = Capability::kEss;
  StatusCode status = StatusCode::Success;
  std::uint16_t aid = 0;  // association ID (with the two MSBs set on air)
  IeList ies;

  [[nodiscard]] Bytes encode() const;
  static std::optional<AssocResponse> decode(BytesView body);
};

}  // namespace wile::dot11
