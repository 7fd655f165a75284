// The Wi-LE payload container: messages inside 802.11 vendor-specific
// information elements.
//
// §4.1 of the paper: with the hidden-SSID trick the SSID field must be
// null, so "Wi-LE must place IoT devices' data in other fields. The
// 'vendor specific' information element field in the 802.11 beacon frame
// is a suitable place". This codec defines the byte layout inside that
// element:
//
//   OUI(3) subtype(1)                       -- element identification
//   ver(1) flags(1) device_id(4) seq(4)
//   type(1) [frag_idx(1) frag_cnt(1)] [win_off_ms(2) win_dur_ms(2)]
//   data_len(1) data(..) crc32(4)
//
// flags: bit0 = data encrypted (AEAD; tag included in data), bit1 =
// fragmented, bit2 = rx-window present; bits 3-7 are undefined and an
// element setting any of them is malformed. The CRC covers everything
// from `ver` through `data` (over the ciphertext when encrypted, so
// corrupt elements are rejected before any key work). Messages larger
// than one element are split across multiple vendor IEs in the same
// beacon or, when even that is not enough, across consecutive beacons —
// the receiver's reassembly does not care which.
//
// FEC (the ack-less uplink has no retransmission path, so reliability is
// open-loop redundancy): besides repeating the beacon train, a sender
// may send cross-cycle recovery beacons. A MessageType::Recovery message
// carries the XOR of the last K *message* payloads (RecoveryPayload
// below), so a receiver that missed one covered message rebuilds it.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "crypto/aead.hpp"
#include "dot11/ie.hpp"
#include "util/mac_address.hpp"
#include "wile/message.hpp"

namespace wile::core {

/// Organisationally-unique identifier used by Wi-LE elements.
constexpr std::array<std::uint8_t, 3> kWileOui = {0x57, 0x69, 0x4c};  // "WiL"
constexpr std::uint8_t kWileSubtype = 0x45;                           // "E"

/// One decoded element (possibly a fragment of a larger message).
struct Fragment {
  std::uint32_t device_id = 0;
  std::uint32_t sequence = 0;
  MessageType type = MessageType::Telemetry;
  std::uint8_t frag_index = 0;
  std::uint8_t frag_count = 1;
  std::optional<RxWindow> rx_window;
  Bytes data;  // decrypted if the codec has the key
};

enum class DecodeError {
  NotWile,        // wrong OUI/subtype/version
  Malformed,      // truncated or inconsistent lengths
  BadCrc,         // transmission survived FCS but container CRC failed
  DecryptFailed,  // AEAD tag mismatch (wrong key or tampering)
  KeyRequired,    // element is encrypted but codec has no key
};

class Codec {
 public:
  /// Plaintext codec.
  Codec() = default;
  /// Encrypting codec; `key` is the 16-byte device key.
  explicit Codec(BytesView key);

  [[nodiscard]] bool encrypted() const { return aead_.has_value(); }

  /// Usable data bytes in a single element for the given feature set.
  [[nodiscard]] std::size_t max_fragment_data(bool fragmented, bool has_window) const;

  /// Encode a message into one or more vendor IEs. Throws
  /// std::invalid_argument if the message needs more than 255 fragments.
  [[nodiscard]] std::vector<dot11::InfoElement> encode(const Message& message) const;

  /// How many elements encode(message) returns. Throws
  /// std::invalid_argument, as encode() does, past 255 fragments.
  [[nodiscard]] std::size_t element_count(const Message& message) const;

  /// Append element `index` of encode(message) to `w` as it goes on the
  /// air: id, length, then the payload. This is the one encoder; encode()
  /// is built on it, and the sender writes each element straight into
  /// its beacon. Allocates nothing but the writer's own growth, unless
  /// the codec encrypts.
  void write_element(ByteWriter& w, const Message& message, std::size_t index) const;

  /// Decode one vendor element's payload: OUI, subtype, then the
  /// container. This is the one element decoder; on failure it returns
  /// nullopt and, when `error` is given, sets it.
  [[nodiscard]] std::optional<Fragment> decode(BytesView payload,
                                               DecodeError* error = nullptr) const;

  /// Decode each vendor element of the chain `elements` in order, and
  /// call visit(std::optional<Fragment>&&, DecodeError) with the fragment,
  /// or with nullopt and the reason. Other elements are skipped, and the
  /// walk stops at a truncated element (read_beacon rejects such chains).
  /// Keeps no state, as decode() keeps none: a fleet's devices share one
  /// codec across shard threads.
  template <typename Visit>
  void for_each_fragment(BytesView elements, Visit&& visit) const {
    for (std::size_t at = 0, len = 0; at + 2 <= elements.size(); at += 2 + len) {
      len = elements[at + 1];
      if (at + 2 + len > elements.size()) return;
      if (elements[at] != static_cast<std::uint8_t>(dot11::IeId::VendorSpecific)) continue;
      // Two statements: in visit(decode(..., &error), error) the compiler
      // may read `error` before decode() sets it.
      DecodeError error{};
      auto fragment = decode(elements.subspan(at + 2, len), &error);
      visit(std::move(fragment), error);
    }
  }

  /// All Wi-LE fragments of an element list, failures dropped.
  [[nodiscard]] std::vector<Fragment> decode_all(const dot11::IeList& ies) const;

 private:
  /// How a message's data divides into elements: `count` slices of
  /// `per_frag` bytes, the last one shorter. count 1 = unfragmented.
  struct Split {
    std::size_t per_frag = 0;
    std::size_t count = 1;
  };
  [[nodiscard]] Split split(const Message& message) const;
  void write_one(ByteWriter& w, const Message& message, std::uint8_t frag_index,
                 std::uint8_t frag_count, BytesView data) const;

  std::optional<crypto::Aead> aead_;
};

// ---------------------------------------------------------------------------
// The one receive parse.
//
// §4: "an application looks for special beacon frames transmitted by IoT
// devices and extracts their data". Every Wi-LE listener (the gateway's
// Receiver, the two-way Controller and the device's own RX window) reads
// a received frame through read_beacon, then hands its element chain to
// Codec::for_each_fragment. Nothing is copied until a fragment's data.
// ---------------------------------------------------------------------------

/// Ordered: a beacon is Malformed or Ok.
enum class BeaconStatus : std::uint8_t {
  NotBeacon,  // unparseable, a control frame, or another frame type
  BadFcs,     // any frame whose FCS fails, beacon or not
  Malformed,  // a beacon whose body is short or whose element chain is truncated
  Ok,
};

/// A received beacon, read in place: the views point into the MPDU.
struct BeaconView {
  BeaconStatus status = BeaconStatus::NotBeacon;
  MacAddress addr3;                      // the BSSID the sender claims
  std::optional<std::string_view> ssid;  // the first SSID element, if any
  BytesView elements;                    // the element chain, every length checked
};

/// Read `mpdu` as a beacon. A truncated element chain makes the whole
/// beacon Malformed, the good elements before it included.
[[nodiscard]] BeaconView read_beacon(BytesView mpdu);

// ---------------------------------------------------------------------------
// FEC payload containers.
// ---------------------------------------------------------------------------

/// One message covered by a Recovery beacon: its original type and
/// payload length (needed to strip the XOR block's zero padding).
struct RecoveryEntry {
  MessageType type = MessageType::Telemetry;
  std::uint16_t length = 0;

  friend bool operator==(const RecoveryEntry&, const RecoveryEntry&) = default;
};

/// Payload of a MessageType::Recovery message: the XOR of the payloads
/// of the K consecutive uplink messages starting at `base_sequence`
/// (each zero-padded to the longest). Layout:
///   base_seq(4) k(1) k x [type(1) len(2)] xor_block(max len)
struct RecoveryPayload {
  std::uint32_t base_sequence = 0;
  std::vector<RecoveryEntry> entries;  // oldest first, size K (1..=32)
  Bytes xor_block;                     // length = max entry length

  friend bool operator==(const RecoveryPayload&, const RecoveryPayload&) = default;
};

/// Most messages a single Recovery beacon may cover.
constexpr std::size_t kMaxRecoveryGroup = 32;

/// The last N uplink payloads of one device, oldest first: the XOR inputs
/// of cross-cycle recovery, kept by the sender that builds Recovery
/// beacons and by the receiver that decodes them. Two heap blocks however
/// many payloads it holds: a ring of 8 B slot headers (sequence, type,
/// length), which grows to N and then overwrites the oldest in place, and
/// one byte array that gives every slot the same stride. The stride is
/// the longest payload held so far; a longer payload re-strides the array
/// and copies each held payload to its new place.
template <std::size_t N>
class PayloadHistory {
 public:
  /// A slot's length field is 16 bits, as RecoveryEntry's is. No message
  /// the codec can encode is longer (255 fragments of under 256 B).
  static constexpr std::size_t kMaxPayload = 0xffff;

  struct Entry {
    std::uint32_t sequence = 0;
    MessageType type = MessageType::Telemetry;
    BytesView data;  // valid until the next push
  };

  [[nodiscard]] std::size_t size() const { return slots_.size(); }
  /// The i-th oldest retained payload.
  [[nodiscard]] Entry operator[](std::size_t i) const {
    const std::size_t at = (head_ + i) % slots_.size();
    const Slot& slot = slots_[at];
    return {slot.sequence, slot.type, BytesView{bytes_.data() + at * stride_, slot.length}};
  }
  /// Retain `message`'s payload, dropping the oldest once N are held.
  /// Throws std::length_error past kMaxPayload bytes.
  void push(const Message& message) {
    const std::size_t length = message.data.size();
    if (length > kMaxPayload) throw std::length_error("PayloadHistory: payload too long");
    std::size_t at = head_;
    if (slots_.size() < N) {
      at = slots_.size();
      slots_.emplace_back();
    } else {
      head_ = (head_ + 1) % N;
    }
    if (length > stride_ || bytes_.size() != slots_.capacity() * stride_) {
      restride(std::max(length, stride_));
    }
    slots_[at] = {message.sequence, static_cast<std::uint16_t>(length), message.type};
    std::copy(message.data.begin(), message.data.end(),
              bytes_.begin() + static_cast<std::ptrdiff_t>(at * stride_));
  }
  /// The oldest retained payload carrying `sequence`, if any.
  [[nodiscard]] std::optional<Entry> find(std::uint32_t sequence) const {
    for (std::size_t i = 0; i < size(); ++i) {
      if (const Entry entry = (*this)[i]; entry.sequence == sequence) return entry;
    }
    return std::nullopt;
  }

 private:
  struct Slot {
    std::uint32_t sequence = 0;
    std::uint16_t length = 0;
    MessageType type = MessageType::Telemetry;
  };

  /// Room for every slot header the ring has capacity for, at `stride`.
  void restride(std::size_t stride) {
    Bytes bytes(slots_.capacity() * stride);
    for (std::size_t j = 0; j < slots_.size(); ++j) {
      const auto from = bytes_.begin() + static_cast<std::ptrdiff_t>(j * stride_);
      std::copy(from, from + slots_[j].length,
                bytes.begin() + static_cast<std::ptrdiff_t>(j * stride));
    }
    bytes_.swap(bytes);
    stride_ = stride;
  }

  std::vector<Slot> slots_;
  Bytes bytes_;  // slot j's payload starts at j * stride_
  std::size_t stride_ = 0;
  std::size_t head_ = 0;
};

/// Encode/decode a Recovery message payload. Encoding throws
/// std::invalid_argument on inconsistent sizes (0 or > kMaxRecoveryGroup
/// entries, xor_block shorter than the longest entry).
[[nodiscard]] Bytes encode_recovery_payload(const RecoveryPayload& payload);
[[nodiscard]] std::optional<RecoveryPayload> decode_recovery_payload(BytesView data);

// ---------------------------------------------------------------------------
// SSID stuffing — the related-work alternative (§2).
//
// "The work closest to ours is a technique called WiFi beacon-stuffing
// [Chandra'07] ... overloads some fields in the 802.11 beacon" — most
// prominently the SSID itself. We implement it as a comparison arm: the
// message rides in the SSID field, which caps the payload at 32 bytes
// minus header and, unlike the hidden-SSID vendor-IE scheme, pollutes
// every nearby device's network list (see ScanListModel).
// ---------------------------------------------------------------------------

/// Data bytes one stuffed SSID can carry (32 - magic(2) - device(2) -
/// seq(1) = 27).
constexpr std::size_t kSsidStuffingCapacity = 27;

/// Encode into an SSID-field payload. Returns nullopt if data exceeds
/// kSsidStuffingCapacity or device_id exceeds 16 bits (the field is too
/// small for the full header; that is the point of the comparison).
std::optional<std::string> encode_ssid_stuffed(const Message& message);

/// Decode an SSID captured from a beacon. Returns nullopt for ordinary
/// (human) network names.
std::optional<Fragment> decode_ssid_stuffed(std::string_view ssid);

/// Reassembles fragments into complete messages. One instance per
/// receiver; tolerates interleaved devices and lost fragments (stale
/// partial messages are dropped when a newer sequence arrives). Holds at
/// most `max_partials` in-progress messages — devices that go silent
/// mid-message are evicted oldest-first, so a monitor parked on a busy
/// channel is memory-bounded no matter how many devices it hears.
class Reassembler {
 public:
  static constexpr std::size_t kDefaultMaxPartials = 256;

  explicit Reassembler(std::size_t max_partials = kDefaultMaxPartials)
      : max_partials_(max_partials > 0 ? max_partials : 1) {}

  /// Feed one fragment; returns the completed message when all parts of
  /// its (device, sequence) group have arrived. The fragment's bytes move
  /// into the message, or into the partial until the group completes.
  std::optional<Message> add(Fragment fragment);

  /// Incomplete messages dropped to keep the partial table bounded.
  [[nodiscard]] std::uint64_t partials_evicted() const { return partials_evicted_; }
  [[nodiscard]] std::size_t partials() const { return partial_.size(); }

 private:
  struct Partial {
    std::uint32_t sequence = 0;
    std::uint8_t frag_count = 0;
    std::vector<std::optional<Bytes>> parts;
    MessageType type = MessageType::Telemetry;
    std::optional<RxWindow> rx_window;
    std::uint64_t last_touch = 0;  // monotonic tick for eviction order
  };

  std::unordered_map<std::uint32_t, Partial> partial_;  // by device id
  std::size_t max_partials_ = kDefaultMaxPartials;
  std::uint64_t tick_ = 0;
  std::uint64_t partials_evicted_ = 0;
};

}  // namespace wile::core
