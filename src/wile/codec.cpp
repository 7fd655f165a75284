#include "wile/codec.hpp"

#include <algorithm>
#include <stdexcept>

#include "crypto/crc.hpp"
#include "dot11/frame.hpp"

namespace wile::core {

namespace {
constexpr std::uint8_t kVersion = 1;
constexpr std::uint8_t kFlagEncrypted = 0x01;
constexpr std::uint8_t kFlagFragmented = 0x02;
constexpr std::uint8_t kFlagRxWindow = 0x04;
constexpr std::uint8_t kKnownFlags = kFlagEncrypted | kFlagFragmented | kFlagRxWindow;

// ver flags device_id seq type data_len crc
constexpr std::size_t kFixedOverhead = 1 + 1 + 4 + 4 + 1 + 1 + 4;
constexpr std::size_t kFragOverhead = 2;
constexpr std::size_t kWindowOverhead = 4;

crypto::Aead::Nonce make_nonce(std::uint32_t device_id, std::uint32_t sequence,
                               std::uint8_t frag_index) {
  crypto::Aead::Nonce nonce{};
  for (int i = 0; i < 4; ++i) nonce[i] = static_cast<std::uint8_t>(device_id >> (8 * i));
  for (int i = 0; i < 4; ++i) nonce[4 + i] = static_cast<std::uint8_t>(sequence >> (8 * i));
  nonce[8] = frag_index;
  return nonce;
}
}  // namespace

Codec::Codec(BytesView key) : aead_(crypto::Aead{key}) {}

std::size_t Codec::max_fragment_data(bool fragmented, bool has_window) const {
  std::size_t capacity = dot11::vendor_payload_capacity();  // after OUI+subtype
  capacity -= kFixedOverhead;
  if (fragmented) capacity -= kFragOverhead;
  if (has_window) capacity -= kWindowOverhead;
  if (aead_) capacity -= crypto::Aead::kTagSize;
  return capacity;
}

void Codec::write_one(ByteWriter& w, const Message& message, std::uint8_t frag_index,
                      std::uint8_t frag_count, BytesView data) const {
  const bool fragmented = frag_count > 1;
  std::uint8_t flags = 0;
  if (aead_) flags |= kFlagEncrypted;
  if (fragmented) flags |= kFlagFragmented;
  if (message.rx_window) flags |= kFlagRxWindow;

  BytesView body = data;  // data or sealed data
  Bytes sealed;
  if (aead_) {
    // Associated data binds identity fields so they cannot be spliced.
    std::array<std::uint8_t, 9> ad{};
    for (int i = 0; i < 4; ++i) ad[i] = static_cast<std::uint8_t>(message.device_id >> (8 * i));
    for (int i = 0; i < 4; ++i) {
      ad[4 + i] = static_cast<std::uint8_t>(message.sequence >> (8 * i));
    }
    ad[8] = frag_index;
    sealed = aead_->seal(make_nonce(message.device_id, message.sequence, frag_index), ad, data);
    body = sealed;
  }
  if (body.size() > 255) throw std::logic_error("Wi-LE fragment body exceeds length field");
  const std::size_t container = kFixedOverhead + (fragmented ? kFragOverhead : 0) +
                                (message.rx_window ? kWindowOverhead : 0) + body.size();
  if (container > dot11::vendor_payload_capacity()) {
    throw std::logic_error("Wi-LE element exceeded vendor IE capacity");
  }

  w.u8(static_cast<std::uint8_t>(dot11::IeId::VendorSpecific));
  w.u8(static_cast<std::uint8_t>(kWileOui.size() + 1 + container));
  w.bytes(kWileOui);
  w.u8(kWileSubtype);
  const std::size_t covered_from = w.size();
  w.u8(kVersion);
  w.u8(flags);
  w.u32le(message.device_id);
  w.u32le(message.sequence);
  w.u8(static_cast<std::uint8_t>(message.type));
  if (fragmented) {
    w.u8(frag_index);
    w.u8(frag_count);
  }
  if (message.rx_window) {
    w.u16le(static_cast<std::uint16_t>(message.rx_window->offset.count() / 1000));
    w.u16le(static_cast<std::uint16_t>(message.rx_window->duration.count() / 1000));
  }
  w.u8(static_cast<std::uint8_t>(body.size()));
  w.bytes(body);
  w.u32le(crypto::crc32(w.view().subspan(covered_from)));
}

Codec::Split Codec::split(const Message& message) const {
  const bool has_window = message.rx_window.has_value();
  if (message.data.size() <= max_fragment_data(false, has_window)) {
    return {message.data.size(), 1};
  }
  Split s;
  s.per_frag = max_fragment_data(true, has_window);
  s.count = (message.data.size() + s.per_frag - 1) / s.per_frag;
  if (s.count > 255) throw std::invalid_argument("Wi-LE message needs more than 255 fragments");
  return s;
}

std::size_t Codec::element_count(const Message& message) const {
  return split(message).count;
}

void Codec::write_element(ByteWriter& w, const Message& message, std::size_t index) const {
  const Split s = split(message);
  if (index >= s.count) throw std::out_of_range("Codec::write_element: no such element");
  const std::size_t off = index * s.per_frag;
  const std::size_t len = std::min(s.per_frag, message.data.size() - off);
  write_one(w, message, static_cast<std::uint8_t>(index), static_cast<std::uint8_t>(s.count),
            BytesView{message.data.data() + off, len});
}

std::vector<dot11::InfoElement> Codec::encode(const Message& message) const {
  const std::size_t n = element_count(message);
  std::vector<dot11::InfoElement> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ByteWriter w(2 + dot11::IeList::kMaxIeData);
    write_element(w, message, i);
    Bytes data = w.take();
    data.erase(data.begin(), data.begin() + 2);  // the element's id and length
    out.push_back({dot11::IeId::VendorSpecific, std::move(data)});
  }
  return out;
}

std::optional<Fragment> Codec::decode(BytesView element, DecodeError* error) const {
  auto fail = [&](DecodeError e) {
    if (error != nullptr) *error = e;
    return std::nullopt;
  };

  if (element.size() < 4 || !std::equal(kWileOui.begin(), kWileOui.end(), element.begin()) ||
      element[3] != kWileSubtype) {
    return fail(DecodeError::NotWile);
  }

  const BytesView payload = element.subspan(4);
  if (payload.size() < kFixedOverhead) return fail(DecodeError::Malformed);

  // CRC over everything before the trailing 4 bytes.
  const BytesView covered = payload.subspan(0, payload.size() - 4);
  ByteReader crc_r{payload.subspan(payload.size() - 4)};
  if (crypto::crc32(covered) != crc_r.u32le()) return fail(DecodeError::BadCrc);

  try {
    ByteReader r{covered};
    if (r.u8() != kVersion) return fail(DecodeError::NotWile);
    const std::uint8_t flags = r.u8();
    if ((flags & ~kKnownFlags) != 0) return fail(DecodeError::Malformed);
    Fragment f;
    f.device_id = r.u32le();
    f.sequence = r.u32le();
    f.type = static_cast<MessageType>(r.u8());
    if (flags & kFlagFragmented) {
      f.frag_index = r.u8();
      f.frag_count = r.u8();
      if (f.frag_count == 0 || f.frag_index >= f.frag_count) {
        return fail(DecodeError::Malformed);
      }
    }
    if (flags & kFlagRxWindow) {
      RxWindow win;
      win.offset = msec(r.u16le());
      win.duration = msec(r.u16le());
      f.rx_window = win;
    }
    const std::size_t body_len = r.u8();
    if (body_len != r.remaining()) return fail(DecodeError::Malformed);
    const BytesView body = r.bytes(body_len);

    if (flags & kFlagEncrypted) {
      if (!aead_) return fail(DecodeError::KeyRequired);
      std::array<std::uint8_t, 9> ad{};
      for (int i = 0; i < 4; ++i) ad[i] = static_cast<std::uint8_t>(f.device_id >> (8 * i));
      for (int i = 0; i < 4; ++i) ad[4 + i] = static_cast<std::uint8_t>(f.sequence >> (8 * i));
      ad[8] = f.frag_index;
      auto plain = aead_->open(make_nonce(f.device_id, f.sequence, f.frag_index), ad, body);
      if (!plain) return fail(DecodeError::DecryptFailed);
      f.data = std::move(*plain);
    } else {
      f.data.assign(body.begin(), body.end());
    }
    return f;
  } catch (const BufferUnderflow&) {
    return fail(DecodeError::Malformed);
  }
}

std::vector<Fragment> Codec::decode_all(const dot11::IeList& ies) const {
  std::vector<Fragment> out;
  for (const dot11::InfoElement& ie : ies.elements()) {
    if (ie.id != dot11::IeId::VendorSpecific) continue;
    if (auto f = decode(ie.data)) out.push_back(std::move(*f));
  }
  return out;
}

BeaconView read_beacon(BytesView mpdu) {
  constexpr std::size_t kFixedFields = 12;  // timestamp, interval, capability
  BeaconView out;
  const auto parsed = dot11::parse_mpdu(mpdu);
  if (parsed && !parsed->fcs_ok) out.status = BeaconStatus::BadFcs;
  if (!parsed || !parsed->fcs_ok || !parsed->header.fc.is_mgmt(dot11::MgmtSubtype::Beacon)) {
    return out;
  }
  out.status = BeaconStatus::Malformed;
  if (parsed->body.size() < kFixedFields) return out;
  const BytesView chain = parsed->body.subspan(kFixedFields);
  for (std::size_t at = 0, len = 0; at < chain.size(); at += 2 + len) {
    if (at + 2 > chain.size()) return out;
    len = chain[at + 1];
    if (at + 2 + len > chain.size()) return out;
    if (!out.ssid && chain[at] == static_cast<std::uint8_t>(dot11::IeId::Ssid)) {
      out.ssid = std::string_view{reinterpret_cast<const char*>(chain.data() + at + 2), len};
    }
  }
  out.status = BeaconStatus::Ok;
  out.addr3 = parsed->header.addr3;
  out.elements = chain;
  return out;
}

std::optional<std::string> encode_ssid_stuffed(const Message& message) {
  if (message.data.size() > kSsidStuffingCapacity) return std::nullopt;
  if (message.device_id > 0xffff) return std::nullopt;
  std::string out;
  out.reserve(5 + message.data.size());
  out.push_back('\x57');  // 'W'
  out.push_back('\x21');  // '!'
  out.push_back(static_cast<char>(message.device_id & 0xff));
  out.push_back(static_cast<char>((message.device_id >> 8) & 0xff));
  out.push_back(static_cast<char>(message.sequence & 0xff));
  out.append(message.data.begin(), message.data.end());
  return out;
}

std::optional<Fragment> decode_ssid_stuffed(std::string_view ssid) {
  if (ssid.size() < 5 || ssid[0] != '\x57' || ssid[1] != '\x21') return std::nullopt;
  Fragment f;
  f.device_id = static_cast<std::uint8_t>(ssid[2]) |
                (static_cast<std::uint32_t>(static_cast<std::uint8_t>(ssid[3])) << 8);
  f.sequence = static_cast<std::uint8_t>(ssid[4]);
  f.type = MessageType::Telemetry;
  f.data.assign(ssid.begin() + 5, ssid.end());
  return f;
}

Bytes encode_recovery_payload(const RecoveryPayload& payload) {
  if (payload.entries.empty() || payload.entries.size() > kMaxRecoveryGroup) {
    throw std::invalid_argument("recovery payload: bad group size");
  }
  std::size_t max_len = 0;
  for (const auto& e : payload.entries) max_len = std::max<std::size_t>(max_len, e.length);
  if (payload.xor_block.size() != max_len) {
    throw std::invalid_argument("recovery payload: xor block / length mismatch");
  }
  ByteWriter w(5 + 3 * payload.entries.size() + payload.xor_block.size());
  w.u32le(payload.base_sequence);
  w.u8(static_cast<std::uint8_t>(payload.entries.size()));
  for (const auto& e : payload.entries) {
    w.u8(static_cast<std::uint8_t>(e.type));
    w.u16le(e.length);
  }
  w.bytes(payload.xor_block);
  return w.take();
}

std::optional<RecoveryPayload> decode_recovery_payload(BytesView data) {
  try {
    ByteReader r{data};
    RecoveryPayload p;
    p.base_sequence = r.u32le();
    const std::size_t k = r.u8();
    if (k == 0 || k > kMaxRecoveryGroup) return std::nullopt;
    std::size_t max_len = 0;
    p.entries.reserve(k);
    for (std::size_t i = 0; i < k; ++i) {
      RecoveryEntry e;
      e.type = static_cast<MessageType>(r.u8());
      e.length = r.u16le();
      max_len = std::max<std::size_t>(max_len, e.length);
      p.entries.push_back(e);
    }
    if (r.remaining() != max_len) return std::nullopt;
    const BytesView block = r.bytes(max_len);
    p.xor_block.assign(block.begin(), block.end());
    return p;
  } catch (const BufferUnderflow&) {
    return std::nullopt;
  }
}

std::optional<Message> Reassembler::add(Fragment fragment) {
  if (fragment.frag_count <= 1) {
    return Message{fragment.device_id, fragment.sequence, fragment.type,
                   std::move(fragment.data), fragment.rx_window};
  }

  // Codec::decode enforces this, but hand-built fragments must not be
  // able to index outside the group.
  if (fragment.frag_index >= fragment.frag_count) return std::nullopt;

  auto it = partial_.find(fragment.device_id);
  if (it == partial_.end()) {
    if (partial_.size() >= max_partials_) {
      // Table full: drop the partial that has waited longest for its
      // missing fragments (its device likely went silent mid-message).
      auto oldest = partial_.begin();
      for (auto cand = partial_.begin(); cand != partial_.end(); ++cand) {
        if (cand->second.last_touch < oldest->second.last_touch) oldest = cand;
      }
      partial_.erase(oldest);
      ++partials_evicted_;
    }
    it = partial_.try_emplace(fragment.device_id).first;
  }
  Partial& p = it->second;
  if (p.sequence != fragment.sequence || p.frag_count != fragment.frag_count ||
      p.parts.size() != fragment.frag_count) {
    // New message (or stale partial): reset the slot.
    p = Partial{};
    p.sequence = fragment.sequence;
    p.frag_count = fragment.frag_count;
    p.parts.assign(fragment.frag_count, std::nullopt);
  }
  p.type = fragment.type;
  p.last_touch = ++tick_;
  if (fragment.rx_window) p.rx_window = fragment.rx_window;
  p.parts[fragment.frag_index] = std::move(fragment.data);
  for (const auto& part : p.parts) {
    if (!part) return std::nullopt;
  }

  Message m;
  m.device_id = fragment.device_id;
  m.sequence = p.sequence;
  m.type = p.type;
  m.rx_window = p.rx_window;
  for (const auto& part : p.parts) {
    m.data.insert(m.data.end(), part->begin(), part->end());
  }
  partial_.erase(it);
  return m;
}

}  // namespace wile::core
