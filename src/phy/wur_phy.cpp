#include "phy/wur_phy.hpp"

#include <array>

namespace wile::phy {
namespace {

// Frame-control byte for a wake-up frame body. 802.11ba's real FC is a
// 3-bit type plus reserved bits; we use a fixed magic so that WUR frame
// bodies can never be confused with Wi-LE beacon fragments or 802.11
// MPDUs sharing the medium.
constexpr std::uint8_t kWurFrameControl = 0xBA;

// CRC-8/ATM (poly 0x07, init 0), enough for a 5-byte body and cheap to
// model. Table-driven, one lookup per byte: every armed companion in
// earshot checks every wake frame, so a dense hall runs this about once
// per station per wake.
constexpr std::array<std::uint8_t, 256> kCrc8Table = [] {
  std::array<std::uint8_t, 256> table{};
  for (std::size_t i = 0; i < table.size(); ++i) {
    auto crc = static_cast<std::uint8_t>(i);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 0x80) != 0 ? static_cast<std::uint8_t>((crc << 1) ^ 0x07)
                              : static_cast<std::uint8_t>(crc << 1);
    }
    table[i] = crc;
  }
  return table;
}();

std::uint8_t crc8(BytesView data) {
  std::uint8_t crc = 0;
  for (std::uint8_t byte : data) crc = kCrc8Table[crc ^ byte];
  return crc;
}

}  // namespace

Bytes encode_wakeup_frame(const WakeUpFrame& frame) {
  Bytes body(WurPhy::kFrameBytes);
  body[0] = kWurFrameControl;
  body[1] = frame.group_addressed ? 0x01 : 0x00;
  const std::uint16_t addr = frame.address & WurPhy::kMaxId;
  body[2] = static_cast<std::uint8_t>(addr & 0xFF);
  body[3] = static_cast<std::uint8_t>(addr >> 8);
  body[4] = frame.seq;
  body[5] = crc8(BytesView{body.data(), 5});
  return body;
}

std::optional<WakeUpFrame> decode_wakeup_frame(BytesView body) {
  if (body.size() != WurPhy::kFrameBytes) return std::nullopt;
  if (body[0] != kWurFrameControl) return std::nullopt;
  if ((body[1] & ~0x01) != 0) return std::nullopt;  // reserved flag bits
  if ((body[3] & ~0x0F) != 0) return std::nullopt;  // address is 12-bit
  if (body[5] != crc8(body.subspan(0, 5))) return std::nullopt;
  WakeUpFrame frame;
  frame.group_addressed = (body[1] & 0x01) != 0;
  frame.address = static_cast<std::uint16_t>(body[2] | (body[3] << 8));
  frame.seq = body[4];
  return frame;
}

}  // namespace wile::phy
