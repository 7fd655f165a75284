#include "net/llc.hpp"

namespace wile::net {

std::optional<LlcSnap> LlcSnap::decode(BytesView body) {
  if (body.size() < kHeaderSize) return std::nullopt;
  if (body[0] != 0xaa || body[1] != 0xaa || body[2] != 0x03) return std::nullopt;
  if (body[3] != 0x00 || body[4] != 0x00 || body[5] != 0x00) return std::nullopt;
  LlcSnap out;
  out.ethertype = static_cast<EtherType>((body[6] << 8) | body[7]);
  out.payload.assign(body.begin() + kHeaderSize, body.end());
  return out;
}

Bytes llc_wrap(EtherType ethertype, BytesView payload) {
  ByteWriter w(LlcSnap::kHeaderSize + payload.size());
  w.u8(0xaa);
  w.u8(0xaa);
  w.u8(0x03);
  w.u8(0x00);
  w.u8(0x00);
  w.u8(0x00);
  w.u16be(static_cast<std::uint16_t>(ethertype));
  w.bytes(payload);
  return w.take();
}

}  // namespace wile::net
