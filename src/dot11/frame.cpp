#include "dot11/frame.hpp"

#include "crypto/crc.hpp"

namespace wile::dot11 {

namespace {
void append_fcs(ByteWriter& w) {
  w.u32le(crypto::crc32(w.view()));
}

bool check_fcs(BytesView mpdu) {
  const BytesView covered = mpdu.subspan(0, mpdu.size() - kFcsSize);
  ByteReader tail{mpdu.subspan(mpdu.size() - kFcsSize)};
  return crypto::crc32(covered) == tail.u32le();
}
}  // namespace

Bytes assemble_mpdu(const MacHeader& header, BytesView body) {
  ByteWriter w(MacHeader::kSize + body.size() + kFcsSize);
  header.write_to(w);
  w.bytes(body);
  append_fcs(w);
  return w.take();
}

Bytes with_duration(BytesView mpdu, std::uint16_t duration_us) {
  Bytes out(mpdu.begin(), mpdu.end());
  if (out.size() < 4 + kFcsSize) return out;
  out[2] = static_cast<std::uint8_t>(duration_us & 0xff);
  out[3] = static_cast<std::uint8_t>(duration_us >> 8);
  const BytesView covered{out.data(), out.size() - kFcsSize};
  const std::uint32_t fcs = crypto::crc32(covered);
  out[out.size() - 4] = static_cast<std::uint8_t>(fcs & 0xff);
  out[out.size() - 3] = static_cast<std::uint8_t>((fcs >> 8) & 0xff);
  out[out.size() - 2] = static_cast<std::uint8_t>((fcs >> 16) & 0xff);
  out[out.size() - 1] = static_cast<std::uint8_t>((fcs >> 24) & 0xff);
  return out;
}

std::optional<ParsedMpdu> parse_mpdu(BytesView mpdu) {
  if (mpdu.size() < MacHeader::kSize + kFcsSize) return std::nullopt;
  if (is_control_frame(mpdu)) return std::nullopt;
  ParsedMpdu out;
  ByteReader r{mpdu};
  out.header = MacHeader::read_from(r);
  out.body = mpdu.subspan(MacHeader::kSize, mpdu.size() - MacHeader::kSize - kFcsSize);
  out.fcs_ok = check_fcs(mpdu);
  return out;
}

bool is_control_frame(BytesView mpdu) {
  if (mpdu.size() < 2) return false;
  const auto fc = FrameControl::decode(
      static_cast<std::uint16_t>(mpdu[0] | (mpdu[1] << 8)));
  return fc.type == FrameType::Control;
}

Bytes build_ack(const MacAddress& receiver) {
  ByteWriter w(14);
  w.u16le(FrameControl::ctrl(CtrlSubtype::Ack).encode());
  w.u16le(0);  // duration
  receiver.write_to(w);
  append_fcs(w);
  return w.take();
}

std::optional<AckFrame> parse_ack(BytesView mpdu) {
  if (mpdu.size() != 14) return std::nullopt;
  ByteReader r{mpdu};
  const auto fc = FrameControl::decode(r.u16le());
  if (!fc.is_ctrl(CtrlSubtype::Ack)) return std::nullopt;
  r.u16le();  // duration
  AckFrame out;
  out.receiver = MacAddress::read_from(r);
  out.fcs_ok = check_fcs(mpdu);
  return out;
}

Bytes build_ps_poll(std::uint16_t aid, const MacAddress& bssid, const MacAddress& ta) {
  ByteWriter w(20);
  w.u16le(FrameControl::ctrl(CtrlSubtype::PsPoll).encode());
  w.u16le(static_cast<std::uint16_t>(aid | 0xc000));  // AID with both MSBs set
  bssid.write_to(w);
  ta.write_to(w);
  append_fcs(w);
  return w.take();
}

std::optional<PsPollFrame> parse_ps_poll(BytesView mpdu) {
  if (mpdu.size() != 20) return std::nullopt;
  ByteReader r{mpdu};
  const auto fc = FrameControl::decode(r.u16le());
  if (!fc.is_ctrl(CtrlSubtype::PsPoll)) return std::nullopt;
  PsPollFrame out;
  out.aid = static_cast<std::uint16_t>(r.u16le() & 0x3fff);
  out.bssid = MacAddress::read_from(r);
  out.transmitter = MacAddress::read_from(r);
  out.fcs_ok = check_fcs(mpdu);
  return out;
}

Bytes build_mgmt_mpdu(MgmtSubtype subtype, const MacAddress& da, const MacAddress& sa,
                      const MacAddress& bssid, std::uint16_t seq, BytesView body) {
  MacHeader h;
  h.fc = FrameControl::mgmt(subtype);
  h.addr1 = da;
  h.addr2 = sa;
  h.addr3 = bssid;
  h.set_sequence(seq);
  return assemble_mpdu(h, body);
}

Bytes build_data_to_ds(const MacAddress& bssid, const MacAddress& sa, const MacAddress& da,
                       std::uint16_t seq, BytesView llc_payload, bool protected_frame,
                       bool power_management) {
  MacHeader h;
  h.fc = FrameControl::data(DataSubtype::Data);
  h.fc.to_ds = true;
  h.fc.protected_frame = protected_frame;
  h.fc.power_management = power_management;
  h.addr1 = bssid;
  h.addr2 = sa;
  h.addr3 = da;
  h.set_sequence(seq);
  return assemble_mpdu(h, llc_payload);
}

Bytes build_data_from_ds(const MacAddress& da, const MacAddress& bssid, const MacAddress& sa,
                         std::uint16_t seq, BytesView llc_payload, bool protected_frame,
                         bool more_data) {
  MacHeader h;
  h.fc = FrameControl::data(DataSubtype::Data);
  h.fc.from_ds = true;
  h.fc.protected_frame = protected_frame;
  h.fc.more_data = more_data;
  h.addr1 = da;
  h.addr2 = bssid;
  h.addr3 = sa;
  h.set_sequence(seq);
  return assemble_mpdu(h, llc_payload);
}

Bytes build_null_data(const MacAddress& bssid, const MacAddress& sa, std::uint16_t seq,
                      bool power_management) {
  MacHeader h;
  h.fc = FrameControl::data(DataSubtype::Null);
  h.fc.to_ds = true;
  h.fc.power_management = power_management;
  h.addr1 = bssid;
  h.addr2 = sa;
  h.addr3 = bssid;
  h.set_sequence(seq);
  return assemble_mpdu(h, {});
}

}  // namespace wile::dot11
