#include "dot11/mgmt.hpp"

namespace wile::dot11 {

namespace {
/// Decode helper: run `fn` and convert truncation into nullopt.
template <typename T, typename Fn>
std::optional<T> guarded_decode(BytesView body, Fn&& fn) {
  try {
    ByteReader r{body};
    return fn(r);
  } catch (const BufferUnderflow&) {
    return std::nullopt;
  }
}
}  // namespace

Bytes Beacon::encode() const {
  ByteWriter w(12 + ies.encoded_size());
  w.u64le(timestamp_us);
  w.u16le(beacon_interval_tu);
  w.u16le(capability);
  ies.write_to(w);
  return w.take();
}

std::optional<Beacon> Beacon::decode(BytesView body) {
  return guarded_decode<Beacon>(body, [](ByteReader& r) {
    Beacon b;
    b.timestamp_us = r.u64le();
    b.beacon_interval_tu = r.u16le();
    b.capability = r.u16le();
    b.ies = IeList::read_from(r);
    return b;
  });
}

Bytes ProbeRequest::encode() const {
  ByteWriter w(ies.encoded_size());
  ies.write_to(w);
  return w.take();
}

std::optional<ProbeRequest> ProbeRequest::decode(BytesView body) {
  return guarded_decode<ProbeRequest>(body, [](ByteReader& r) {
    ProbeRequest p;
    p.ies = IeList::read_from(r);
    return p;
  });
}

Bytes ProbeResponse::encode() const {
  ByteWriter w(12 + ies.encoded_size());
  w.u64le(timestamp_us);
  w.u16le(beacon_interval_tu);
  w.u16le(capability);
  ies.write_to(w);
  return w.take();
}

std::optional<ProbeResponse> ProbeResponse::decode(BytesView body) {
  return guarded_decode<ProbeResponse>(body, [](ByteReader& r) {
    ProbeResponse p;
    p.timestamp_us = r.u64le();
    p.beacon_interval_tu = r.u16le();
    p.capability = r.u16le();
    p.ies = IeList::read_from(r);
    return p;
  });
}

Bytes Authentication::encode() const {
  ByteWriter w(6);
  w.u16le(static_cast<std::uint16_t>(algorithm));
  w.u16le(transaction_seq);
  w.u16le(static_cast<std::uint16_t>(status));
  return w.take();
}

std::optional<Authentication> Authentication::decode(BytesView body) {
  return guarded_decode<Authentication>(body, [](ByteReader& r) {
    Authentication a;
    a.algorithm = static_cast<Algorithm>(r.u16le());
    a.transaction_seq = r.u16le();
    a.status = static_cast<StatusCode>(r.u16le());
    return a;
  });
}

Bytes AssocRequest::encode() const {
  ByteWriter w(4 + ies.encoded_size());
  w.u16le(capability);
  w.u16le(listen_interval);
  ies.write_to(w);
  return w.take();
}

std::optional<AssocRequest> AssocRequest::decode(BytesView body) {
  return guarded_decode<AssocRequest>(body, [](ByteReader& r) {
    AssocRequest a;
    a.capability = r.u16le();
    a.listen_interval = r.u16le();
    a.ies = IeList::read_from(r);
    return a;
  });
}

Bytes AssocResponse::encode() const {
  ByteWriter w(6 + ies.encoded_size());
  w.u16le(capability);
  w.u16le(static_cast<std::uint16_t>(status));
  w.u16le(static_cast<std::uint16_t>(aid | 0xc000));  // AID MSBs set on air
  ies.write_to(w);
  return w.take();
}

std::optional<AssocResponse> AssocResponse::decode(BytesView body) {
  return guarded_decode<AssocResponse>(body, [](ByteReader& r) {
    AssocResponse a;
    a.capability = r.u16le();
    a.status = static_cast<StatusCode>(r.u16le());
    a.aid = static_cast<std::uint16_t>(r.u16le() & 0x3fff);
    a.ies = IeList::read_from(r);
    return a;
  });
}

}  // namespace wile::dot11
