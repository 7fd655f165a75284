// Robustness sweep: every wire-format parser in the library is fed
// (a) uniformly random bytes, (b) mutated valid frames, and (c)
// truncations of valid frames. Parsers must reject or accept cleanly —
// no crashes, no exceptions escaping the documented contract. This is
// the "hostile RF input" property a monitor-mode receiver lives with:
// anyone can inject anything.
#include <gtest/gtest.h>

#include "ble/pdu.hpp"
#include "dot11/eapol.hpp"
#include "dot11/frame.hpp"
#include "dot11/ie.hpp"
#include "net/arp.hpp"
#include "net/dhcp.hpp"
#include "net/ipv4.hpp"
#include "net/llc.hpp"
#include "net/udp.hpp"
#include "util/rng.hpp"
#include "wile/codec.hpp"
#include "wile/gateway.hpp"

namespace wile {
namespace {

Bytes random_bytes(Rng& rng, std::size_t max_len) {
  Bytes out(rng.below(max_len + 1));
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.below(256));
  return out;
}

/// Run `parse` over random inputs; the parser may return an empty result
/// but must not crash or throw.
template <typename Fn>
void fuzz_random(std::uint64_t seed, std::size_t iterations, std::size_t max_len,
                 Fn&& parse) {
  Rng rng{seed};
  for (std::size_t i = 0; i < iterations; ++i) {
    const Bytes input = random_bytes(rng, max_len);
    EXPECT_NO_THROW(parse(BytesView{input}));
  }
}

/// Run `parse` over single-byte mutations and truncations of `valid`.
template <typename Fn>
void fuzz_mutations(const Bytes& valid, std::uint64_t seed, Fn&& parse) {
  Rng rng{seed};
  for (int i = 0; i < 300; ++i) {
    Bytes mutated = valid;
    const std::size_t pos = rng.below(mutated.size());
    mutated[pos] ^= static_cast<std::uint8_t>(1u << rng.below(8));
    EXPECT_NO_THROW(parse(BytesView{mutated}));
  }
  for (std::size_t len = 0; len < valid.size(); ++len) {
    EXPECT_NO_THROW(parse(BytesView{valid.data(), len}));
  }
}

TEST(FuzzParsers, ParseMpduNeverCrashes) {
  auto parse = [](BytesView in) { (void)dot11::parse_mpdu(in); };
  fuzz_random(1, 2000, 400, parse);
  const Bytes beacon = dot11::build_mgmt_mpdu(
      dot11::MgmtSubtype::Beacon, MacAddress::broadcast(), MacAddress::from_seed(1),
      MacAddress::from_seed(1), 7, dot11::Beacon{}.encode());
  fuzz_mutations(beacon, 2, parse);
}

TEST(FuzzParsers, ControlFrameParsersNeverCrash) {
  auto parse = [](BytesView in) {
    (void)dot11::parse_ack(in);
    (void)dot11::parse_ps_poll(in);
    (void)dot11::is_control_frame(in);
  };
  fuzz_random(3, 2000, 40, parse);
  fuzz_mutations(dot11::build_ack(MacAddress::from_seed(2)), 4, parse);
  fuzz_mutations(dot11::build_ps_poll(5, MacAddress::from_seed(1), MacAddress::from_seed(2)),
                 5, parse);
}

TEST(FuzzParsers, BeaconBodyDecoderToleratesGarbageIes) {
  auto parse = [](BytesView in) { (void)dot11::Beacon::decode(in); };
  fuzz_random(6, 2000, 300, parse);
  dot11::Beacon beacon;
  beacon.ies.add(dot11::make_ssid_ie("Net"));
  beacon.ies.add(dot11::make_supported_rates_ie(dot11::default_bg_rates()));
  beacon.ies.add(dot11::make_tim_ie(dot11::Tim{}));
  fuzz_mutations(beacon.encode(), 7, parse);
}

TEST(FuzzParsers, ReceiveParseAgreesWithFullBeaconDecode) {
  // read_beacon and Codec::for_each_fragment, the in-place parse every
  // Wi-LE listener shares, accept exactly the beacon bodies that
  // Beacon::decode accepts, and yield decode_all's fragments and
  // parse_ssid_ie's SSID.
  const core::Codec codec;
  auto check = [&](BytesView body) {
    const Bytes mpdu =
        dot11::build_mgmt_mpdu(dot11::MgmtSubtype::Beacon, MacAddress::broadcast(),
                               MacAddress::from_seed(1), MacAddress::from_seed(1), 0, body);
    const core::BeaconView view = core::read_beacon(mpdu);
    const auto full = dot11::Beacon::decode(body);
    EXPECT_EQ(view.status, full ? core::BeaconStatus::Ok : core::BeaconStatus::Malformed);
    if (!full) return;
    const auto ssid = dot11::parse_ssid_ie(full->ies);
    EXPECT_EQ(view.ssid.has_value(), ssid.has_value());
    if (ssid && view.ssid) {
      EXPECT_EQ(std::string(*view.ssid), *ssid);
    }
    std::vector<core::Fragment> walked;
    codec.for_each_fragment(view.elements,
                            [&](std::optional<core::Fragment>&& f, core::DecodeError) {
                              if (f) walked.push_back(std::move(*f));
                            });
    const std::vector<core::Fragment> listed = codec.decode_all(full->ies);
    ASSERT_EQ(walked.size(), listed.size());
    for (std::size_t i = 0; i < walked.size(); ++i) {
      EXPECT_EQ(walked[i].device_id, listed[i].device_id);
      EXPECT_EQ(walked[i].sequence, listed[i].sequence);
      EXPECT_EQ(walked[i].frag_index, listed[i].frag_index);
      EXPECT_EQ(walked[i].data, listed[i].data);
    }
  };
  fuzz_random(30, 2000, 300, check);
  core::Message msg;
  msg.device_id = 11;
  msg.data = Bytes(300, 0x3c);  // two elements
  dot11::Beacon beacon;
  beacon.ies.add(dot11::make_ssid_ie(""));
  beacon.ies.add(dot11::make_supported_rates_ie(dot11::default_bg_rates()));
  for (const auto& ie : codec.encode(msg)) beacon.ies.add(ie);
  fuzz_mutations(beacon.encode(), 31, check);
}

TEST(FuzzParsers, MgmtBodyDecodersNeverCrash) {
  auto parse = [](BytesView in) {
    (void)dot11::ProbeRequest::decode(in);
    (void)dot11::ProbeResponse::decode(in);
    (void)dot11::Authentication::decode(in);
    (void)dot11::AssocRequest::decode(in);
    (void)dot11::AssocResponse::decode(in);
  };
  fuzz_random(8, 2000, 200, parse);
}

TEST(FuzzParsers, EapolDecoderNeverCrashes) {
  auto parse = [](BytesView in) { (void)dot11::EapolKeyFrame::decode(in); };
  fuzz_random(9, 2000, 250, parse);
  std::array<std::uint8_t, 32> nonce{};
  fuzz_mutations(dot11::make_handshake_m1(1, nonce).encode(), 10, parse);
}

TEST(FuzzParsers, IeListParserThrowsOnlyBufferUnderflow) {
  Rng rng{11};
  for (int i = 0; i < 2000; ++i) {
    const Bytes input = random_bytes(rng, 200);
    try {
      ByteReader r{input};
      (void)dot11::IeList::read_from(r);
    } catch (const BufferUnderflow&) {
      // Documented: truncated elements throw this, nothing else.
    }
  }
}

TEST(FuzzParsers, NetworkStackDecodersNeverCrash) {
  auto parse = [](BytesView in) {
    (void)net::LlcSnap::decode(in);
    (void)net::ArpPacket::decode(in);
    (void)net::Ipv4Header::decode(in);
    (void)net::DhcpMessage::decode(in);
    (void)net::UdpDatagram::decode(in, net::Ipv4Address{10, 0, 0, 1},
                                   net::Ipv4Address{10, 0, 0, 2});
  };
  fuzz_random(12, 2000, 400, parse);
  const auto discover = net::DhcpMessage::discover(7, MacAddress::from_seed(1));
  fuzz_mutations(discover.encode(), 13, parse);
}

TEST(FuzzParsers, WileCodecNeverCrashes) {
  core::Codec plain;
  core::Codec keyed{Bytes(16, 0x42)};
  Rng rng{14};
  for (int i = 0; i < 2000; ++i) {
    dot11::InfoElement ie;
    ie.id = dot11::IeId::VendorSpecific;
    ie.data = random_bytes(rng, 255);
    EXPECT_NO_THROW((void)plain.decode(ie.data));
    EXPECT_NO_THROW((void)keyed.decode(ie.data));
  }
  // Mutations of a valid element.
  core::Message msg;
  msg.device_id = 7;
  msg.data = Bytes(50, 0xab);
  auto ies = keyed.encode(msg);
  Rng mut{15};
  for (int i = 0; i < 300; ++i) {
    dot11::InfoElement ie = ies[0];
    ie.data[mut.below(ie.data.size())] ^= static_cast<std::uint8_t>(1u << mut.below(8));
    EXPECT_NO_THROW((void)keyed.decode(ie.data));
  }
}

TEST(FuzzParsers, FecPayloadDecodersNeverCrash) {
  auto parse = [](BytesView in) {
    (void)core::decode_recovery_payload(in);
  };
  fuzz_random(21, 2000, 300, parse);

  core::RecoveryPayload payload;
  payload.base_sequence = 0xfffffffe;
  for (int i = 0; i < 4; ++i) {
    payload.entries.push_back({core::MessageType::Telemetry,
                               static_cast<std::uint16_t>(8 + i)});
  }
  payload.xor_block = Bytes(11, 0x3c);
  fuzz_mutations(core::encode_recovery_payload(payload), 22, parse);
}

TEST(FuzzParsers, MutatedFragmentTrainsNeverCrashReassembly) {
  // Decode + reassembly must survive arbitrary corruption of any
  // element in a fragmented train.
  core::Codec codec;
  core::Message msg;
  msg.device_id = 9;
  msg.sequence = 3;
  msg.data = Bytes(3 * codec.max_fragment_data(true, false), 0x61);
  const auto ies = codec.encode(msg);
  ASSERT_EQ(ies.size(), 3u);

  Rng rng{24};
  for (int i = 0; i < 500; ++i) {
    core::Reassembler reassembler;
    for (std::size_t e = 0; e < ies.size(); ++e) {
      dot11::InfoElement ie = ies[e];
      if (e == rng.below(ies.size())) {
        ie.data[rng.below(ie.data.size())] ^=
            static_cast<std::uint8_t>(1u << rng.below(8));
      }
      auto fragment = codec.decode(ie.data);
      if (!fragment) continue;  // CRC catches most mutations
      EXPECT_NO_THROW((void)reassembler.add(*fragment));
    }
  }
}

TEST(FuzzParsers, BlePacketParserNeverCrashes) {
  auto parse = [](BytesView in) {
    (void)ble::parse_air_packet(in, 37);
    (void)ble::AdvertisingPdu::decode(in);
    (void)ble::DataPdu::decode(in);
  };
  fuzz_random(16, 2000, 60, parse);
  ble::AdvertisingPdu pdu;
  pdu.advertiser = MacAddress::from_seed(3);
  pdu.adv_data = Bytes(20, 0x11);
  fuzz_mutations(ble::assemble_air_packet(ble::kAdvAccessAddress, pdu.encode(), 37), 17,
                 parse);
}

TEST(FuzzParsers, ForwardedReadingNeverCrashes) {
  auto parse = [](BytesView in) { (void)core::ForwardedReading::decode(in); };
  fuzz_random(18, 2000, 300, parse);
  core::ForwardedReading reading;
  reading.data = Bytes(40, 0x22);
  Bytes wire;
  reading.encode_into(wire);
  fuzz_mutations(wire, 19, parse);
}

TEST(FuzzParsers, ForwardedBatchNeverCrashes) {
  auto parse = [](BytesView in) { (void)core::ForwardedBatch::decode(in); };
  fuzz_random(22, 2000, 400, parse);
  core::ForwardedBatch batch;
  for (int i = 0; i < 3; ++i) {
    core::ForwardedReading reading;
    reading.device_id = static_cast<std::uint32_t>(0x100 + i);
    reading.sequence = static_cast<std::uint32_t>(i);
    reading.data = Bytes(static_cast<std::size_t>(10 + i), 0x33);
    batch.readings.push_back(std::move(reading));
  }
  fuzz_mutations(batch.encode(), 23, parse);
}

TEST(FuzzParsers, MutatedMpduNeverAcceptedWithGoodFcs) {
  // Stronger property: any single-bit mutation of a valid MPDU must
  // flip fcs_ok to false (CRC-32 detects all single-bit errors).
  const Bytes beacon = dot11::build_mgmt_mpdu(
      dot11::MgmtSubtype::Beacon, MacAddress::broadcast(), MacAddress::from_seed(1),
      MacAddress::from_seed(1), 7, dot11::Beacon{}.encode());
  Rng rng{20};
  for (int i = 0; i < 500; ++i) {
    Bytes mutated = beacon;
    mutated[rng.below(mutated.size())] ^= static_cast<std::uint8_t>(1u << rng.below(8));
    auto parsed = dot11::parse_mpdu(mutated);
    if (!parsed) continue;  // header-level rejection is fine
    EXPECT_FALSE(parsed->fcs_ok);
  }
}

}  // namespace
}  // namespace wile
