// Unit tests for src/dot11: frame control, MAC headers, information
// elements, management frame bodies, MPDU assembly/FCS, control frames,
// EAPOL-Key handshake frames, and CCMP sessions.
#include <gtest/gtest.h>

#include "crypto/prf80211.hpp"
#include "dot11/ccmp.hpp"
#include "dot11/eapol.hpp"
#include "dot11/frame.hpp"
#include "dot11/ie.hpp"
#include "dot11/mgmt.hpp"
#include "util/rng.hpp"

namespace wile::dot11 {
namespace {

// ---------------------------------------------------------------------------
// FrameControl
// ---------------------------------------------------------------------------

TEST(FrameControl, EncodeDecodeRoundTripAllFlagCombinations) {
  for (int flags = 0; flags < 256; ++flags) {
    FrameControl fc;
    fc.type = FrameType::Data;
    fc.subtype = 8;
    fc.to_ds = flags & 1;
    fc.from_ds = flags & 2;
    fc.more_fragments = flags & 4;
    fc.retry = flags & 8;
    fc.power_management = flags & 16;
    fc.more_data = flags & 32;
    fc.protected_frame = flags & 64;
    fc.order = flags & 128;
    EXPECT_EQ(FrameControl::decode(fc.encode()), fc);
  }
}

TEST(FrameControl, BeaconEncoding) {
  // Beacon: version 0, type mgmt (00), subtype 8 (1000) -> 0x0080 LE.
  const auto fc = FrameControl::mgmt(MgmtSubtype::Beacon);
  EXPECT_EQ(fc.encode(), 0x0080);
}

TEST(FrameControl, AckEncoding) {
  const auto fc = FrameControl::ctrl(CtrlSubtype::Ack);
  EXPECT_EQ(fc.encode(), 0x00d4);
}

TEST(FrameControl, Describe) {
  EXPECT_EQ(FrameControl::mgmt(MgmtSubtype::Beacon).describe(), "mgmt/beacon");
  EXPECT_EQ(FrameControl::ctrl(CtrlSubtype::PsPoll).describe(), "ctrl/ps-poll");
  EXPECT_EQ(FrameControl::data(DataSubtype::QosData).describe(), "data/qos-data");
}

// ---------------------------------------------------------------------------
// MacHeader
// ---------------------------------------------------------------------------

TEST(MacHeader, RoundTrip) {
  MacHeader h;
  h.fc = FrameControl::mgmt(MgmtSubtype::ProbeRequest);
  h.duration_id = 0x1234;
  h.addr1 = MacAddress::broadcast();
  h.addr2 = MacAddress::from_seed(1);
  h.addr3 = MacAddress::from_seed(2);
  h.set_sequence(777, 3);

  ByteWriter w;
  h.write_to(w);
  const Bytes buf = w.take();
  EXPECT_EQ(buf.size(), MacHeader::kSize);
  ByteReader r{buf};
  EXPECT_EQ(MacHeader::read_from(r), h);
}

TEST(MacHeader, SequenceFieldPacking) {
  MacHeader h;
  h.set_sequence(0xabc, 0x5);
  EXPECT_EQ(h.sequence_number(), 0xabc);
  EXPECT_EQ(h.fragment_number(), 0x5);
}

// ---------------------------------------------------------------------------
// Information elements
// ---------------------------------------------------------------------------

TEST(Ie, ListRoundTrip) {
  IeList list;
  list.add(make_ssid_ie("TestNet"));
  list.add(make_ds_param_ie(6));
  list.add(make_erp_ie());

  ByteWriter w;
  list.write_to(w);
  const Bytes buf = w.take();
  EXPECT_EQ(buf.size(), list.encoded_size());

  ByteReader r{buf};
  const IeList back = IeList::read_from(r);
  EXPECT_EQ(back, list);
}

TEST(Ie, TruncatedElementThrows) {
  const Bytes bad = {0x00, 0x05, 'a', 'b'};  // claims 5 bytes, has 2
  ByteReader r{bad};
  EXPECT_THROW(IeList::read_from(r), BufferUnderflow);
}

TEST(Ie, SsidHelpers) {
  IeList list;
  list.add(make_ssid_ie("GoogleWifi"));
  EXPECT_EQ(parse_ssid_ie(list), "GoogleWifi");

  // Hidden: an SSID element of length zero, not a missing one.
  IeList hidden;
  hidden.add(make_ssid_ie(""));
  ASSERT_EQ(hidden.elements().size(), 1u);
  EXPECT_EQ(hidden.elements()[0].id, IeId::Ssid);
  EXPECT_TRUE(hidden.elements()[0].data.empty());
  EXPECT_EQ(parse_ssid_ie(hidden), "");
  EXPECT_EQ(parse_ssid_ie(IeList{}), std::nullopt);
}

TEST(Ie, SsidTooLongThrows) {
  EXPECT_THROW(make_ssid_ie(std::string(33, 'x')), std::invalid_argument);
}

TEST(Ie, SupportedRatesEncodeBasicBit) {
  SupportedRates rates;
  rates.add(1.0, true);
  rates.add(54.0, false);
  const InfoElement ie = make_supported_rates_ie(rates);
  EXPECT_EQ(ie.data[0], 0x82);  // 1 Mbps basic
  EXPECT_EQ(ie.data[1], 0x6c);  // 54 Mbps

  IeList list;
  list.add(ie);
  const auto parsed = parse_supported_rates_ie(list);
  ASSERT_TRUE(parsed.has_value());
  const auto mbps = parsed->mbps();
  EXPECT_DOUBLE_EQ(mbps[0], 1.0);
  EXPECT_DOUBLE_EQ(mbps[1], 54.0);
}

TEST(Ie, DefaultBgRatesFitOneElement) {
  const auto rates = default_bg_rates();
  EXPECT_LE(rates.rates_500kbps.size(), 8u);
}

TEST(Ie, TimRoundTripNoTraffic) {
  Tim tim;
  tim.dtim_count = 2;
  tim.dtim_period = 3;
  IeList list;
  list.add(make_tim_ie(tim));
  const auto back = parse_tim_ie(list);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->dtim_count, 2);
  EXPECT_EQ(back->dtim_period, 3);
  EXPECT_TRUE(back->aids.empty());
  EXPECT_FALSE(back->multicast_buffered);
}

class TimAids : public ::testing::TestWithParam<std::vector<std::uint16_t>> {};

TEST_P(TimAids, RoundTripsAidSets) {
  Tim tim;
  tim.aids = GetParam();
  IeList list;
  list.add(make_tim_ie(tim));
  const auto back = parse_tim_ie(list);
  ASSERT_TRUE(back.has_value());
  auto expect = GetParam();
  std::sort(expect.begin(), expect.end());
  auto got = back->aids;
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expect);
  for (std::uint16_t aid : expect) EXPECT_TRUE(back->traffic_for(aid));
  EXPECT_FALSE(back->traffic_for(1999));
}

INSTANTIATE_TEST_SUITE_P(
    Sets, TimAids,
    ::testing::Values(std::vector<std::uint16_t>{1}, std::vector<std::uint16_t>{1, 2, 3},
                      std::vector<std::uint16_t>{7, 8, 9, 200},
                      std::vector<std::uint16_t>{2007},
                      std::vector<std::uint16_t>{1, 2007}));

TEST(Ie, TimRejectsOutOfRangeAid) {
  Tim tim;
  tim.aids = {0};
  EXPECT_THROW(make_tim_ie(tim), std::invalid_argument);
  tim.aids = {2008};
  EXPECT_THROW(make_tim_ie(tim), std::invalid_argument);
}

TEST(Ie, TimPartialBitmapIsCompact) {
  Tim tim;
  tim.aids = {1200};  // byte 150
  const InfoElement ie = make_tim_ie(tim);
  // 3 control bytes + a handful of bitmap bytes, not 150+.
  EXPECT_LT(ie.data.size(), 12u);
}

TEST(Ie, RsnPskDetected) {
  IeList list;
  list.add(make_rsn_psk_ccmp_ie());
  EXPECT_TRUE(has_rsn_psk(list));

  IeList empty;
  EXPECT_FALSE(has_rsn_psk(empty));
}

TEST(Ie, HtCapsDetected) {
  IeList list;
  list.add(make_ht_caps_ie());
  EXPECT_TRUE(has_ht_caps(list));
}

// ---------------------------------------------------------------------------
// Management frame bodies
// ---------------------------------------------------------------------------

TEST(Mgmt, BeaconRoundTrip) {
  Beacon b;
  b.timestamp_us = 0x123456789abcdef0ULL;
  b.beacon_interval_tu = 100;
  b.capability = Capability::kEss | Capability::kPrivacy;
  b.ies.add(make_ssid_ie("Net"));
  b.ies.add(make_ds_param_ie(11));

  const auto back = Beacon::decode(b.encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->timestamp_us, b.timestamp_us);
  EXPECT_EQ(back->beacon_interval_tu, 100);
  EXPECT_EQ(back->capability, b.capability);
  EXPECT_EQ(back->ies, b.ies);
}

TEST(Mgmt, BeaconDecodeRejectsTruncated) {
  EXPECT_FALSE(Beacon::decode(Bytes{1, 2, 3}).has_value());
}

TEST(Mgmt, ProbeRequestRoundTrip) {
  ProbeRequest p;
  p.ies.add(make_ssid_ie("Target"));
  const auto back = ProbeRequest::decode(p.encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(parse_ssid_ie(back->ies), "Target");
}

TEST(Mgmt, AuthenticationRoundTrip) {
  Authentication a;
  a.algorithm = Authentication::Algorithm::OpenSystem;
  a.transaction_seq = 2;
  a.status = StatusCode::Success;
  const auto back = Authentication::decode(a.encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->transaction_seq, 2);
  EXPECT_EQ(back->status, StatusCode::Success);
}

TEST(Mgmt, AssocRequestResponseRoundTrip) {
  AssocRequest req;
  req.listen_interval = 3;
  req.ies.add(make_ssid_ie("Net"));
  const auto req_back = AssocRequest::decode(req.encode());
  ASSERT_TRUE(req_back.has_value());
  EXPECT_EQ(req_back->listen_interval, 3);

  AssocResponse resp;
  resp.aid = 5;
  resp.status = StatusCode::Success;
  const auto resp_back = AssocResponse::decode(resp.encode());
  ASSERT_TRUE(resp_back.has_value());
  EXPECT_EQ(resp_back->aid, 5);  // the 0xc000 on-air bits must be stripped
}

// ---------------------------------------------------------------------------
// MPDU assembly / FCS / control frames
// ---------------------------------------------------------------------------

TEST(Frame, MpduRoundTripWithValidFcs) {
  const Bytes mpdu = build_mgmt_mpdu(MgmtSubtype::Beacon, MacAddress::broadcast(),
                                     MacAddress::from_seed(1), MacAddress::from_seed(1), 42,
                                     Bytes{1, 2, 3});
  const auto parsed = parse_mpdu(mpdu);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->fcs_ok);
  EXPECT_TRUE(parsed->header.fc.is_mgmt(MgmtSubtype::Beacon));
  EXPECT_EQ(parsed->header.sequence_number(), 42);
  EXPECT_EQ(parsed->body.size(), 3u);
}

TEST(Frame, CorruptedMpduFailsFcs) {
  Bytes mpdu = build_mgmt_mpdu(MgmtSubtype::Beacon, MacAddress::broadcast(),
                               MacAddress::from_seed(1), MacAddress::from_seed(1), 1,
                               Bytes{1, 2, 3});
  mpdu[MacHeader::kSize] ^= 0xff;
  const auto parsed = parse_mpdu(mpdu);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->fcs_ok);
}

TEST(Frame, ParseRejectsTooShort) {
  EXPECT_FALSE(parse_mpdu(Bytes(10, 0)).has_value());
}

TEST(Frame, AckRoundTrip) {
  const MacAddress ra = MacAddress::from_seed(9);
  const Bytes ack = build_ack(ra);
  EXPECT_EQ(ack.size(), 14u);
  EXPECT_TRUE(is_control_frame(ack));
  const auto parsed = parse_ack(ack);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->fcs_ok);
  EXPECT_EQ(parsed->receiver, ra);
  // A control frame must not parse as a regular MPDU.
  EXPECT_FALSE(parse_mpdu(ack).has_value());
}

TEST(Frame, PsPollRoundTrip) {
  const Bytes poll = build_ps_poll(7, MacAddress::from_seed(1), MacAddress::from_seed(2));
  const auto parsed = parse_ps_poll(poll);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->fcs_ok);
  EXPECT_EQ(parsed->aid, 7);
  EXPECT_EQ(parsed->bssid, MacAddress::from_seed(1));
  EXPECT_EQ(parsed->transmitter, MacAddress::from_seed(2));
}

TEST(Frame, DataToFromDsAddressing) {
  const MacAddress bssid = MacAddress::from_seed(1);
  const MacAddress sta = MacAddress::from_seed(2);
  const Bytes up = build_data_to_ds(bssid, sta, bssid, 5, Bytes{9}, false);
  const auto up_p = parse_mpdu(up);
  ASSERT_TRUE(up_p.has_value());
  EXPECT_TRUE(up_p->header.fc.to_ds);
  EXPECT_FALSE(up_p->header.fc.from_ds);
  EXPECT_EQ(up_p->header.addr1, bssid);
  EXPECT_EQ(up_p->header.addr2, sta);

  const Bytes down = build_data_from_ds(sta, bssid, bssid, 6, Bytes{9}, true, true);
  const auto down_p = parse_mpdu(down);
  ASSERT_TRUE(down_p.has_value());
  EXPECT_TRUE(down_p->header.fc.from_ds);
  EXPECT_TRUE(down_p->header.fc.protected_frame);
  EXPECT_TRUE(down_p->header.fc.more_data);
  EXPECT_EQ(down_p->header.addr1, sta);
}

TEST(Frame, NullDataCarriesPowerManagement) {
  const Bytes null_frame =
      build_null_data(MacAddress::from_seed(1), MacAddress::from_seed(2), 7, true);
  const auto parsed = parse_mpdu(null_frame);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->header.fc.is_data(DataSubtype::Null));
  EXPECT_TRUE(parsed->header.fc.power_management);
  EXPECT_TRUE(parsed->body.empty());
}

// ---------------------------------------------------------------------------
// EAPOL-Key / 4-way handshake
// ---------------------------------------------------------------------------

class EapolFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng{77};
    for (auto& b : anonce_) b = static_cast<std::uint8_t>(rng.below(256));
    for (auto& b : snonce_) b = static_cast<std::uint8_t>(rng.below(256));
    for (auto& b : kck_) b = static_cast<std::uint8_t>(rng.below(256));
    for (auto& b : kek_) b = static_cast<std::uint8_t>(rng.below(256));
    for (auto& b : gtk_) b = static_cast<std::uint8_t>(rng.below(256));
    rsn_ie_ = {0x30, 0x02, 0x01, 0x00};  // minimal stand-in
  }

  std::array<std::uint8_t, 32> anonce_{}, snonce_{};
  std::array<std::uint8_t, 16> kck_{}, kek_{}, gtk_{};
  Bytes rsn_ie_;
};

TEST_F(EapolFixture, EncodeDecodeRoundTrip) {
  auto m1 = make_handshake_m1(1, anonce_);
  const auto back = EapolKeyFrame::decode(m1.encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->key_info, m1.key_info);
  EXPECT_EQ(back->replay_counter, 1u);
  EXPECT_EQ(back->nonce, anonce_);
}

TEST_F(EapolFixture, MessageClassification) {
  EXPECT_EQ(handshake_message_number(make_handshake_m1(1, anonce_)), 1);
  EXPECT_EQ(handshake_message_number(make_handshake_m2(1, snonce_, rsn_ie_, kck_)), 2);
  EXPECT_EQ(handshake_message_number(
                make_handshake_m3(2, anonce_, rsn_ie_, gtk_, kck_, kek_)),
            3);
  EXPECT_EQ(handshake_message_number(make_handshake_m4(2, kck_)), 4);
}

TEST_F(EapolFixture, MicVerifiesAndRejectsTamper) {
  auto m2 = make_handshake_m2(1, snonce_, rsn_ie_, kck_);
  EXPECT_TRUE(m2.verify_mic(kck_));

  auto decoded = EapolKeyFrame::decode(m2.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->verify_mic(kck_));

  decoded->nonce[0] ^= 1;
  EXPECT_FALSE(decoded->verify_mic(kck_));

  std::array<std::uint8_t, 16> wrong_kck = kck_;
  wrong_kck[0] ^= 1;
  EXPECT_FALSE(m2.verify_mic(wrong_kck));
}

TEST_F(EapolFixture, M1HasNoMic) {
  EXPECT_FALSE(make_handshake_m1(1, anonce_).has(KeyInfo::kMic));
}

TEST_F(EapolFixture, GtkRoundTripsThroughM3) {
  const auto m3 = make_handshake_m3(2, anonce_, rsn_ie_, gtk_, kck_, kek_);
  EXPECT_TRUE(m3.verify_mic(kck_));
  const auto decoded = EapolKeyFrame::decode(m3.encode());
  ASSERT_TRUE(decoded.has_value());
  const auto gtk = extract_gtk(*decoded, kek_);
  ASSERT_TRUE(gtk.has_value());
  EXPECT_TRUE(std::equal(gtk->begin(), gtk->end(), gtk_.begin(), gtk_.end()));
}

TEST_F(EapolFixture, GtkExtractFailsWithWrongKek) {
  const auto m3 = make_handshake_m3(2, anonce_, rsn_ie_, gtk_, kck_, kek_);
  std::array<std::uint8_t, 16> wrong = kek_;
  wrong[5] ^= 0xff;
  EXPECT_FALSE(extract_gtk(m3, wrong).has_value());
}

TEST_F(EapolFixture, DecodeRejectsGarbage) {
  EXPECT_FALSE(EapolKeyFrame::decode(Bytes{1, 2, 3}).has_value());
  Bytes not_key = make_handshake_m1(1, anonce_).encode();
  not_key[1] = 0;  // EAPOL type != Key
  EXPECT_FALSE(EapolKeyFrame::decode(not_key).has_value());
}

// ---------------------------------------------------------------------------
// CCMP session
// ---------------------------------------------------------------------------

TEST(Ccmp, SealOpenRoundTrip) {
  std::array<std::uint8_t, 16> tk{};
  for (std::size_t i = 0; i < tk.size(); ++i) tk[i] = static_cast<std::uint8_t>(i);
  CcmpSession tx{tk}, rx{tk};
  const MacAddress ta = MacAddress::from_seed(3);

  const Bytes plain = {1, 2, 3, 4, 5};
  const Bytes sealed = tx.seal(ta, plain);
  EXPECT_EQ(sealed.size(), plain.size() + CcmpSession::kOverhead);
  const auto opened = rx.open(ta, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, plain);
}

TEST(Ccmp, ReplayRejected) {
  std::array<std::uint8_t, 16> tk{};
  CcmpSession tx{tk}, rx{tk};
  const MacAddress ta = MacAddress::from_seed(3);
  const Bytes sealed = tx.seal(ta, Bytes{1});
  EXPECT_TRUE(rx.open(ta, sealed).has_value());
  EXPECT_FALSE(rx.open(ta, sealed).has_value());  // same PN again
}

TEST(Ccmp, PnIncreasesPerFrame) {
  std::array<std::uint8_t, 16> tk{};
  CcmpSession tx{tk};
  const MacAddress ta = MacAddress::from_seed(3);
  tx.seal(ta, Bytes{1});
  tx.seal(ta, Bytes{2});
  EXPECT_EQ(tx.tx_pn(), 2u);
}

TEST(Ccmp, WrongTransmitterAddressRejected) {
  std::array<std::uint8_t, 16> tk{};
  CcmpSession tx{tk}, rx{tk};
  const Bytes sealed = tx.seal(MacAddress::from_seed(3), Bytes{1, 2});
  EXPECT_FALSE(rx.open(MacAddress::from_seed(4), sealed).has_value());
}

TEST(Ccmp, OutOfOrderWithinWindowRejected) {
  // Strictly-increasing PN: frame 1 cannot arrive after frame 2.
  std::array<std::uint8_t, 16> tk{};
  CcmpSession tx{tk}, rx{tk};
  const MacAddress ta = MacAddress::from_seed(3);
  const Bytes first = tx.seal(ta, Bytes{1});
  const Bytes second = tx.seal(ta, Bytes{2});
  EXPECT_TRUE(rx.open(ta, second).has_value());
  EXPECT_FALSE(rx.open(ta, first).has_value());
}

}  // namespace
}  // namespace wile::dot11
