// Unit-level tests for the access point: beaconing, responder state
// machines, the WPA2 authenticator's gatekeeping, the DHCP server, and
// power-save buffering — exercised with hand-built frames rather than a
// full Station, so each behaviour is pinned down in isolation.
#include <gtest/gtest.h>

#include "ap/access_point.hpp"
#include "net/llc.hpp"
#include "sim/medium.hpp"
#include "sim/scheduler.hpp"

namespace wile::ap {
namespace {

/// A scripted peer: collects every frame and can transmit raw MPDUs.
class FakeSta : public sim::MediumClient {
 public:
  FakeSta(sim::Scheduler& scheduler, sim::Medium& medium, sim::Position pos,
          MacAddress mac)
      : scheduler_(scheduler), medium_(medium), mac_(mac) {
    node_id_ = medium_.attach(this, pos);
  }

  void transmit(Bytes mpdu, phy::WifiRate rate = phy::WifiRate::G6) {
    sim::TxRequest req;
    req.mpdu = std::move(mpdu);
    req.airtime = phy::frame_airtime(req.mpdu.size(), rate);
    req.rate = rate;
    medium_.transmit(node_id_, std::move(req));
  }

  void on_frame(const sim::RxFrame& frame) override {
    if (dot11::is_control_frame(frame.mpdu)) {
      if (auto ack = dot11::parse_ack(frame.mpdu); ack && ack->receiver == mac_) {
        ++acks;
      }
      return;
    }
    auto parsed = dot11::parse_mpdu(frame.mpdu);
    if (!parsed || !parsed->fcs_ok) return;
    frames.push_back(Bytes(frame.mpdu.begin(), frame.mpdu.end()));
    // ACK unicast frames addressed to us so the AP's CSMA can progress.
    if (parsed->header.addr1 == mac_) {
      scheduler_.schedule_in(phy::MacTiming::kSifs, [this] {
        if (!medium_.transmitting(node_id_)) transmit(dot11::build_ack(last_ta()), phy::kControlResponseRate);
      });
      last_ta_ = parsed->header.addr2;
    }
  }
  [[nodiscard]] bool rx_enabled() const override { return !medium_.transmitting(node_id_); }
  [[nodiscard]] MacAddress last_ta() const { return last_ta_; }

  /// Frames of a given management subtype addressed to us (or broadcast).
  std::vector<dot11::ParsedMpdu> mgmt(dot11::MgmtSubtype subtype) {
    std::vector<dot11::ParsedMpdu> out;
    for (const auto& mpdu : frames) {
      auto parsed = dot11::parse_mpdu(mpdu);
      if (parsed && parsed->header.fc.is_mgmt(subtype)) out.push_back(*parsed);
    }
    return out;
  }

  sim::Scheduler& scheduler_;
  sim::Medium& medium_;
  MacAddress mac_;
  sim::NodeId node_id_{};
  std::vector<Bytes> frames;
  int acks = 0;

 private:
  MacAddress last_ta_;
};

class ApTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ap_ = std::make_unique<AccessPoint>(scheduler_, medium_, sim::Position{0, 0}, cfg_,
                                        Rng{10});
    sta_ = std::make_unique<FakeSta>(scheduler_, medium_, sim::Position{2, 0},
                                     MacAddress::from_seed(0xFA));
  }

  void run_for(Duration d) { scheduler_.run_until(scheduler_.now() + d); }

  sim::Scheduler scheduler_;
  sim::Medium medium_{scheduler_, phy::Channel{}, Rng{1}};
  AccessPointConfig cfg_;
  std::unique_ptr<AccessPoint> ap_;
  std::unique_ptr<FakeSta> sta_;
};

TEST_F(ApTest, BeaconsAtConfiguredInterval) {
  ap_->start();
  run_for(seconds(2));
  const auto beacons = sta_->mgmt(dot11::MgmtSubtype::Beacon);
  // 2 s / 102.4 ms ≈ 19 beacons.
  EXPECT_GE(beacons.size(), 18u);
  EXPECT_LE(beacons.size(), 20u);

  const auto body = dot11::Beacon::decode(beacons[0].body);
  ASSERT_TRUE(body.has_value());
  EXPECT_EQ(dot11::parse_ssid_ie(body->ies), cfg_.ssid);
  EXPECT_TRUE(dot11::parse_tim_ie(body->ies).has_value());
  EXPECT_TRUE(dot11::has_rsn_psk(body->ies));  // WPA2 network
  EXPECT_TRUE(body->capability & dot11::Capability::kPrivacy);
  EXPECT_EQ(beacons[0].header.addr3, cfg_.bssid);
}

TEST_F(ApTest, RespondsToWildcardAndMatchingProbes) {
  dot11::ProbeRequest wildcard;
  wildcard.ies.add(dot11::make_ssid_ie(""));
  sta_->transmit(dot11::build_mgmt_mpdu(dot11::MgmtSubtype::ProbeRequest,
                                        MacAddress::broadcast(), sta_->mac_,
                                        MacAddress::broadcast(), 1, wildcard.encode()));
  run_for(msec(50));
  EXPECT_EQ(sta_->mgmt(dot11::MgmtSubtype::ProbeResponse).size(), 1u);

  dot11::ProbeRequest named;
  named.ies.add(dot11::make_ssid_ie(cfg_.ssid));
  sta_->transmit(dot11::build_mgmt_mpdu(dot11::MgmtSubtype::ProbeRequest,
                                        MacAddress::broadcast(), sta_->mac_,
                                        MacAddress::broadcast(), 2, named.encode()));
  run_for(msec(50));
  EXPECT_EQ(sta_->mgmt(dot11::MgmtSubtype::ProbeResponse).size(), 2u);
}

TEST_F(ApTest, IgnoresProbesForOtherSsids) {
  dot11::ProbeRequest other;
  other.ies.add(dot11::make_ssid_ie("SomeOtherNet"));
  sta_->transmit(dot11::build_mgmt_mpdu(dot11::MgmtSubtype::ProbeRequest,
                                        MacAddress::broadcast(), sta_->mac_,
                                        MacAddress::broadcast(), 1, other.encode()));
  run_for(msec(50));
  EXPECT_TRUE(sta_->mgmt(dot11::MgmtSubtype::ProbeResponse).empty());
}

TEST_F(ApTest, OpenAuthAcceptedSharedKeyRejected) {
  dot11::Authentication open;
  open.algorithm = dot11::Authentication::Algorithm::OpenSystem;
  sta_->transmit(dot11::build_mgmt_mpdu(dot11::MgmtSubtype::Authentication, cfg_.bssid,
                                        sta_->mac_, cfg_.bssid, 1, open.encode()));
  run_for(msec(50));
  auto responses = sta_->mgmt(dot11::MgmtSubtype::Authentication);
  ASSERT_EQ(responses.size(), 1u);
  auto body = dot11::Authentication::decode(responses[0].body);
  ASSERT_TRUE(body.has_value());
  EXPECT_EQ(body->status, dot11::StatusCode::Success);
  EXPECT_EQ(body->transaction_seq, 2);

  dot11::Authentication shared;
  shared.algorithm = dot11::Authentication::Algorithm::SharedKey;
  sta_->frames.clear();
  sta_->transmit(dot11::build_mgmt_mpdu(dot11::MgmtSubtype::Authentication, cfg_.bssid,
                                        sta_->mac_, cfg_.bssid, 2, shared.encode()));
  run_for(msec(50));
  responses = sta_->mgmt(dot11::MgmtSubtype::Authentication);
  ASSERT_EQ(responses.size(), 1u);
  body = dot11::Authentication::decode(responses[0].body);
  EXPECT_EQ(body->status, dot11::StatusCode::AuthAlgoUnsupported);
}

TEST_F(ApTest, AssociationRequiresAuthenticationFirst) {
  dot11::AssocRequest req;
  req.ies.add(dot11::make_ssid_ie(cfg_.ssid));
  sta_->transmit(dot11::build_mgmt_mpdu(dot11::MgmtSubtype::AssocRequest, cfg_.bssid,
                                        sta_->mac_, cfg_.bssid, 1, req.encode()));
  run_for(msec(50));
  EXPECT_TRUE(sta_->mgmt(dot11::MgmtSubtype::AssocResponse).empty());
}

TEST_F(ApTest, AssociationAfterAuthGetsAidAndM1) {
  dot11::Authentication auth;
  sta_->transmit(dot11::build_mgmt_mpdu(dot11::MgmtSubtype::Authentication, cfg_.bssid,
                                        sta_->mac_, cfg_.bssid, 1, auth.encode()));
  run_for(msec(50));

  dot11::AssocRequest req;
  req.ies.add(dot11::make_ssid_ie(cfg_.ssid));
  sta_->transmit(dot11::build_mgmt_mpdu(dot11::MgmtSubtype::AssocRequest, cfg_.bssid,
                                        sta_->mac_, cfg_.bssid, 2, req.encode()));
  run_for(msec(200));

  const auto responses = sta_->mgmt(dot11::MgmtSubtype::AssocResponse);
  ASSERT_EQ(responses.size(), 1u);
  const auto body = dot11::AssocResponse::decode(responses[0].body);
  ASSERT_TRUE(body.has_value());
  EXPECT_EQ(body->status, dot11::StatusCode::Success);
  EXPECT_EQ(body->aid, 1);

  // A protected network must kick off the handshake: an EAPOL M1 data
  // frame should have arrived.
  bool got_m1 = false;
  for (const auto& mpdu : sta_->frames) {
    auto parsed = dot11::parse_mpdu(mpdu);
    if (!parsed || parsed->header.fc.type != dot11::FrameType::Data) continue;
    auto llc = net::LlcSnap::decode(parsed->body);
    if (!llc || llc->ethertype != net::EtherType::Eapol) continue;
    auto frame = dot11::EapolKeyFrame::decode(llc->payload);
    if (frame && dot11::handshake_message_number(*frame) == 1) got_m1 = true;
  }
  EXPECT_TRUE(got_m1);
}

TEST_F(ApTest, UnicastFramesGetAcked) {
  dot11::Authentication auth;
  sta_->transmit(dot11::build_mgmt_mpdu(dot11::MgmtSubtype::Authentication, cfg_.bssid,
                                        sta_->mac_, cfg_.bssid, 1, auth.encode()));
  run_for(msec(50));
  EXPECT_GE(sta_->acks, 1);
}

TEST_F(ApTest, IgnoresFramesForOtherBssids) {
  dot11::Authentication auth;
  sta_->transmit(dot11::build_mgmt_mpdu(dot11::MgmtSubtype::Authentication,
                                        MacAddress::from_seed(0xEE), sta_->mac_,
                                        MacAddress::from_seed(0xEE), 1, auth.encode()));
  run_for(msec(50));
  EXPECT_TRUE(sta_->mgmt(dot11::MgmtSubtype::Authentication).empty());
  EXPECT_EQ(sta_->acks, 0);
}

TEST_F(ApTest, CorruptFcsFramesIgnored) {
  dot11::Authentication auth;
  Bytes mpdu = dot11::build_mgmt_mpdu(dot11::MgmtSubtype::Authentication, cfg_.bssid,
                                      sta_->mac_, cfg_.bssid, 1, auth.encode());
  mpdu[5] ^= 0xff;  // break the FCS
  sta_->transmit(std::move(mpdu));
  run_for(msec(50));
  EXPECT_TRUE(sta_->mgmt(dot11::MgmtSubtype::Authentication).empty());
}

TEST_F(ApTest, OpenNetworkBeaconsWithoutRsn) {
  AccessPointConfig open_cfg;
  open_cfg.passphrase.clear();
  open_cfg.bssid = MacAddress::from_seed(0xBB);
  AccessPoint open_ap{scheduler_, medium_, {0, 2}, open_cfg, Rng{11}};
  open_ap.start();
  run_for(msec(300));

  bool found = false;
  for (const auto& mpdu : sta_->frames) {
    auto parsed = dot11::parse_mpdu(mpdu);
    if (!parsed || !parsed->header.fc.is_mgmt(dot11::MgmtSubtype::Beacon)) continue;
    if (parsed->header.addr3 != open_cfg.bssid) continue;
    auto body = dot11::Beacon::decode(parsed->body);
    ASSERT_TRUE(body.has_value());
    EXPECT_FALSE(dot11::has_rsn_psk(body->ies));
    EXPECT_FALSE(body->capability & dot11::Capability::kPrivacy);
    found = true;
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace wile::ap
