// Tests for the SSID-stuffing comparison arm (§2 related work) and the
// receiver's CSV export.
#include <gtest/gtest.h>

#include "wile/receiver.hpp"
#include "wile/scan_list.hpp"
#include "wile/sender.hpp"

namespace wile::core {
namespace {

TEST(SsidStuffing, CodecRoundTrip) {
  Message msg;
  msg.device_id = 0x1234;
  msg.sequence = 200;
  msg.data = {1, 2, 3, 4};
  const auto ssid = encode_ssid_stuffed(msg);
  ASSERT_TRUE(ssid.has_value());
  EXPECT_LE(ssid->size(), 32u);

  const auto back = decode_ssid_stuffed(*ssid);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->device_id, 0x1234u);
  EXPECT_EQ(back->sequence, 200u);
  EXPECT_EQ(back->data, msg.data);
}

TEST(SsidStuffing, CapacityLimits) {
  Message msg;
  msg.device_id = 1;
  msg.data = Bytes(kSsidStuffingCapacity, 0xaa);
  EXPECT_TRUE(encode_ssid_stuffed(msg).has_value());
  msg.data.push_back(0);
  EXPECT_FALSE(encode_ssid_stuffed(msg).has_value());

  Message wide_id;
  wide_id.device_id = 0x10000;  // needs more than 16 bits
  EXPECT_FALSE(encode_ssid_stuffed(wide_id).has_value());
}

TEST(SsidStuffing, OrdinarySsidsRejected) {
  EXPECT_FALSE(decode_ssid_stuffed("GoogleWifi").has_value());
  EXPECT_FALSE(decode_ssid_stuffed("").has_value());
  EXPECT_FALSE(decode_ssid_stuffed("W!").has_value());  // too short
}

TEST(SsidStuffing, EndToEndDelivery) {
  sim::Scheduler scheduler;
  sim::Medium medium{scheduler, phy::Channel{}, Rng{1}};
  SenderConfig cfg;
  cfg.device_id = 77;
  cfg.ssid_stuffing = true;
  Sender sender{scheduler, medium, {0, 0}, cfg, Rng{2}};
  Receiver monitor{scheduler, medium, {2, 0}};

  std::vector<Message> got;
  monitor.set_message_callback([&](const Message& m, const RxMeta&) { got.push_back(m); });
  std::optional<SendReport> report;
  sender.send_now(Bytes{'o', 'k'}, [&](const SendReport& r) { report = r; });
  scheduler.run_until_idle();

  ASSERT_TRUE(report && report->success);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].device_id, 77u);
  EXPECT_EQ(got[0].data, (Bytes{'o', 'k'}));
}

TEST(SsidStuffing, OversizedPayloadFailsTheCycle) {
  sim::Scheduler scheduler;
  sim::Medium medium{scheduler, phy::Channel{}, Rng{1}};
  SenderConfig cfg;
  cfg.ssid_stuffing = true;
  Sender sender{scheduler, medium, {0, 0}, cfg, Rng{2}};
  std::optional<SendReport> report;
  sender.send_now(Bytes(64, 1), [&](const SendReport& r) { report = r; });
  scheduler.run_until_idle();
  ASSERT_TRUE(report.has_value());
  EXPECT_FALSE(report->success);  // 64 B does not fit the SSID field
}

TEST(SsidStuffing, SpamsTheScanListUnlikeHiddenMode) {
  sim::Scheduler scheduler;
  sim::Medium medium{scheduler, phy::Channel{}, Rng{1}};
  ScanListModel phone{scheduler, medium, {0, 2}};

  SenderConfig stuffed_cfg;
  stuffed_cfg.device_id = 1;
  stuffed_cfg.ssid_stuffing = true;
  Sender stuffed{scheduler, medium, {0, 0}, stuffed_cfg, Rng{2}};

  SenderConfig hidden_cfg;
  hidden_cfg.device_id = 2;
  Sender hidden{scheduler, medium, {1, 0}, hidden_cfg, Rng{3}};

  stuffed.send_now(Bytes{1}, {});
  hidden.send_now(Bytes{1}, {});
  scheduler.run_until_idle();

  // Exactly one junk entry: the stuffed sender. The Wi-LE sender stays
  // invisible — the §4.1 trade in one assertion.
  EXPECT_EQ(phone.visible().size(), 1u);
  EXPECT_EQ(phone.hidden_networks(), 1u);
}

}  // namespace
}  // namespace wile::core
