// Integration tests: Wi-LE end to end over the simulated medium — the
// paper's §4 system (beacon injection, hidden SSID, vendor IE payloads),
// its §5.4 energy accounting, and the §6 extensions (multi-device
// collisions + jitter, two-way RX windows, encryption).
#include <gtest/gtest.h>

#include <stdexcept>

#include "wile/controller.hpp"
#include "wile/receiver.hpp"
#include "wile/sender.hpp"

namespace wile::core {
namespace {

class WileIntegration : public ::testing::Test {
 protected:
  sim::Scheduler scheduler_;
  sim::Medium medium_{scheduler_, phy::Channel{}, Rng{1}};
};

TEST_F(WileIntegration, SendNowDeliversToMonitor) {
  SenderConfig cfg;
  cfg.device_id = 0xAA01;
  Sender sender{scheduler_, medium_, {0, 0}, cfg, Rng{2}};
  Receiver monitor{scheduler_, medium_, {2, 0}};

  std::vector<Message> got;
  monitor.set_message_callback([&](const Message& m, const RxMeta&) { got.push_back(m); });

  std::optional<SendReport> report;
  sender.send_now(Bytes{'1', '7', 'C'}, [&](const SendReport& r) { report = r; });
  scheduler_.run_until_idle();

  ASSERT_TRUE(report.has_value());
  EXPECT_TRUE(report->success);
  EXPECT_EQ(report->beacons_sent, 1);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].device_id, 0xAA01u);
  EXPECT_EQ(got[0].data, (Bytes{'1', '7', 'C'}));
  EXPECT_EQ(monitor.stats().wile_beacons, 1u);
}

TEST_F(WileIntegration, InjectedBeaconUsesHiddenSsid) {
  // A plain 802.11 parser must see a beacon with a zero-length SSID —
  // the §4.1 spam-avoidance property.
  struct BeaconSniffer : sim::MediumClient {
    void on_frame(const sim::RxFrame& frame) override {
      auto parsed = dot11::parse_mpdu(frame.mpdu);
      if (!parsed || !parsed->fcs_ok) return;
      if (!parsed->header.fc.is_mgmt(dot11::MgmtSubtype::Beacon)) return;
      auto beacon = dot11::Beacon::decode(parsed->body);
      if (!beacon) return;
      ++beacons;
      hidden = dot11::parse_ssid_ie(beacon->ies) == "";  // present and empty
      for (const dot11::InfoElement& ie : beacon->ies.elements()) {
        if (ie.id == dot11::IeId::VendorSpecific) ++vendor_elements;
      }
    }
    [[nodiscard]] bool rx_enabled() const override { return true; }
    int beacons = 0;
    bool hidden = false;
    std::size_t vendor_elements = 0;
  } sniffer;
  medium_.attach(&sniffer, {1, 0});

  SenderConfig cfg;
  Sender sender{scheduler_, medium_, {0, 0}, cfg, Rng{2}};
  sender.send_now(Bytes{1, 2, 3}, {});
  scheduler_.run_until_idle();

  EXPECT_EQ(sniffer.beacons, 1);
  EXPECT_TRUE(sniffer.hidden);
  EXPECT_EQ(sniffer.vendor_elements, 1u);
}

TEST_F(WileIntegration, SpoofedSsidModeIsVisible) {
  // The ablation arm: advertising an SSID would spam nearby devices'
  // AP lists (what hidden SSID avoids).
  SenderConfig cfg;
  cfg.spoofed_ssid = "IoT-Sensor-17";
  Sender sender{scheduler_, medium_, {0, 0}, cfg, Rng{2}};

  ReceiverConfig strict;
  strict.require_hidden_ssid = true;
  Receiver strict_monitor{scheduler_, medium_, {2, 0}, strict};
  Receiver lax_monitor{scheduler_, medium_, {2, 1}};

  sender.send_now(Bytes{1}, {});
  scheduler_.run_until_idle();

  EXPECT_EQ(strict_monitor.stats().messages, 0u);  // rejected: SSID visible
  EXPECT_EQ(lax_monitor.stats().messages, 1u);
}

TEST_F(WileIntegration, TxOnlyEnergyMatchesTable1) {
  // Table 1: Wi-LE 84 uJ/packet at 72 Mbps, counting only TX time.
  SenderConfig cfg;
  Sender sender{scheduler_, medium_, {0, 0}, cfg, Rng{2}};
  std::optional<SendReport> report;
  sender.send_now(Bytes(16, 0xab), [&](const SendReport& r) { report = r; });
  scheduler_.run_until_idle();

  ASSERT_TRUE(report.has_value());
  const double uj = in_microjoules(report->tx_only_energy);
  EXPECT_GT(uj, 75.0);
  EXPECT_LT(uj, 95.0);
  // The full cycle (init + shutdown) costs more, but still orders of
  // magnitude below WiFi-DC's ~238 mJ.
  EXPECT_GT(report->cycle_energy.value, report->tx_only_energy.value);
  EXPECT_LT(in_millijoules(report->cycle_energy), 50.0);
}

TEST_F(WileIntegration, DutyCycleDeliversPeriodically) {
  SenderConfig cfg;
  cfg.device_id = 3;
  cfg.period = seconds(10);
  Sender sender{scheduler_, medium_, {0, 0}, cfg, Rng{2}};
  Receiver monitor{scheduler_, medium_, {2, 0}};

  int counter = 0;
  sender.start_duty_cycle([&] { return Bytes{static_cast<std::uint8_t>(counter++)}; });
  scheduler_.run_until(TimePoint{seconds(61)});
  sender.stop_duty_cycle();

  EXPECT_EQ(monitor.stats().messages, 6u);
  const auto& dev = monitor.devices().at(3);
  EXPECT_EQ(dev.messages, 6u);
  EXPECT_EQ(dev.estimated_losses, 0u);
}

TEST_F(WileIntegration, EncryptedPayloadOnlyReadableWithKey) {
  const Bytes key(16, 0x5c);
  SenderConfig cfg;
  cfg.key = key;
  Sender sender{scheduler_, medium_, {0, 0}, cfg, Rng{2}};

  ReceiverConfig with_key;
  with_key.key = key;
  Receiver keyed{scheduler_, medium_, {2, 0}, with_key};
  Receiver keyless{scheduler_, medium_, {2, 1}};

  sender.send_now(Bytes{'s', 'e', 'c', 'r', 'e', 't'}, {});
  scheduler_.run_until_idle();

  EXPECT_EQ(keyed.stats().messages, 1u);
  EXPECT_EQ(keyless.stats().messages, 0u);
}

TEST_F(WileIntegration, LargePayloadFragmentsAcrossBeacons) {
  SenderConfig cfg;
  cfg.device_id = 9;
  Sender sender{scheduler_, medium_, {0, 0}, cfg, Rng{2}};
  Receiver monitor{scheduler_, medium_, {2, 0}};

  Rng data_rng{7};
  Bytes big(600);
  for (auto& b : big) b = static_cast<std::uint8_t>(data_rng.below(256));

  std::vector<Message> got;
  monitor.set_message_callback([&](const Message& m, const RxMeta&) { got.push_back(m); });
  std::optional<SendReport> report;
  sender.send_now(big, [&](const SendReport& r) { report = r; });
  scheduler_.run_until_idle();

  ASSERT_TRUE(report.has_value());
  EXPECT_GE(report->beacons_sent, 3);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].data, big);
}

TEST_F(WileIntegration, SequenceGapsEstimateLosses) {
  // Move the receiver to the edge of range so some beacons drop.
  SenderConfig cfg;
  cfg.device_id = 4;
  cfg.period = seconds(1);
  Sender sender{scheduler_, medium_, {0, 0}, cfg, Rng{2}};
  Receiver monitor{scheduler_, medium_, {10.5, 0}};  // at the PER cliff for 72 Mbps

  sender.start_duty_cycle([] { return Bytes{1}; });
  scheduler_.run_until(TimePoint{seconds(120)});
  sender.stop_duty_cycle();

  const auto it = monitor.devices().find(4);
  ASSERT_NE(it, monitor.devices().end());
  const auto& dev = it->second;
  EXPECT_GT(dev.messages, 10u);          // link is lossy but alive
  EXPECT_GT(dev.estimated_losses, 0u);   // and gaps were noticed
  EXPECT_EQ(dev.messages + dev.estimated_losses, dev.last_sequence + 1);
}

TEST_F(WileIntegration, TwoWayDownlinkThroughRxWindow) {
  SenderConfig cfg;
  cfg.device_id = 0xD1;
  cfg.rx_window = RxWindow{msec(2), msec(20)};
  Sender sender{scheduler_, medium_, {0, 0}, cfg, Rng{2}};

  ControllerConfig ctl_cfg;
  Controller controller{scheduler_, medium_, {2, 0}, ctl_cfg, Rng{3}};
  controller.queue_downlink(0xD1, Bytes{'c', 'f', 'g'});

  std::vector<Message> downlinks;
  sender.set_downlink_callback([&](const Message& m) { downlinks.push_back(m); });

  std::optional<SendReport> report;
  sender.send_now(Bytes{1}, [&](const SendReport& r) { report = r; });
  scheduler_.run_until_idle();

  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->downlinks_received, 1u);
  ASSERT_EQ(downlinks.size(), 1u);
  EXPECT_EQ(downlinks[0].data, (Bytes{'c', 'f', 'g'}));
  EXPECT_EQ(downlinks[0].type, MessageType::Downlink);
  EXPECT_EQ(controller.stats().downlinks_sent, 1u);
}

TEST_F(WileIntegration, DownlinkOfOneFullElementArrivesAsOneMessage) {
  SenderConfig cfg;
  cfg.device_id = 0xD1;
  cfg.rx_window = RxWindow{msec(2), msec(20)};
  Sender sender{scheduler_, medium_, {0, 0}, cfg, Rng{2}};
  Controller controller{scheduler_, medium_, {2, 0}, ControllerConfig{}, Rng{3}};
  const Bytes payload(235, 0x5c);  // max_fragment_data(false, false)
  controller.queue_downlink(0xD1, payload);

  std::vector<Message> downlinks;
  sender.set_downlink_callback([&](const Message& m) { downlinks.push_back(m); });
  std::optional<SendReport> report;
  sender.send_now(Bytes{1}, [&](const SendReport& r) { report = r; });
  scheduler_.run_until_idle();

  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->downlinks_received, 1u);
  ASSERT_EQ(downlinks.size(), 1u);
  EXPECT_EQ(downlinks[0].data, payload);
}

TEST_F(WileIntegration, DownlinkLargerThanOneElementIsRefused) {
  // The device keeps no reassembler, so a downlink must fit one element:
  // 235 B plain, 227 B once the AEAD tag takes its 8 bytes.
  Controller plain{scheduler_, medium_, {2, 0}, ControllerConfig{}, Rng{3}};
  EXPECT_THROW(plain.queue_downlink(0xD1, Bytes(236, 0)), std::invalid_argument);
  EXPECT_NO_THROW(plain.queue_downlink(0xD1, Bytes(235, 0)));

  ControllerConfig keyed_cfg;
  keyed_cfg.key = Bytes(16, 0x42);
  Controller keyed{scheduler_, medium_, {3, 0}, keyed_cfg, Rng{4}};
  EXPECT_THROW(keyed.queue_downlink(0xD1, Bytes(228, 0)), std::invalid_argument);
  EXPECT_NO_THROW(keyed.queue_downlink(0xD1, Bytes(227, 0)));
  EXPECT_EQ(plain.stats().downlinks_queued + keyed.stats().downlinks_queued, 2u);
}

TEST_F(WileIntegration, RxWindowCostsEnergyButOnlyWhenEnabled) {
  SenderConfig plain;
  Sender s1{scheduler_, medium_, {0, 0}, plain, Rng{2}};
  std::optional<SendReport> r1;
  s1.send_now(Bytes{1}, [&](const SendReport& r) { r1 = r; });
  scheduler_.run_until_idle();

  SenderConfig windowed;
  windowed.rx_window = RxWindow{msec(2), msec(20)};
  Sender s2{scheduler_, medium_, {0, 1}, windowed, Rng{3}};
  std::optional<SendReport> r2;
  s2.send_now(Bytes{1}, [&](const SendReport& r) { r2 = r; });
  scheduler_.run_until_idle();

  ASSERT_TRUE(r1 && r2);
  EXPECT_GT(r2->cycle_energy.value, r1->cycle_energy.value);
  // TX-only accounting is identical: the window is an RX cost.
  EXPECT_NEAR(in_microjoules(r2->tx_only_energy), in_microjoules(r1->tx_only_energy), 1.0);
}

TEST_F(WileIntegration, CoPeriodicSendersCollideWithoutCsmaOrJitter) {
  // §6: two devices with identical periods and no carrier sense collide
  // persistently; clock jitter disperses them.
  auto run_scenario = [&](bool jitter, Rng seed) {
    sim::Scheduler scheduler;
    sim::Medium medium{scheduler, phy::Channel{}, seed.fork()};
    Receiver monitor{scheduler, medium, {0, 2}};

    std::vector<std::unique_ptr<Sender>> senders;
    for (std::uint32_t i = 0; i < 2; ++i) {
      SenderConfig cfg;
      cfg.device_id = 100 + i;
      cfg.period = seconds(2);
      cfg.use_csma = false;  // raw injection, worst case
      if (jitter) cfg.wake_jitter = msec(5);
      senders.push_back(std::make_unique<Sender>(scheduler, medium,
                                                 sim::Position{static_cast<double>(i), 0},
                                                 cfg, seed.fork()));
      senders.back()->start_duty_cycle([] { return Bytes{0xee}; });
    }
    scheduler.run_until(TimePoint{seconds(121)});
    for (auto& s : senders) s->stop_duty_cycle();
    return monitor.stats().messages;
  };

  const auto without_jitter = run_scenario(false, Rng{50});
  const auto with_jitter = run_scenario(true, Rng{50});
  // 2 senders x 60 cycles = 120 messages possible.
  EXPECT_EQ(without_jitter, 0u);      // perfectly synchronised: all collide
  EXPECT_GT(with_jitter, 100u);       // jitter disperses the overlap
}

TEST_F(WileIntegration, CsmaAvoidsCollisionsEvenWhenSynchronised) {
  sim::Scheduler scheduler;
  sim::Medium medium{scheduler, phy::Channel{}, Rng{60}};
  Receiver monitor{scheduler, medium, {0, 2}};

  std::vector<std::unique_ptr<Sender>> senders;
  Rng seed{61};
  for (std::uint32_t i = 0; i < 2; ++i) {
    SenderConfig cfg;
    cfg.device_id = 200 + i;
    cfg.period = seconds(2);
    cfg.use_csma = true;  // carrier sense defers the second injector
    senders.push_back(std::make_unique<Sender>(scheduler, medium,
                                               sim::Position{static_cast<double>(i), 0},
                                               cfg, seed.fork()));
    senders.back()->start_duty_cycle([] { return Bytes{0xcc}; });
  }
  scheduler.run_until(TimePoint{seconds(121)});
  for (auto& s : senders) s->stop_duty_cycle();

  // CSMA cannot fully serialise perfectly-synchronised senders (equal
  // backoff draws still collide, ~1/16 per attempt with CW_min=15), but
  // it must recover most of the traffic the raw injectors lost entirely.
  EXPECT_GT(monitor.stats().messages, 95u);
}

TEST_F(WileIntegration, ManyDevicesRegistryTracksAll) {
  Receiver monitor{scheduler_, medium_, {0, 0}};
  std::vector<std::unique_ptr<Sender>> senders;
  Rng seed{70};
  constexpr int kDevices = 10;
  for (int i = 0; i < kDevices; ++i) {
    SenderConfig cfg;
    cfg.device_id = 1000 + i;
    cfg.period = seconds(5);
    cfg.wake_jitter = msec(50);
    senders.push_back(std::make_unique<Sender>(
        scheduler_, medium_, sim::Position{static_cast<double>(i % 3), i * 0.5}, cfg,
        seed.fork()));
    senders.back()->start_duty_cycle(
        [i] { return Bytes{static_cast<std::uint8_t>(i)}; });
  }
  scheduler_.run_until(TimePoint{seconds(60)});
  for (auto& s : senders) s->stop_duty_cycle();

  EXPECT_EQ(monitor.devices().size(), static_cast<std::size_t>(kDevices));
  for (const auto& [id, dev] : monitor.devices()) {
    EXPECT_GE(dev.messages, 10u) << "device " << id;
  }
}

}  // namespace
}  // namespace wile::core
