// Tests for reliable Wi-LE: controller auto-acks over the two-way
// channel; senders retransmit unacknowledged messages.
#include <gtest/gtest.h>

#include "wile/controller.hpp"
#include "wile/receiver.hpp"
#include "wile/sender.hpp"

namespace wile::core {
namespace {

SenderConfig reliable_sender_config(std::uint32_t device_id) {
  SenderConfig cfg;
  cfg.device_id = device_id;
  cfg.period = seconds(1);
  cfg.rx_window = RxWindow{msec(2), msec(20)};
  cfg.reliable = true;
  return cfg;
}

ControllerConfig acking_controller_config() {
  ControllerConfig cfg;
  cfg.auto_ack = true;
  return cfg;
}

TEST(ReliableMode, CleanChannelAcksEveryCycle) {
  sim::Scheduler scheduler;
  sim::Medium medium{scheduler, phy::Channel{}, Rng{1}};
  Sender sender{scheduler, medium, {0, 0}, reliable_sender_config(1), Rng{2}};
  Controller controller{scheduler, medium, {2, 0}, acking_controller_config(), Rng{3}};

  int acked = 0, retransmissions = 0, cycles = 0;
  sender.start_duty_cycle([] { return Bytes{0x11}; },
                          [&](const SendReport& r) {
                            ++cycles;
                            if (r.acked) ++acked;
                            if (r.retransmission) ++retransmissions;
                          });
  scheduler.run_until(TimePoint{seconds(10) + msec(500)});
  sender.stop_duty_cycle();

  EXPECT_EQ(cycles, 10);
  EXPECT_EQ(acked, 10);
  EXPECT_EQ(retransmissions, 0);
  EXPECT_EQ(sender.messages_dropped_unacked(), 0u);
  EXPECT_EQ(controller.stats().acks_sent, 10u);
}

TEST(ReliableMode, NoControllerRetriesThenDrops) {
  sim::Scheduler scheduler;
  sim::Medium medium{scheduler, phy::Channel{}, Rng{1}};
  auto cfg = reliable_sender_config(1);
  cfg.reliable_max_attempts = 3;
  Sender sender{scheduler, medium, {0, 0}, cfg, Rng{2}};
  Receiver monitor{scheduler, medium, {2, 0}};  // passive, never acks

  std::vector<std::uint32_t> seqs;
  monitor.set_message_callback(
      [&](const Message& m, const RxMeta&) { seqs.push_back(m.sequence); });

  int retransmissions = 0;
  sender.start_duty_cycle([] { return Bytes{0x22}; },
                          [&](const SendReport& r) {
                            if (r.retransmission) ++retransmissions;
                          });
  scheduler.run_until(TimePoint{seconds(9) + msec(500)});
  sender.stop_duty_cycle();

  // 9 cycles = 3 messages x 3 attempts each. The monitor's dedup
  // delivers each sequence once and counts the 6 repeats as duplicates.
  EXPECT_EQ(seqs, (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_EQ(retransmissions, 6);
  // Drops are counted lazily when the next message displaces the stale
  // one; message 2 is still pending when the duty cycle stops.
  EXPECT_EQ(sender.messages_dropped_unacked(), 2u);
  EXPECT_EQ(monitor.stats().duplicates, 6u);
  EXPECT_EQ(monitor.stats().messages, 3u);
}

TEST(ReliableMode, LossyWindowRecoversViaRetransmission) {
  // Put the controller at the edge so some beacons (or acks) drop; the
  // retransmission loop must still get every message through
  // eventually, with zero drops.
  sim::Scheduler scheduler;
  sim::Medium medium{scheduler, phy::Channel{}, Rng{7}};
  auto cfg = reliable_sender_config(1);
  cfg.reliable_max_attempts = 6;
  Sender sender{scheduler, medium, {0, 0}, cfg, Rng{8}};
  Controller controller{scheduler, medium, {10.8, 0}, acking_controller_config(), Rng{9}};

  std::set<std::uint32_t> delivered;
  controller.set_message_callback(
      [&](const Message& m, const RxMeta&) { delivered.insert(m.sequence); });

  int acked = 0, retransmissions = 0, cycles = 0;
  sender.start_duty_cycle([] { return Bytes{0x33}; },
                          [&](const SendReport& r) {
                            ++cycles;
                            if (r.acked) ++acked;
                            if (r.retransmission) ++retransmissions;
                          });
  scheduler.run_until(TimePoint{seconds(120)});
  sender.stop_duty_cycle();

  EXPECT_GT(retransmissions, 5);                     // the link is lossy
  EXPECT_EQ(sender.messages_dropped_unacked(), 0u);  // but nothing was lost
  EXPECT_EQ(delivered.size(), static_cast<std::size_t>(cycles - retransmissions));
  EXPECT_EQ(acked, cycles - retransmissions);
}

TEST(ReliableMode, AckForWrongSequenceIgnored) {
  // A (stale) ack naming a different sequence must not clear the pending
  // message. Drive the codec path directly.
  sim::Scheduler scheduler;
  sim::Medium medium{scheduler, phy::Channel{}, Rng{1}};
  auto cfg = reliable_sender_config(1);
  Sender sender{scheduler, medium, {0, 0}, cfg, Rng{2}};

  // Craft a controller that acks sequence 999 instead of the real one.
  struct BogusAcker : sim::MediumClient {
    BogusAcker(sim::Scheduler& s, sim::Medium& m) : scheduler(s), medium(m) {
      id = m.attach(this, {2, 0});
    }
    void on_frame(const sim::RxFrame& frame) override {
      auto parsed = dot11::parse_mpdu(frame.mpdu);
      if (!parsed || !parsed->header.fc.is_mgmt(dot11::MgmtSubtype::Beacon)) return;
      auto beacon = dot11::Beacon::decode(parsed->body);
      if (!beacon) return;
      Codec codec;
      for (const Fragment& f : codec.decode_all(beacon->ies)) {
        if (!f.rx_window) continue;
        scheduler.schedule_in(f.rx_window->offset + msec(1), [this, dev = f.device_id] {
          Message ack;
          ack.device_id = dev;
          ack.type = MessageType::Ack;
          ByteWriter w(4);
          w.u32le(999);  // wrong sequence
          ack.data = w.take();
          Codec c;
          dot11::Beacon b;
          b.ies.add(dot11::make_ssid_ie(""));
          for (const auto& ie : c.encode(ack)) b.ies.add(ie);
          dot11::MacHeader h;
          h.fc = dot11::FrameControl::mgmt(dot11::MgmtSubtype::Beacon);
          h.addr1 = MacAddress::broadcast();
          h.addr2 = MacAddress::from_seed(0xBAD);
          h.addr3 = MacAddress::from_seed(0xBAD);
          sim::TxRequest req;
          req.mpdu = dot11::assemble_mpdu(h, b.encode());
          req.airtime = phy::frame_airtime(req.mpdu.size(), phy::WifiRate::Mcs7Sgi);
          req.rate = phy::WifiRate::Mcs7Sgi;
          if (!medium.transmitting(id)) medium.transmit(id, std::move(req));
        });
      }
    }
    [[nodiscard]] bool rx_enabled() const override { return !medium.transmitting(id); }
    sim::Scheduler& scheduler;
    sim::Medium& medium;
    sim::NodeId id{};
  } bogus{scheduler, medium};

  std::optional<SendReport> report;
  sender.send_now(Bytes{1}, [&](const SendReport& r) { report = r; });
  scheduler.run_until_idle();

  ASSERT_TRUE(report.has_value());
  EXPECT_FALSE(report->acked);  // the bogus ack must not count
}

TEST(ReliableMode, MonitorNearControllerRegistersOnlyUplinks) {
  // A monitor in range of an auto-acking controller hears its Acks and
  // Downlinks too. Those reuse the device id in the controller's own
  // sequence space, so they must stay out of the uplink registry: read
  // as uplinks, they would count as messages and duplicates and hide
  // the device's own readings.
  for (const int queued : {0, 5}) {
    SCOPED_TRACE(testing::Message() << queued << " downlinks queued");
    sim::Scheduler scheduler;
    sim::Medium medium{scheduler, phy::Channel{}, Rng{1}};
    auto cfg = reliable_sender_config(5);
    cfg.period = msec(400);
    cfg.rx_window = RxWindow{msec(2), msec(15)};
    Sender sender{scheduler, medium, {0, 0}, cfg, Rng{2}};
    Controller controller{scheduler, medium, {3, 0}, acking_controller_config(), Rng{3}};
    for (int i = 0; i < queued; ++i) controller.queue_downlink(5, Bytes{'d'});
    Receiver monitor{scheduler, medium, {4, 0}};

    std::uint64_t telemetry = 0;
    monitor.set_message_callback([&](const Message& m, const RxMeta&) {
      if (m.type == MessageType::Telemetry) ++telemetry;
    });
    sender.start_duty_cycle([] { return Bytes{0x44}; });
    scheduler.run_until(TimePoint{seconds(40)});
    sender.stop_duty_cycle();

    EXPECT_EQ(sender.cycles_run(), 100u);
    EXPECT_EQ(controller.stats().acks_sent, 99u);
    EXPECT_EQ(controller.stats().downlinks_sent, static_cast<std::uint64_t>(queued));
    EXPECT_EQ(monitor.stats().messages, 99u);
    EXPECT_EQ(telemetry, 99u);
    EXPECT_EQ(monitor.stats().duplicates, 0u);
  }
}

TEST(ReliableMode, ControllerNearControllerDeliversOnlyUplinks) {
  // A passive controller in range of an acking one hears its Acks. They
  // carry the device's id but are no uplink, so they must not reach the
  // passive controller's reassembler or message callback.
  sim::Scheduler scheduler;
  sim::Medium medium{scheduler, phy::Channel{}, Rng{1}};
  auto cfg = reliable_sender_config(5);
  cfg.period = msec(400);
  cfg.rx_window = RxWindow{msec(2), msec(15)};
  Sender sender{scheduler, medium, {0, 0}, cfg, Rng{2}};
  Controller acking{scheduler, medium, {3, 0}, acking_controller_config(), Rng{3}};
  Controller passive{scheduler, medium, {4, 0}, ControllerConfig{}, Rng{4}};

  std::uint64_t telemetry = 0, acks = 0;
  passive.set_message_callback([&](const Message& m, const RxMeta&) {
    if (m.type == MessageType::Telemetry) ++telemetry;
    if (m.type == MessageType::Ack) ++acks;
  });
  sender.start_duty_cycle([] { return Bytes{0x44}; });
  scheduler.run_until(TimePoint{seconds(40)});
  sender.stop_duty_cycle();

  EXPECT_EQ(acking.stats().acks_sent, 99u);
  EXPECT_EQ(telemetry, 99u);
  EXPECT_EQ(acks, 0u);
}

}  // namespace
}  // namespace wile::core
