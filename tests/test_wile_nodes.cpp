// Unit-level behaviour tests for the Wi-LE nodes (Sender / Receiver /
// Controller) beyond the end-to-end integration suite: lifecycle,
// scheduling, configuration knobs, and edge cases.
#include <gtest/gtest.h>

#include "wile/controller.hpp"
#include "wile/receiver.hpp"
#include "wile/sender.hpp"

namespace wile::core {
namespace {

class WileNodes : public ::testing::Test {
 protected:
  sim::Scheduler scheduler_;
  sim::Medium medium_{scheduler_, phy::Channel{}, Rng{1}};
};

// ---------------------------------------------------------------------------
// Sender lifecycle
// ---------------------------------------------------------------------------

TEST_F(WileNodes, StopDutyCycleStopsPromptly) {
  SenderConfig cfg;
  cfg.period = seconds(1);
  Sender sender{scheduler_, medium_, {0, 0}, cfg, Rng{2}};
  Receiver monitor{scheduler_, medium_, {2, 0}};

  sender.start_duty_cycle([] { return Bytes{1}; });
  scheduler_.run_until(TimePoint{seconds(3) + msec(500)});
  sender.stop_duty_cycle();
  const auto at_stop = monitor.stats().messages;
  scheduler_.run_until(TimePoint{seconds(10)});
  EXPECT_EQ(monitor.stats().messages, at_stop);
  EXPECT_EQ(sender.cycles_run(), at_stop);
}

TEST_F(WileNodes, SendNowWhileBusyThrows) {
  SenderConfig cfg;
  Sender sender{scheduler_, medium_, {0, 0}, cfg, Rng{2}};
  sender.send_now(Bytes{1}, {});
  EXPECT_THROW(sender.send_now(Bytes{2}, {}), std::logic_error);
  scheduler_.run_until_idle();
  // After the cycle completes, sending works again.
  EXPECT_NO_THROW(sender.send_now(Bytes{3}, {}));
  scheduler_.run_until_idle();
}

TEST_F(WileNodes, NullProviderRejected) {
  SenderConfig cfg;
  Sender sender{scheduler_, medium_, {0, 0}, cfg, Rng{2}};
  EXPECT_THROW(sender.start_duty_cycle(nullptr), std::invalid_argument);
}

TEST_F(WileNodes, SequenceNumbersIncrementPerCycle) {
  SenderConfig cfg;
  cfg.period = seconds(1);
  Sender sender{scheduler_, medium_, {0, 0}, cfg, Rng{2}};
  Receiver monitor{scheduler_, medium_, {2, 0}};
  std::vector<std::uint32_t> seqs;
  monitor.set_message_callback(
      [&](const Message& m, const RxMeta&) { seqs.push_back(m.sequence); });

  sender.start_duty_cycle([] { return Bytes{1}; });
  scheduler_.run_until(TimePoint{seconds(5) + msec(500)});
  sender.stop_duty_cycle();
  ASSERT_EQ(seqs.size(), 5u);
  for (std::size_t i = 0; i < seqs.size(); ++i) EXPECT_EQ(seqs[i], i);
}

TEST_F(WileNodes, ClockPpmErrorSkewsThePeriod) {
  // +40 ppm on a 1 s period = +40 us per cycle; over 100 cycles the
  // fast and slow devices drift ~8 ms apart — measurable, tiny, and
  // exactly what §6 relies on.
  auto last_arrival = [&](double ppm) {
    sim::Scheduler scheduler;
    sim::Medium medium{scheduler, phy::Channel{}, Rng{3}};
    SenderConfig cfg;
    cfg.period = seconds(1);
    cfg.clock_ppm_error = ppm;
    Sender sender{scheduler, medium, {0, 0}, cfg, Rng{4}};
    Receiver monitor{scheduler, medium, {2, 0}};
    TimePoint last{};
    monitor.set_message_callback(
        [&](const Message&, const RxMeta& meta) { last = meta.received_at; });
    sender.start_duty_cycle([] { return Bytes{1}; });
    scheduler.run_until(TimePoint{seconds(101)});
    sender.stop_duty_cycle();
    return last;
  };
  const TimePoint fast = last_arrival(-40.0);
  const TimePoint slow = last_arrival(+40.0);
  const double drift_us = static_cast<double>((slow - fast).count());
  EXPECT_NEAR(drift_us, 8000.0, 200.0);  // 100 cycles x 80 us differential
}

TEST_F(WileNodes, PowerDrawAccessorsMatchProfile) {
  SenderConfig cfg;
  Sender sender{scheduler_, medium_, {0, 0}, cfg, Rng{2}};
  EXPECT_NEAR(sender.tx_power_draw().value, 0.6, 0.01);
  EXPECT_NEAR(in_microwatts(sender.idle_power_draw()), 8.25, 0.01);
}

TEST_F(WileNodes, DerivedMacIsStablePerDevice) {
  SenderConfig a;
  a.device_id = 5;
  SenderConfig b;
  b.device_id = 5;
  SenderConfig c;
  c.device_id = 6;
  Sender sa{scheduler_, medium_, {0, 0}, a, Rng{1}};
  Sender sb{scheduler_, medium_, {0, 1}, b, Rng{2}};
  Sender sc{scheduler_, medium_, {0, 2}, c, Rng{3}};
  EXPECT_EQ(sa.config().mac, sb.config().mac);
  EXPECT_NE(sa.config().mac, sc.config().mac);
  EXPECT_TRUE(sa.config().mac.is_local());
}

// ---------------------------------------------------------------------------
// Receiver details
// ---------------------------------------------------------------------------

TEST_F(WileNodes, RssiFallsWithDistance) {
  SenderConfig cfg;
  Sender sender{scheduler_, medium_, {0, 0}, cfg, Rng{2}};
  Receiver near{scheduler_, medium_, {1, 0}};
  Receiver far{scheduler_, medium_, {6, 0}};

  sender.send_now(Bytes{1}, {});
  scheduler_.run_until_idle();

  ASSERT_EQ(near.devices().size(), 1u);
  ASSERT_EQ(far.devices().size(), 1u);
  EXPECT_GT(near.devices().begin()->second.last_rssi_dbm,
            far.devices().begin()->second.last_rssi_dbm);
}

TEST_F(WileNodes, NonBeaconFramesIgnored) {
  Receiver monitor{scheduler_, medium_, {1, 0}};
  // Inject a raw data frame: the receiver must not count it as a beacon.
  struct Injector : sim::MediumClient {
    void on_frame(const sim::RxFrame&) override {}
    [[nodiscard]] bool rx_enabled() const override { return false; }
  } injector;
  const auto id = medium_.attach(&injector, {0, 0});
  sim::TxRequest req;
  req.mpdu = dot11::build_data_to_ds(MacAddress::from_seed(1), MacAddress::from_seed(2),
                                     MacAddress::from_seed(1), 1, Bytes{1, 2}, false);
  req.airtime = usec(100);
  req.rate = phy::WifiRate::G6;
  medium_.transmit(id, std::move(req));
  scheduler_.run_until_idle();

  EXPECT_EQ(monitor.stats().beacons_seen, 0u);
  EXPECT_EQ(monitor.stats().messages, 0u);
}

TEST_F(WileNodes, ForeignVendorBeaconCountsAsBeaconOnly) {
  Receiver monitor{scheduler_, medium_, {1, 0}};
  struct Injector : sim::MediumClient {
    void on_frame(const sim::RxFrame&) override {}
    [[nodiscard]] bool rx_enabled() const override { return false; }
  } injector;
  const auto id = medium_.attach(&injector, {0, 0});

  dot11::Beacon beacon;
  beacon.ies.add(dot11::make_ssid_ie("SomeNet"));
  // OUI 00:50:f2 (not Wi-LE's), vendor subtype 1, payload 1 2 3.
  beacon.ies.add({dot11::IeId::VendorSpecific, {0x00, 0x50, 0xf2, 1, 1, 2, 3}});
  sim::TxRequest req;
  req.mpdu = dot11::build_mgmt_mpdu(dot11::MgmtSubtype::Beacon, MacAddress::broadcast(),
                                    MacAddress::from_seed(9), MacAddress::from_seed(9), 1,
                                    beacon.encode());
  req.airtime = usec(200);
  req.rate = phy::WifiRate::G6;
  medium_.transmit(id, std::move(req));
  scheduler_.run_until_idle();

  EXPECT_EQ(monitor.stats().beacons_seen, 1u);
  EXPECT_EQ(monitor.stats().wile_beacons, 0u);
  EXPECT_EQ(monitor.stats().messages, 0u);
}

// ---------------------------------------------------------------------------
// Controller details
// ---------------------------------------------------------------------------

TEST_F(WileNodes, ControllerIdleWithoutQueuedDownlinks) {
  SenderConfig cfg;
  cfg.device_id = 9;
  cfg.rx_window = RxWindow{msec(2), msec(20)};
  Sender sender{scheduler_, medium_, {0, 0}, cfg, Rng{2}};
  ControllerConfig ctl_cfg;
  Controller controller{scheduler_, medium_, {2, 0}, ctl_cfg, Rng{3}};

  std::optional<SendReport> report;
  sender.send_now(Bytes{1}, [&](const SendReport& r) { report = r; });
  scheduler_.run_until_idle();

  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(controller.stats().windows_seen, 1u);
  EXPECT_EQ(controller.stats().downlinks_sent, 0u);
  EXPECT_EQ(report->downlinks_received, 0u);
}

TEST_F(WileNodes, ControllerDrainsQueueAcrossWindows) {
  SenderConfig cfg;
  cfg.device_id = 9;
  cfg.period = seconds(2);
  cfg.rx_window = RxWindow{msec(2), msec(20)};
  Sender sender{scheduler_, medium_, {0, 0}, cfg, Rng{2}};
  ControllerConfig ctl_cfg;
  Controller controller{scheduler_, medium_, {2, 0}, ctl_cfg, Rng{3}};

  controller.queue_downlink(9, Bytes{'a'});
  controller.queue_downlink(9, Bytes{'b'});
  controller.queue_downlink(9, Bytes{'c'});

  std::vector<Bytes> got;
  sender.set_downlink_callback([&](const Message& m) { got.push_back(m.data); });
  sender.start_duty_cycle([] { return Bytes{1}; });
  scheduler_.run_until(TimePoint{seconds(10)});
  sender.stop_duty_cycle();

  // One downlink rides each window, in order.
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], (Bytes{'a'}));
  EXPECT_EQ(got[1], (Bytes{'b'}));
  EXPECT_EQ(got[2], (Bytes{'c'}));
  EXPECT_EQ(controller.stats().downlinks_sent, 3u);
}

TEST_F(WileNodes, DownlinkForOtherDeviceIgnored) {
  SenderConfig cfg;
  cfg.device_id = 9;
  cfg.rx_window = RxWindow{msec(2), msec(20)};
  Sender sender{scheduler_, medium_, {0, 0}, cfg, Rng{2}};
  ControllerConfig ctl_cfg;
  Controller controller{scheduler_, medium_, {2, 0}, ctl_cfg, Rng{3}};
  controller.queue_downlink(10, Bytes{'x'});  // not our device

  std::optional<SendReport> report;
  sender.send_now(Bytes{1}, [&](const SendReport& r) { report = r; });
  scheduler_.run_until_idle();

  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->downlinks_received, 0u);
  EXPECT_EQ(controller.stats().downlinks_sent, 0u);  // no window from device 10
}

// ---------------------------------------------------------------------------
// On-air bytes: every MPDU a sender puts on the air, pinned by hash. A
// promiscuous monitor 1 m away decodes everything for 120 s; the hash
// covers each frame's arrival time and bytes (timestamps and sequence
// control included), so any change to how a beacon train is built,
// repeated or paced shows.
// ---------------------------------------------------------------------------

struct MpduHasher : sim::MediumClient {
  explicit MpduHasher(const sim::Scheduler& s) : clock(s) {}
  const sim::Scheduler& clock;
  std::uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a 64
  std::uint64_t frames = 0;
  void mix(std::uint64_t v) {
    hash ^= v;
    hash *= 0x100000001b3ULL;
  }
  void on_frame(const sim::RxFrame& frame) override {
    ++frames;
    mix(static_cast<std::uint64_t>(clock.now().us()));
    for (const std::uint8_t b : frame.mpdu.view()) mix(b);
    mix(frame.mpdu.size());
  }
  [[nodiscard]] bool rx_enabled() const override { return true; }
};

struct OnAirPin {
  const char* name;
  std::size_t payload_bytes;
  void (*configure)(SenderConfig&);
  std::uint64_t hash;
  std::uint64_t frames;
  std::uint64_t beacons;
};

TEST(SenderOnAir, EveryMpduMatchesItsPin) {
  const OnAirPin pins[] = {
      {"plain 16 B", 16, [](SenderConfig&) {}, 0x2b64df329941529fULL, 119, 119},
      {"600 B fragmented", 600, [](SenderConfig&) {}, 0x8ba8da94b936dc12ULL, 357, 357},
      {"recovery_k 4", 16, [](SenderConfig& c) { c.redundancy.recovery_k = 4; },
       0x97351cd82d6e9855ULL, 177, 177},
      {"rx_window", 16,
       [](SenderConfig& c) { c.rx_window = RxWindow{msec(2), msec(10)}; },
       0x15a12a105915c05cULL, 119, 119},
      {"encrypted", 40, [](SenderConfig& c) { c.key = Bytes(16, 0x42); },
       0xc0ab77edc62549e5ULL, 119, 119},
      {"repeats 3", 16, [](SenderConfig& c) { c.redundancy.repeats = 3; },
       0x1e5c84b16b670e32ULL, 357, 357},
      {"ssid_stuffing", 16, [](SenderConfig& c) { c.ssid_stuffing = true; },
       0x2507555f67775274ULL, 119, 119},
  };
  for (const OnAirPin& pin : pins) {
    SCOPED_TRACE(pin.name);
    sim::Scheduler scheduler;
    sim::Medium medium{scheduler, phy::Channel{}, Rng{11}};
    SenderConfig cfg;
    cfg.device_id = 77;
    cfg.period = seconds(1);
    cfg.wake_jitter = msec(50);
    pin.configure(cfg);
    Sender sender{scheduler, medium, {0, 0}, cfg, Rng{12}};
    MpduHasher monitor{scheduler};
    medium.attach(&monitor, {1, 0});
    std::uint32_t cycle = 0;
    sender.start_duty_cycle([&] {
      Bytes data(pin.payload_bytes);
      for (std::size_t i = 0; i < data.size(); ++i) {
        data[i] = static_cast<std::uint8_t>(cycle * 31 + i * 7);
      }
      ++cycle;
      return data;
    });
    scheduler.run_until(TimePoint{seconds(120)});
    sender.stop_duty_cycle();
    EXPECT_EQ(monitor.hash, pin.hash);
    EXPECT_EQ(monitor.frames, pin.frames);
    EXPECT_EQ(sender.beacons_sent(), pin.beacons);
  }
}

}  // namespace
}  // namespace wile::core
